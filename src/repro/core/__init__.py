"""Flay core: the public facade over the :mod:`repro.engine` pipeline."""

from repro.core.flay import Flay, FlayOptions, FlayTimings
from repro.core.incremental import (
    BatchDecision,
    IncrementalSpecializer,
    UpdateDecision,
)
from repro.engine.queries import (
    ALWAYS,
    MAYBE,
    NEVER,
    PointVerdict,
    QueryEngine,
    TableVerdict,
)
from repro.engine.specialize import (
    EFFORT_DCE,
    EFFORT_FULL,
    EFFORT_NONE,
    SpecializationReport,
    Specializer,
)
from repro.errors import FlayError
