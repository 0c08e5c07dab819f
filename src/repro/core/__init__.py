"""Flay core: the public names of the :mod:`repro.engine` pipeline."""

from repro.core.flay import Flay, FlayOptions, FlayTimings
from repro.engine.pipeline import Decision
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
