"""The structured diagnostic layer shared by every Flay subsystem.

Every module-specific exception (parse, typecheck, analysis, entries,
configs, interpretation, lowering, SMT sorts) roots here so callers can
catch one :class:`FlayError` and always get two structured facts:

* ``stage`` — which pipeline stage raised it (one of the ``STAGE_*``
  constants; passes stamp it automatically via the pass manager), and
* ``pos`` — the source location (:class:`SourcePos`), when one is known.

This module is a deliberate leaf: it imports nothing from ``repro`` so
that the lowest layers (``repro.smt.terms``, ``repro.p4.errors``) can
depend on it without cycles.  The engine re-exports everything through
:mod:`repro.engine.errors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

# Pipeline stages, in cold-pipeline order (the warm path reuses the tail).
STAGE_PARSE = "parse"
STAGE_TYPECHECK = "typecheck"
STAGE_ANALYSIS = "analysis"
STAGE_RUNTIME = "runtime"  # control-plane state: entries, configs, updates
STAGE_QUERY = "query"  # SMT queries / verdict evaluation
STAGE_SPECIALIZE = "specialize"
STAGE_LOWER = "lower"  # target backends
STAGE_INTERPRET = "interpret"  # reference interpreter


@dataclass(frozen=True)
class SourcePos:
    """A position in a source file (1-based line/column)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class FlayError(Exception):
    """Base of every Flay diagnostic.

    Subclasses set :attr:`default_stage`; an instance can override it via
    the ``stage`` keyword.  ``pos`` carries the source location when the
    error is attributable to a program location.  Subclasses may multiply
    inherit a builtin exception (``ValueError``, ``KeyError``, ...) so that
    pre-existing ``except ValueError`` call sites keep working.
    """

    default_stage: ClassVar[Optional[str]] = None

    def __init__(
        self,
        message: str,
        *,
        stage: Optional[str] = None,
        pos: Optional[SourcePos] = None,
    ) -> None:
        self.message = message
        self.stage = stage if stage is not None else self.default_stage
        self.pos = pos
        super().__init__(self.render())

    def render(self) -> str:
        if self.pos is not None:
            return f"{self.pos}: {self.message}"
        return self.message

    def describe(self) -> str:
        """The CLI-facing form: ``[stage] pos: message``."""
        prefix = f"[{self.stage}] " if self.stage else ""
        return f"{prefix}{self.render()}"

    def __str__(self) -> str:
        # Uniform rendering even when a builtin like KeyError (which would
        # repr() its argument) appears in the MRO.
        return self.render()


class OptionsError(FlayError, ValueError):
    """An engine option has an invalid value (bad effort, ...)."""

    default_stage = STAGE_RUNTIME
