"""The ``Pass`` protocol and the manager that runs declared sequences.

A pass is any object with a ``name``, a ``stage`` ("cold" or "warm"), and
a ``run(ctx)`` method.  The :class:`PassManager` executes a declared
sequence over one :class:`~repro.engine.context.EngineContext`, stamping
the pipeline stage onto any :class:`~repro.errors.FlayError` that escapes
a pass without one.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.engine.context import EngineContext
from repro.errors import FlayError


@runtime_checkable
class Pass(Protocol):
    """One stage of the cold pipeline or the warm per-update path."""

    name: str
    stage: str  # "cold" | "warm"

    def run(self, ctx: EngineContext) -> None: ...


class PassManager:
    """Runs a declared pass sequence over a shared context."""

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes = tuple(passes)

    def run(self, ctx: EngineContext) -> None:
        for pipeline_pass in self.passes:
            try:
                pipeline_pass.run(ctx)
            except FlayError as exc:
                if exc.stage is None:
                    exc.stage = pipeline_pass.name
                raise

    def describe(self) -> str:
        return " → ".join(p.name for p in self.passes)
