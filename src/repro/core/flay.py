"""Flay — the incremental partial evaluator, as one object.

Typical use::

    from repro.core import Flay, FlayOptions

    flay = Flay.from_source(p4_source, FlayOptions(target="tofino"))
    decision = flay.decide(update)    # ~ms: forward or recompile
    decision = flay.decide([u1, u2])  # a burst, decided as one unit
    print(flay.specialized_source())

``Flay`` *is* the :class:`repro.engine.engine.Engine`: construction runs
the cold pipeline (parse → typecheck → analyze → encode → specialize →
lower) and every ``decide`` call runs the warm path, for one update or
one burst, and returns one :class:`~repro.engine.pipeline.Decision`.
This module adds only the
source-string constructor and two printers.  The returned
:class:`~repro.engine.pipeline.Decision` is the one account of each
decision; the engine keeps only running totals of them.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.context import EngineOptions, EngineTimings
from repro.engine.engine import Engine
from repro.p4.printer import print_program

#: The long-standing public names for the engine's option/timing records.
FlayOptions = EngineOptions
FlayTimings = EngineTimings


class Flay(Engine):
    """Incremental specialization of one P4 program."""

    @classmethod
    def from_source(
        cls,
        source: str,
        options: Optional[FlayOptions] = None,
    ) -> "Flay":
        return cls(None, options, source=source)

    @property
    def runtime(self) -> "Flay":
        """The engine itself, under the name callers of the former
        two-object facade (``flay.runtime.<x>``) read it through."""
        return self

    def specialized_source(self) -> str:
        return print_program(self.specialized_program)

    def summary(self) -> str:
        lines = [
            f"points: {self.model.point_count}",
            f"tables: {len(self.model.tables)}",
            f"analysis: {self.timings.data_plane_analysis_seconds * 1000:.1f} ms",
            f"updates processed: {self.ctx.decisions} "
            f"(forwarded {self.forwarded_count}, "
            f"recompiled {self.recompiled_count})",
            f"mean update analysis: {self.mean_update_ms():.2f} ms",
            f"specializations: {self.report.summary()}",
        ]
        return "\n".join(lines)
