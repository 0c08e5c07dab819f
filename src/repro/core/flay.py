"""Flay — the incremental partial evaluator, as one object.

Typical use::

    from repro.core import Flay, FlayOptions

    flay = Flay.from_source(p4_source, FlayOptions(target="tofino"))
    decision = flay.process_update(update)   # ~ms: forward or recompile
    print(flay.specialized_source())

``Flay`` *is* the :class:`repro.engine.engine.Engine`: construction runs
the cold pipeline (parse → typecheck → analyze → encode → specialize →
lower) and every ``process_update``/``process_batch``/``apply_batch``
call runs the warm per-update path.  This module adds only the
source-string constructor and two printers.  Pass an
:class:`~repro.engine.events.EventBus` via ``bus=`` to observe typed
pipeline events (pass timings, cache activity, forward/recompile
outcomes).
"""

from __future__ import annotations

from typing import Optional

from repro.engine.context import EngineOptions, EngineTimings
from repro.engine.engine import Engine
from repro.engine.events import EventBus
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
        *,
        bus: Optional[EventBus] = None,
    ) -> "Flay":
        return cls(None, options, source=source, bus=bus)

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
            f"updates processed: {len(self.update_log)} "
            f"(forwarded {self.forwarded_count}, "
            f"recompiled {self.recompiled_count})",
            f"mean update analysis: {self.timings.mean_update_ms():.2f} ms",
            f"specializations: {self.report.summary()}",
        ]
        return "\n".join(lines)
