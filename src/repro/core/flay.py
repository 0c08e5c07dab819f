"""Flay — the public facade of the incremental partial evaluator.

Typical use::

    from repro.core import Flay, FlayOptions

    flay = Flay.from_source(p4_source, FlayOptions(target="tofino"))
    decision = flay.process_update(update)   # ~ms: forward or recompile
    print(flay.specialized_source())

The facade is a thin view over :class:`repro.engine.engine.Engine`, which
runs the cold pipeline (parse → typecheck → analyze → encode → specialize
→ lower) at construction and the warm per-update path for every call to
``process_update``/``process_batch``.  Pass an
:class:`~repro.engine.events.EventBus` via ``bus=`` to observe typed
pipeline events (pass timings, cache activity, forward/recompile
outcomes).
"""

from __future__ import annotations

from typing import Optional

from repro.engine.context import EngineOptions, EngineTimings
from repro.engine.engine import Engine
from repro.engine.events import EventBus
from repro.engine.pipeline import BatchDecision, UpdateDecision
from repro.p4 import ast_nodes as ast
from repro.p4.printer import print_program
from repro.runtime.semantics import Update, ValueSetUpdate

#: The long-standing public names for the engine's option/timing records.
FlayOptions = EngineOptions
FlayTimings = EngineTimings


class Flay:
    """Incremental specialization of one P4 program."""

    def __init__(
        self,
        program: Optional[ast.Program] = None,
        options: Optional[FlayOptions] = None,
        *,
        source: Optional[str] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.options = options if options is not None else FlayOptions()
        self.runtime = Engine(program, self.options, source=source, bus=bus)

    @classmethod
    def from_source(
        cls,
        source: str,
        options: Optional[FlayOptions] = None,
        *,
        bus: Optional[EventBus] = None,
    ) -> "Flay":
        return cls(None, options, source=source, bus=bus)

    # -- update path -----------------------------------------------------------

    def process_update(self, update: Update) -> UpdateDecision:
        return self.runtime.process_update(update)

    def process_value_set_update(self, update: ValueSetUpdate) -> UpdateDecision:
        return self.runtime.process_value_set_update(update)

    def process_batch(self, updates: list) -> BatchDecision:
        return self.runtime.process_batch(updates)

    def apply_batch(self, updates: list, workers: int = 1):
        """Burst processing via the batch scheduler: coalesce redundant
        updates, partition the rest into independent conflict groups, and
        run the groups on a worker pool.  ``workers=0`` auto-detects the
        CPU count.  Deterministic — byte-identical output across worker
        counts.  Returns a
        :class:`~repro.engine.batch.BatchReport`."""
        return self.runtime.apply_batch(updates, workers=workers)

    # -- results ------------------------------------------------------------------

    @property
    def timings(self) -> FlayTimings:
        return self.runtime.timings

    @property
    def env(self):
        return self.runtime.env

    @property
    def events(self) -> EventBus:
        return self.runtime.events

    @property
    def model(self):
        return self.runtime.model

    @property
    def program(self) -> ast.Program:
        return self.runtime.program

    @property
    def specialized_program(self) -> ast.Program:
        return self.runtime.specialized_program

    def specialized_source(self) -> str:
        return print_program(self.runtime.specialized_program)

    @property
    def report(self):
        return self.runtime.report

    @property
    def compile_reports(self) -> list:
        return self.runtime.compile_reports

    def cache_stats(self):
        """Hit/miss/invalidation counters of the cross-update caches."""
        return self.runtime.cache_stats()

    def solver_stats(self):
        """Query-layer and SAT-core counters (a ``SolverStats``)."""
        return self.runtime.solver_stats()

    def gate_stats(self):
        """Verdict-gate tier counters (a ``GateStats``), or None when
        the gate is disabled (``fdd_gate=False``)."""
        return self.runtime.gate_stats()

    @property
    def prune_report(self):
        """The abstract-interpretation prune pass's report (a
        ``PruneReport``), or None when pruning is disabled
        (``prune=False``)."""
        return self.runtime.prune_report

    def summary(self) -> str:
        log = self.runtime.update_log
        lines = [
            f"points: {self.model.point_count}",
            f"tables: {len(self.model.tables)}",
            f"analysis: {self.timings.data_plane_analysis_seconds * 1000:.1f} ms",
            f"updates processed: {len(log)} "
            f"(forwarded {self.runtime.forwarded_count}, "
            f"recompiled {self.runtime.recompiled_count})",
            f"mean update analysis: {self.timings.mean_update_ms():.2f} ms",
            f"specializations: {self.report.summary()}",
        ]
        return "\n".join(lines)
