"""The engine: cold pipeline at construction, warm pipeline per update.

``Engine`` is the runtime; :class:`repro.core.Flay` subclasses it with a
source-string constructor and printers.  It owns one
:class:`~repro.engine.context.EngineContext`, runs the declared cold
pass sequence at construction, and answers every control-plane update
or burst through :meth:`Engine.decide`.  All state lives on the
context; the engine's attributes are views over it.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.engine.batch import schedule_batch
from repro.engine.context import EngineContext, EngineOptions, EngineTimings
from repro.engine.events import (
    CacheActivity,
    EventBus,
    GateActivity,
    SolverActivity,
    StoreActivity,
    UpdateLowered,
    UpdateProcessed,
)
from repro.engine.passes import PassManager
from repro.engine.pipeline import (
    Decision,
    WarmState,
    cold_passes,
    restore_passes,
    warm_passes,
)
from repro.ir.metrics import CacheReport
from repro.smt.terms import DEFAULT_FACTORY
from repro.targets.base import create_target

_UNSET = object()


class Engine:
    """Staged incremental specialization of one P4 program."""

    def __init__(
        self,
        program=None,
        options: Optional[EngineOptions] = None,
        *,
        source: Optional[str] = None,
        env=None,
        device_compiler=_UNSET,
        bus: Optional[EventBus] = None,
        store=None,
        restore_blob: Optional[dict] = None,
    ) -> None:
        if program is None and source is None:
            raise ValueError("Engine needs a program or a source string")
        self.options = options if options is not None else EngineOptions()
        self.ctx = EngineContext(
            options=self.options,
            bus=bus if bus is not None else EventBus(),
            source=source,
            program=program,
            env=env,
            store=store,
            restore_blob=restore_blob,
        )
        if device_compiler is _UNSET:
            # Eager validation: an unknown target name fails here, with the
            # list of registered backends — not deep inside lowering.
            self.ctx.target = create_target(self.options.target)
        else:
            self.ctx.target = device_compiler

        start = time.perf_counter()
        self._cold = PassManager(
            restore_passes() if restore_blob is not None else cold_passes()
        )
        self._warm = PassManager(warm_passes())
        # No term of this engine exists yet: a due collection runs here.
        DEFAULT_FACTORY.collect_if_due()
        self._cold.run(self.ctx)
        self._settle_store()
        total = time.perf_counter() - start
        self.ctx.timings.initial_specialization_seconds = max(
            0.0,
            total
            - self.ctx.timings.parse_seconds
            - self.ctx.timings.prune_seconds
            - self.ctx.timings.data_plane_analysis_seconds,
        )

    def _settle_store(self) -> None:
        """Donate to (or report adoption from) the attached shared store."""
        ctx = self.ctx
        if ctx.store is None or ctx.source is None:
            return
        if not ctx.store_hit:
            entry = ctx.store.donate(ctx)
        else:
            entry = ctx.store.get(ctx.source, ctx.options)
        if ctx.bus.active and entry is not None:
            ctx.bus.emit(StoreActivity(key=entry.key, hit=ctx.store_hit))

    # -- warm-state snapshot ---------------------------------------------------

    def snapshot(self) -> dict:
        """This engine's warm state as one picklable blob.

        See :mod:`repro.engine.snapshot` for the wire format and the
        invalidation rules.  Restore with :meth:`Engine.restore`.
        """
        from repro.engine.snapshot import snapshot_context

        return snapshot_context(self.ctx)

    @classmethod
    def restore(
        cls,
        blob: dict,
        *,
        store=None,
        bus: Optional[EventBus] = None,
        device_compiler=_UNSET,
    ) -> "Engine":
        """Rebuild a warm engine from a :meth:`snapshot` blob.

        The blob carries its own source and options, so the restored
        engine is guaranteed to re-derive the exact program the warm
        state was snapshotted against; an optional shared ``store``
        short-circuits the cold front half the same way it does for a
        fresh engine.
        """
        return cls(
            options=blob["options"],
            source=blob["source"],
            bus=bus,
            store=store,
            device_compiler=device_compiler,
            restore_blob=blob,
        )

    # -- update processing -----------------------------------------------------

    def decide(self, item) -> Decision:
        """Forward or recompile: the paper's one question, for one input.

        A single :class:`~repro.runtime.semantics.Update` or
        :class:`~repro.runtime.semantics.ValueSetUpdate` runs the warm
        passes (aiming for the paper's ~100 ms budget) and reports changed
        points before its table.  A list or tuple is a burst: it runs the
        burst scheduler (coalesce, partition into conflict groups, run each
        group, merge) inline on the calling thread, and respecializes at
        most once.  The input's type picks the path, not its length, so a
        one-update list is a burst.  Forwarded updates reach the device in
        the order they were submitted.
        """
        if isinstance(item, (list, tuple)):
            return self._decide_burst(list(item))
        ctx = self.ctx
        before = self._activity_snapshot() if ctx.bus.active else None
        start = time.perf_counter()
        ctx.warm = warm = WarmState(item)
        try:
            self._warm.run(ctx)
        except BaseException:
            # A run that fails part-way may have moved verdicts that no
            # specialize call has seen; the next one starts from scratch.
            ctx.specializer.reset()
            raise
        finally:
            ctx.warm = None
        elapsed_ms = (time.perf_counter() - start) * 1000
        if before is not None:
            self._emit_activity(*before)
        # A value-set update re-encodes no table: never overapproximated.
        assignment = next(iter(warm.assignments.values()), None)
        # Positional: keyword arguments more than double the cost of this
        # once-per-update constructor.
        decision = Decision(
            warm.recompiled,
            warm.changed,
            warm.affected,  # affected_points
            warm.redecided,  # redecided_points
            warm.unchanged,  # unchanged_points
            elapsed_ms,
            bool(assignment and assignment.overapproximated),
            warm.compile_report,
        )
        self._log("update", decision)
        return decision

    def _decide_burst(self, updates: list) -> Decision:
        ctx = self.ctx
        before = self._activity_snapshot() if ctx.bus.active else None
        try:
            # Called through this module's global, where tracing wraps it.
            decision = schedule_batch(ctx, updates)
        except BaseException:
            ctx.specializer.reset()
            raise
        if before is not None:
            self._emit_activity(*before)
        if not decision.recompiled and ctx.target is not None:
            # The device still needs every submitted write (coalescing is a
            # verdict-side optimization), in the order it was submitted.
            for lowered in ctx.target.lower_batch(updates):
                ctx.lowered_updates.append(lowered)
                if ctx.bus.active:
                    ctx.bus.emit(
                        UpdateLowered(target=lowered.target, table=lowered.table)
                    )
        self._log("batch", decision)
        return decision

    def process_update(self, update) -> Decision:
        """``decide(update)``; kept because the end-to-end benchmark calls it."""
        return self.decide(update)

    def process_batch(self, updates) -> Decision:
        """``decide(list(updates))``; kept because the end-to-end benchmark
        calls it."""
        return self.decide(list(updates))

    def apply_batch(self, updates, workers=None) -> Decision:
        """``decide(list(updates))``; kept because the end-to-end benchmark
        calls it (with ``workers=0``, which is ignored: bursts run inline)."""
        return self.decide(list(updates))

    def _activity_snapshot(self) -> tuple:
        """The cache, solver and gate counters :meth:`_emit_activity`
        reports the deltas of."""
        ctx = self.ctx
        return (
            [c.snapshot() for c in ctx.cache_counters()],
            ctx.query_engine.solver.stats.snapshot(),
            ctx.gate.snapshot(),
        )

    def _emit_activity(self, baseline, solver_before, gate_before) -> None:
        """Emit per-run cache and SAT-core deltas (bus known to be active)."""
        ctx = self.ctx
        for counter, before in zip(ctx.cache_counters(), baseline):
            delta = counter.since(before)
            if delta.lookups or delta.invalidations:
                ctx.bus.emit(
                    CacheActivity(
                        cache=delta.name,
                        hits=delta.hits,
                        misses=delta.misses,
                        invalidations=delta.invalidations,
                    )
                )
        stats = ctx.query_engine.solver.stats.since(solver_before)
        if stats.probes:
            ctx.bus.emit(
                SolverActivity(
                    probes=stats.probes,
                    decisions=stats.search.decisions,
                    conflicts=stats.search.conflicts,
                    propagations=stats.search.propagations,
                    learned=stats.search.learned,
                    restarts=stats.search.restarts,
                    probe_us=stats.probe_us_total,
                )
            )
        delta = ctx.gate.snapshot().since(gate_before)
        if delta.screened or delta.fdd_rebuilds:
            ctx.bus.emit(
                GateActivity(
                    screened=delta.screened,
                    witness_hits=delta.witness_hits,
                    exec_cache_hits=delta.exec_cache_hits,
                    solver_fallbacks=delta.solver_fallbacks,
                    harvested=delta.harvested,
                    fdd_rebuilds=delta.fdd_rebuilds,
                )
            )

    def _log(self, kind: str, decision: Decision) -> None:
        """Record the decision and publish its outcome event."""
        ctx = self.ctx
        ctx.update_log.append(decision)
        if ctx.bus.active:
            ctx.bus.emit(
                UpdateProcessed(
                    kind=kind,
                    forwarded=decision.forwarded,
                    recompiled=decision.recompiled,
                    update_count=decision.update_count,
                    affected_points=decision.affected_points,
                    changed=len(decision.changed),
                    elapsed_ms=decision.elapsed_ms,
                )
            )

    # -- re-derivation helpers (used by equivalence oracles) -------------------

    def _encode_initial(self) -> None:
        """Re-encode every table/value set from the current state."""
        from repro.runtime.semantics import encode_table, encode_value_set

        ctx = self.ctx
        for name, info in ctx.model.tables.items():
            assignment = encode_table(
                info, ctx.state.tables[name], ctx.options.overapprox_threshold
            )
            ctx.table_assignments[name] = assignment
            ctx.mapping.update(assignment.mapping)
            ctx.table_verdicts[name] = ctx.query_engine.table_verdict(
                info, assignment, ctx.state.tables[name]
            )
        for name, info in ctx.model.value_sets.items():
            ctx.mapping.update(
                encode_value_set(info, ctx.state.value_sets[name])
            )

    def _evaluate_all_points(self) -> None:
        ctx = self.ctx
        ctx.substitution.set_many(ctx.mapping)
        for pid, point in ctx.model.points.items():
            ctx.point_verdicts[pid] = ctx.query_engine.point_verdict(
                point, ctx.substitution
            )

    # -- introspection ---------------------------------------------------------

    @property
    def events(self) -> EventBus:
        return self.ctx.bus

    @property
    def forwarded_count(self) -> int:
        return sum(1 for d in self.ctx.update_log if d.forwarded)

    @property
    def recompiled_count(self) -> int:
        return sum(1 for d in self.ctx.update_log if d.recompiled)

    def mean_update_ms(self) -> float:
        log = self.ctx.update_log
        if not log:
            return 0.0
        return sum(d.elapsed_ms for d in log) / len(log)

    def cache_stats(self) -> CacheReport:
        """Hit/miss/invalidation counters for every cross-update cache layer."""
        report = CacheReport()
        for counter in self.ctx.cache_counters():
            report.add(counter)
        return report

    def solver_stats(self):
        """Query-layer and SAT-core counters (a ``SolverStats``)."""
        return self.ctx.query_engine.solver.stats

    @property
    def gate(self):
        """The verdict gate (lookup rows + witness records)."""
        return self.ctx.gate

    def gate_stats(self):
        """Gate decision counters (a ``GateStats``)."""
        return self.ctx.gate.snapshot()

    @property
    def prune_report(self):
        """The prune pass's report, or None at effort "none"."""
        return self.ctx.prune_report

    # -- context views --------------------------------------------------------
    # Read-only views of the context, so callers write ``engine.model``
    # rather than ``engine.ctx.model``.

    @property
    def program(self):
        return self.ctx.program

    @property
    def env(self):
        return self.ctx.env

    @property
    def model(self):
        return self.ctx.model

    @property
    def state(self):
        return self.ctx.state

    @property
    def specializer(self):
        return self.ctx.specializer

    @property
    def substitution(self):
        return self.ctx.substitution

    @property
    def mapping(self) -> dict:
        return self.ctx.mapping

    @property
    def table_assignments(self) -> dict:
        return self.ctx.table_assignments

    @property
    def point_verdicts(self) -> dict:
        return self.ctx.point_verdicts

    @property
    def table_verdicts(self) -> dict:
        return self.ctx.table_verdicts

    @property
    def update_log(self) -> list:
        return self.ctx.update_log

    @property
    def recompilations(self) -> int:
        return self.ctx.recompilations

    @property
    def compile_reports(self) -> list:
        return self.ctx.compile_reports

    @property
    def lowered_updates(self) -> list:
        return self.ctx.lowered_updates

    @property
    def specialized_program(self):
        return self.ctx.specialized_program

    @property
    def report(self):
        return self.ctx.report

    @property
    def timings(self) -> EngineTimings:
        return self.ctx.timings

    @property
    def device_compiler(self):
        return self.ctx.target

    @device_compiler.setter
    def device_compiler(self, target) -> None:
        self.ctx.target = target
