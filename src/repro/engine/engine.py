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
from repro.engine.passes import PassManager
from repro.engine.pipeline import (
    Decision,
    WarmState,
    cold_passes,
    restore_passes,
    roll_back,
    warm_passes,
)
from repro.errors import FlayError
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
        store=None,
        restore_blob: Optional[dict] = None,
    ) -> None:
        if program is None and source is None:
            raise ValueError("Engine needs a program or a source string")
        self.options = options if options is not None else EngineOptions()
        self.ctx = EngineContext(
            options=self.options,
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
            - self.ctx.timings.data_plane_analysis_seconds,
        )

    def _settle_store(self) -> None:
        """Donate the cold artifacts to the attached shared store, unless
        they were adopted from it."""
        ctx = self.ctx
        if ctx.store is not None and ctx.source is not None and not ctx.store_hit:
            ctx.store.donate(ctx)

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
            store=store,
            device_compiler=device_compiler,
            restore_blob=blob,
        )

    # -- update processing -----------------------------------------------------

    def decide(self, item) -> Decision:
        """Forward or recompile: the paper's one question, for one input.

        A single :class:`~repro.runtime.semantics.Update` or
        :class:`~repro.runtime.semantics.ValueSetUpdate` runs the warm
        passes (aiming for the paper's ~100 ms budget).  A list or tuple
        is a burst: the scheduler checks every update, coalesces the burst
        and counts its conflict groups in one pass, then the same warm
        passes run over its net updates, so it respecializes at most once.
        The input's type picks the record's burst fields, not its length,
        so a one-update list is a burst.  Either way changed points are
        reported before changed tables, and forwarded updates reach the
        device in the order they were submitted.  A decision that raises
        leaves the control plane as it found it
        (:func:`~repro.engine.pipeline.roll_back`).  The returned record is
        the whole account of the decision; the engine adds it only to its
        running totals.
        """
        if isinstance(item, (list, tuple)):
            return self._decide_burst(list(item))
        ctx = self.ctx
        start = time.perf_counter()
        ctx.warm = warm = WarmState(item)
        try:
            # ``PassManager.run``, inline: one frame less per update.
            for step in self._warm.passes:
                try:
                    step.run(ctx)
                except FlayError as exc:
                    if exc.stage is None:
                        exc.stage = step.name
                    raise
        except BaseException:
            self._fail(warm)
            raise
        finally:
            ctx.warm = None
        elapsed_ms = (time.perf_counter() - start) * 1000
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
            warm.lowered,
        )
        # Counted once the decision is complete, so a failed compile
        # counts neither as a decision nor as a recompilation.
        ctx.decisions += 1
        ctx.recompilations += warm.recompiled
        ctx.decision_ms += elapsed_ms
        return decision

    def _decide_burst(self, updates: list) -> Decision:
        ctx = self.ctx
        ctx.warm = warm = WarmState(updates)
        try:
            # Called through this module's global, where tracing wraps it.
            decision = schedule_batch(ctx, self._warm)
        except BaseException:
            self._fail(warm)
            raise
        finally:
            ctx.warm = None
        ctx.decisions += 1
        ctx.recompilations += decision.recompiled
        ctx.decision_ms += decision.elapsed_ms
        return decision

    def _fail(self, warm: WarmState) -> None:
        """Undo a failed run's commits, then reset the specializer: the run
        may have moved verdicts that no specialize call has seen, so the
        next one starts from scratch."""
        try:
            roll_back(self.ctx, warm)
        finally:
            self.ctx.specializer.reset()

    #: ``decide``, under the name the end-to-end benchmark calls (an alias,
    #: not a wrapper, so a single update pays no extra call).
    process_update = decide

    def process_batch(self, updates) -> Decision:
        """``decide(list(updates))``; kept because the end-to-end benchmark
        calls it."""
        return self.decide(list(updates))

    def apply_batch(self, updates, workers=None) -> Decision:
        """``decide(list(updates))``; kept because the end-to-end benchmark
        calls it (with ``workers=0``, which is ignored: bursts run inline)."""
        return self.decide(list(updates))

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
    def forwarded_count(self) -> int:
        return self.ctx.decisions - self.ctx.recompilations

    @property
    def recompiled_count(self) -> int:
        return self.ctx.recompilations

    def mean_update_ms(self) -> float:
        """Mean decision wall time, in ms (0.0 before the first)."""
        ctx = self.ctx
        return ctx.decision_ms / ctx.decisions if ctx.decisions else 0.0

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
    def recompilations(self) -> int:
        return self.ctx.recompilations

    @property
    def compile_report(self):
        """The report of the last device compile, or None without a target."""
        return self.ctx.compile_report

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
