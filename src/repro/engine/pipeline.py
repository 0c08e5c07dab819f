"""Concrete pipeline passes: the cold pipeline and the warm update path.

The cold pipeline (run once per program) is the declared sequence

    parse → typecheck → analyze → encode → specialize → lower

and the warm path (run per control-plane update or batch) is

    apply-updates → reverdict-{points,tables} → respecialize

where the last pass either recompiles or lowers the forwarded updates.
Both are plain :class:`~repro.engine.passes.Pass` sequences over one
:class:`~repro.engine.context.EngineContext`; the only difference between
processing a single update, a value-set update, and a batch is the
declared *order* of the reverdict stages (a batch reports changed tables
before changed points, matching the historical decision format).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.analysis.symexec import analyze
from repro.engine.context import EngineContext
from repro.engine.events import SnapshotRestored, TargetCompiled, UpdateLowered
from repro.engine.gate import VerdictGate
from repro.engine.queries import QueryEngine
from repro.engine.specialize import Specializer
from repro.p4.parser import parse_program
from repro.p4.types import TypeEnv
from repro.runtime.semantics import (
    ControlPlaneState,
    ValueSetUpdate,
    encode_table,
    encode_value_set,
)
from repro.smt import DeltaSubstitution
from repro.smt.terms import DEFAULT_FACTORY


# ---------------------------------------------------------------------------
# Decisions — the warm path's public outcome records
# ---------------------------------------------------------------------------


def describe_points(tainted: int, redecided: int, unchanged: int) -> str:
    """The point counts every decision record reports, in one wording.

    Tainted points not counted in either of the other two are
    executability points that replayed a witness fingerprint (gate tier
    2a) without pulling their term.
    """
    return (
        f"points: {tainted} tainted, {redecided} re-decided, "
        f"{unchanged} unchanged term"
    )


@dataclass(slots=True)
class UpdateDecision:
    """Outcome of processing one control-plane update."""

    update: object
    recompiled: bool
    # Points tainted by a symbol whose assignment changed (the points
    # visited).  0 is the normal forward (an overapproximated table, a
    # no-op re-encode).
    affected_points: int
    changed: list  # pids / table names whose verdict changed
    elapsed_ms: float
    overapproximated: bool
    compile_report: object = None
    redecided_points: int = 0  # of those, decided afresh from a new term
    unchanged_points: int = 0  # of those, kept on the identical term

    @property
    def forwarded(self) -> bool:
        """Sent to the device without recompilation."""
        return not self.recompiled

    def describe(self) -> str:
        action = "RECOMPILE" if self.recompiled else "forward"
        mode = " (overapprox)" if self.overapproximated else ""
        points = describe_points(
            self.affected_points, self.redecided_points, self.unchanged_points
        )
        return (
            f"{action}{mode}: {points}; "
            f"{len(self.changed)} changed, {self.elapsed_ms:.2f} ms"
        )


@dataclass
class BatchDecision:
    """Outcome of processing a burst of updates as one unit."""

    update_count: int
    recompiled: bool
    changed: list  # verdicts that changed (pids / table names)
    affected_points: int  # points tainted (see UpdateDecision); often 0
    elapsed_ms: float
    compile_report: object = None
    redecided_points: int = 0
    unchanged_points: int = 0

    @property
    def updates(self) -> int:
        return self.update_count

    @property
    def forwarded(self) -> bool:
        return not self.recompiled

    def describe(self) -> str:
        action = "RECOMPILE" if self.recompiled else "forward"
        points = describe_points(
            self.affected_points, self.redecided_points, self.unchanged_points
        )
        return (
            f"{action}: batch of {self.update_count} updates, {points}; "
            f"{len(self.changed)} changed, {self.elapsed_ms:.1f} ms"
        )


# ---------------------------------------------------------------------------
# Warm-run scratch state
# ---------------------------------------------------------------------------


class WarmState:
    """Per-run scratch shared by the warm passes via ``ctx.warm``."""

    __slots__ = (
        "updates", "mode", "changed_vars", "assignments", "affected",
        "redecided", "unchanged", "changed", "compile_report",
    )

    def __init__(self, updates: list, mode: str) -> None:
        self.updates = updates
        self.mode = mode  # "update" | "value_set" | "batch"
        self.changed_vars: set = set()  # symbols re-assigned
        self.assignments: dict = {}  # table → TableAssignment
        self.affected = 0  # points tainted (visited)
        self.redecided = 0  # of those, decided afresh from a new term
        self.unchanged = 0  # of those, kept on the identical term
        self.changed: list = []  # pids / table names
        self.compile_report = None


# ---------------------------------------------------------------------------
# Cold passes
# ---------------------------------------------------------------------------


def _store_entry(ctx: EngineContext):
    """The shared-store entry backing this context, or None."""
    if ctx.store is None or ctx.source is None:
        return None
    return ctx.store.get(ctx.source, ctx.options)


class ParsePass:
    """``ctx.source`` → ``ctx.program`` (skipped when a program was given).

    With a shared store attached, a content-hash hit adopts the donated
    (already-pruned) AST and type environment instead of re-parsing.
    """

    name = "parse"
    stage = "cold"

    def run(self, ctx: EngineContext) -> None:
        if ctx.program is not None:
            return
        if ctx.store is not None and ctx.source is not None:
            entry = ctx.store.lookup(ctx.source, ctx.options)
            if entry is not None:
                ctx.store_hit = True
                ctx.program = entry.program
                ctx.env = entry.env
                ctx.prune_report = entry.prune_report
                return
        start = time.perf_counter()
        ctx.program = parse_program(ctx.source)
        ctx.timings.parse_seconds = time.perf_counter() - start


class TypeCheckPass:
    """Build the type environment (the front end's semantic check)."""

    name = "typecheck"
    stage = "cold"

    def run(self, ctx: EngineContext) -> None:
        if ctx.env is None:
            ctx.env = TypeEnv(ctx.program)


class PrunePass:
    """Abstract-interpretation prune: fold constants, drop dead branches.

    Runs between typecheck and analysis so the symbolic executor and the
    encoder never see statically-dead paths.  The rewrite is specialized-
    output-preserving by construction (see
    :mod:`repro.analysis.dataflow.prune`); ``options.prune=False`` is the
    ``--no-prune`` ablation.  The type environment is rebuilt when the
    program changed so every downstream consumer sees one consistent AST.
    """

    name = "prune"
    stage = "cold"

    def run(self, ctx: EngineContext) -> None:
        from repro.analysis.dataflow.prune import prune_program

        if ctx.store_hit:
            return  # the adopted AST is already pruned
        if not ctx.options.prune or ctx.options.effort == "none":
            return
        start = time.perf_counter()
        pruned, report = prune_program(
            ctx.program,
            ctx.env,
            effort=ctx.options.effort,
            skip_parser=ctx.options.skip_parser,
        )
        ctx.prune_report = report
        if pruned is not ctx.program:
            ctx.program = pruned
            ctx.env = TypeEnv(pruned)
        ctx.timings.prune_seconds = time.perf_counter() - start


class AnalysisPass:
    """One-time data-plane analysis plus the long-lived engine state.

    Produces the :class:`DataPlaneModel`, the control-plane state, the
    query engine (owner of the verdict caches), the specializer, and
    the cross-update :class:`DeltaSubstitution`.
    """

    name = "analyze"
    stage = "cold"

    def run(self, ctx: EngineContext) -> None:
        options = ctx.options
        entry = _store_entry(ctx) if ctx.store_hit else None
        if entry is not None:
            ctx.model = entry.model
        else:
            ctx.model = analyze(ctx.program, ctx.env, skip_parser=options.skip_parser)
            ctx.timings.data_plane_analysis_seconds = ctx.model.analysis_seconds
        ctx.state = ControlPlaneState(ctx.model)
        # The gate attaches one first-match lookup index per TableState
        # and replays witnessed MAYBEs before substitution.
        ctx.gate = VerdictGate(
            ctx.model, ctx.state, threshold=options.overapprox_threshold
        )
        ctx.query_engine = QueryEngine(
            ctx.model, use_solver=options.use_solver, gate=ctx.gate
        )
        if entry is not None:
            # Share the term-pure warm layers: the solver result memo and
            # the executability cache.  Both are pure functions of
            # hash-consed terms, so adopters and donor can interleave
            # freely under serialized access.
            ctx.query_engine.solver._results = entry.results
            ctx.query_engine._exec_cache = entry.exec_cache
        ctx.specializer = Specializer(
            ctx.program,
            ctx.model,
            ctx.env,
            prune_parser_tail=options.prune_parser_tail,
            effort=options.effort,
        )
        ctx.term_factory = DEFAULT_FACTORY
        # One long-lived substitute-and-simplify pass whose memo survives
        # across updates: an update marks the entries above a re-assigned
        # control symbol dirty and the next pull rewrites only those whose
        # children's results moved, so warm updates touch O(delta) of each
        # point's DAG.  It shares the query engine's simplify memo.
        ctx.substitution = DeltaSubstitution(
            {}, simplify_memo=ctx.query_engine.simplify_memo
        )


class EncodePass:
    """Encode the initial control plane and evaluate every program point.

    On a shared-store hit the empty-config sweep is adopted from the
    donor: the initial verdicts are a deterministic function of the
    program alone, so switches 2..N skip the entire point sweep and only
    install the donated mapping into their own substitution.
    """

    name = "encode"
    stage = "cold"

    def run(self, ctx: EngineContext) -> None:
        entry = _store_entry(ctx) if ctx.store_hit else None
        if entry is not None:
            initial = entry.initial
            ctx.mapping.update(initial["mapping"])
            ctx.table_assignments.update(initial["table_assignments"])
            ctx.point_verdicts.update(initial["point_verdicts"])
            ctx.table_verdicts.update(initial["table_verdicts"])
            ctx.substitution.set_many(ctx.mapping)
            return
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
            ctx.mapping.update(encode_value_set(info, ctx.state.value_sets[name]))
        ctx.substitution.set_many(ctx.mapping)
        for pid, point in ctx.model.points.items():
            ctx.point_verdicts[pid] = ctx.query_engine.point_verdict(
                point, ctx.substitution
            )


class RestorePass:
    """Rebuild warm state from ``ctx.restore_blob`` (snapshot restore).

    Replaces :class:`EncodePass` in the restore pipeline: instead of the
    empty-config sweep, the snapshotted control plane is replayed, the
    substitution memo / term-pure memos / gate witness records are
    reinstalled, and the snapshotted verdicts are adopted —
    so the following specialize/lower passes reproduce the snapshotted
    engine's current output without a single cold query.
    """

    name = "restore"
    stage = "cold"

    def run(self, ctx: EngineContext) -> None:
        from repro.engine.snapshot import apply_snapshot

        blob = ctx.restore_blob
        if blob is None:
            raise ValueError("RestorePass needs ctx.restore_blob")
        restored = apply_snapshot(ctx, blob)
        ctx.restore_blob = None
        if ctx.bus.active:
            ctx.bus.emit(
                SnapshotRestored(
                    memo_entries=restored["memo_entries"],
                    witness_records=restored["witness_records"],
                )
            )


class SpecializePass:
    """Verdicts → specialized program (initial or re-specialization)."""

    name = "specialize"
    stage = "cold"

    def run(self, ctx: EngineContext) -> None:
        ctx.specialized_program, ctx.report = ctx.specializer.specialize(
            ctx.point_verdicts, ctx.table_verdicts
        )


def _compile(ctx: EngineContext):
    """Compile the specialized program for the target; returns its report."""
    report = ctx.target.compile(ctx.specialized_program)
    ctx.compile_reports.append(report)
    if ctx.bus.active:
        ctx.bus.emit(
            TargetCompiled(
                target=getattr(ctx.target, "name", "target"),
                modeled_seconds=getattr(report, "modeled_seconds", 0.0),
            )
        )
    return report


class LowerPass:
    """Hand the initial specialized program to the target backend."""

    name = "lower"
    stage = "cold"

    def run(self, ctx: EngineContext) -> None:
        if ctx.target is not None:
            _compile(ctx)


# ---------------------------------------------------------------------------
# Warm passes
# ---------------------------------------------------------------------------


class ApplyUpdatesPass:
    """Apply the pending updates to the control-plane state and re-encode.

    Value-set updates are encoded inline (in update order); touched tables
    are re-encoded once each, in sorted name order — so a 1000-entry burst
    into one table costs one encoding, not a thousand.  A batch is
    validated as a whole before its first update applies, so a bad update
    in the middle leaves the state as it found it (a single update already
    fails before it mutates).
    """

    name = "apply-updates"
    stage = "warm"

    def run(self, ctx: EngineContext) -> None:
        warm = ctx.warm
        if warm.mode == "batch":
            ctx.state.validate_updates(warm.updates)
        touched: set = set()
        for update in warm.updates:
            if isinstance(update, ValueSetUpdate):
                info = ctx.state.apply_value_set_update(update)
                mapping = encode_value_set(info, ctx.state.value_sets[info.name])
                ctx.mapping.update(mapping)
                warm.changed_vars |= ctx.substitution.set_many(mapping)
            else:
                touched.add(ctx.state.apply_update(update).name)
        for name in sorted(touched):
            assignment = encode_table(
                ctx.model.tables[name],
                ctx.state.tables[name],
                ctx.options.overapprox_threshold,
            )
            ctx.table_assignments[name] = assignment
            warm.assignments[name] = assignment
            ctx.mapping.update(assignment.mapping)
            warm.changed_vars |= ctx.substitution.set_many(assignment.mapping)


class ReverdictPointsPass:
    """Re-query exactly the program points tainted by a *changed* symbol.

    The changed symbols are the ones ``set_many`` found re-assigned, so an
    update into an overapproximated table — whose ``!any`` assignment is
    the identical interned term before and after — re-queries no point.
    """

    name = "reverdict-points"
    stage = "warm"

    def run(self, ctx: EngineContext) -> None:
        warm = ctx.warm
        sweep = ctx.query_engine.reverdict_points(
            warm.changed_vars, ctx.substitution, ctx.point_verdicts
        )
        warm.affected = len(sweep.verdicts)
        warm.redecided = sweep.redecided
        warm.unchanged = sweep.unchanged
        warm.changed.extend(sweep.changed)
        ctx.point_verdicts.update(sweep.verdicts)


class ReverdictTablesPass:
    """Recompute the structural verdict of every touched table."""

    name = "reverdict-tables"
    stage = "warm"

    def run(self, ctx: EngineContext) -> None:
        warm = ctx.warm
        verdicts, changed = ctx.query_engine.reverdict_tables(
            warm.assignments, ctx.state, ctx.table_verdicts
        )
        warm.changed.extend(changed)
        ctx.table_verdicts.update(verdicts)


class RespecializePass:
    """The recompile decision, and the lowering that follows from it.

    If some verdict changed, respecialize and recompile for the target;
    otherwise push each update to the device as a forward — a forwarded
    update never reaches the device compiler, which is the paper's entire
    point.
    """

    name = "respecialize"
    stage = "warm"

    def run(self, ctx: EngineContext) -> None:
        warm = ctx.warm
        target = ctx.target
        if not warm.changed:
            if target is None:
                return
            bus = ctx.bus
            for update in warm.updates:
                lowered = target.lower_update(update)
                ctx.lowered_updates.append(lowered)
                if bus.active:
                    bus.emit(UpdateLowered(target=lowered.target, table=lowered.table))
            return
        ctx.specialized_program, ctx.report = ctx.specializer.specialize(
            ctx.point_verdicts, ctx.table_verdicts, warm.changed
        )
        ctx.recompilations += 1
        if target is not None:
            warm.compile_report = _compile(ctx)


# ---------------------------------------------------------------------------
# Declared sequences
# ---------------------------------------------------------------------------


def cold_passes() -> list:
    """The cold pipeline, in order."""
    return [
        ParsePass(),
        TypeCheckPass(),
        PrunePass(),
        AnalysisPass(),
        EncodePass(),
        SpecializePass(),
        LowerPass(),
    ]


def restore_passes() -> list:
    """The snapshot-restore pipeline: cold front half, then warm reinstall.

    Parse/typecheck/prune/analysis re-derive the program-pure artifacts
    (or adopt them from a shared store); :class:`RestorePass` replaces
    the encode sweep with the snapshot's warm state.
    """
    return [
        ParsePass(),
        TypeCheckPass(),
        PrunePass(),
        AnalysisPass(),
        RestorePass(),
        SpecializePass(),
        LowerPass(),
    ]


def warm_passes(mode: str) -> list:
    """The warm path for one update mode.

    A single update reports changed points before its table; a batch
    reports changed tables first (historical decision format, preserved
    bit-for-bit).  Value-set updates touch no table, so the table stage is
    a no-op for them.
    """
    apply_stage = ApplyUpdatesPass()
    points = ReverdictPointsPass()
    tables = ReverdictTablesPass()
    if mode == "batch":
        return [apply_stage, tables, points, RespecializePass()]
    return [apply_stage, points, tables, RespecializePass()]


__all__ = [
    "ApplyUpdatesPass",
    "AnalysisPass",
    "BatchDecision",
    "EncodePass",
    "LowerPass",
    "ParsePass",
    "RespecializePass",
    "RestorePass",
    "ReverdictPointsPass",
    "ReverdictTablesPass",
    "SpecializePass",
    "TypeCheckPass",
    "UpdateDecision",
    "WarmState",
    "cold_passes",
    "describe_points",
    "restore_passes",
    "warm_passes",
]
