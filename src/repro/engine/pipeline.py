"""Concrete pipeline passes: the cold pipeline and the warm update path.

The cold pipeline (run once per program) is the declared sequence

    parse → typecheck → analyze → encode → specialize → lower

and the warm path (run per single control-plane update, table or value
set) is

    apply-updates → reverdict-{points,tables} → respecialize

where the last pass either recompiles or lowers the forwarded update.
Both are plain :class:`~repro.engine.passes.Pass` sequences over one
:class:`~repro.engine.context.EngineContext`.  A burst goes through the
scheduler in :mod:`repro.engine.batch` instead; both paths end in
:func:`respecialize` and report one :class:`Decision`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.analysis.symexec import analyze
from repro.engine.context import SHARED, EngineContext, warm_state
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
# The decision record — the warm path's one public outcome
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Decision:
    """Outcome of one :meth:`~repro.engine.engine.Engine.decide` call.

    ``recompiled`` says the respecialized program differed from the one
    last compiled; ``changed`` lists the verdicts that moved (pids and
    table names), which may be non-empty on a forward (a move no printed
    statement reads).  ``affected_points`` counts the points tainted by a
    symbol whose assignment changed (the points visited; 0 is the normal
    forward), of which ``redecided_points`` were decided afresh from a new
    term and ``unchanged_points`` kept the identical term.  Tainted points
    counted in neither are executability points that replayed a witness
    fingerprint (gate tier 2a) without pulling their term.

    A single update leaves the burst fields at their one-update values
    and ``groups`` at None; a burst sets them from the scheduler, and
    ``changed`` then lists each conflict group's tables before its points,
    groups in submission order.

    ``compile_report`` is the device compile a recompile ran, and
    ``lowered`` the writes a forward sent to the device, in submission
    order (one per submitted update, folded or not; empty on a recompile
    or without a target).  The record is the whole account of the
    decision: the engine keeps no per-decision history.
    """

    recompiled: bool
    changed: list
    affected_points: int
    redecided_points: int
    unchanged_points: int
    elapsed_ms: float
    # The one update went into an overapproximated table (a burst: False).
    overapproximated: bool = False
    compile_report: object = None
    lowered: tuple = ()  # LoweredUpdates, submission order
    update_count: int = 1  # updates as submitted
    coalesced_count: int = 1  # net updates after coalescing
    group_count: int = 1  # independent conflict groups
    groups: Optional[list] = None  # a burst's GroupDecisions, group order

    @property
    def forwarded(self) -> bool:
        """Sent to the device without recompilation."""
        return not self.recompiled

    def describe(self) -> str:
        action = "RECOMPILE" if self.recompiled else "forward"
        mode = " (overapprox)" if self.overapproximated else ""
        burst = ""
        if self.groups is not None:
            burst = (
                f"batch of {self.update_count} updates "
                f"({self.coalesced_count} after coalescing, "
                f"{self.group_count} conflict groups), "
            )
        return (
            f"{action}{mode}: {burst}points: {self.affected_points} tainted, "
            f"{self.redecided_points} re-decided, "
            f"{self.unchanged_points} unchanged term; "
            f"{len(self.changed)} changed, {self.elapsed_ms:.2f} ms"
        )


# ---------------------------------------------------------------------------
# Warm-run scratch state
# ---------------------------------------------------------------------------


class WarmState:
    """Per-run scratch shared by the warm passes via ``ctx.warm``."""

    __slots__ = (
        "update", "changed_vars", "assignments", "affected", "redecided",
        "unchanged", "changed", "recompiled", "compile_report", "lowered",
    )

    def __init__(self, update) -> None:
        self.update = update  # an Update or a ValueSetUpdate
        self.changed_vars: set = set()  # symbols re-assigned
        self.assignments: dict = {}  # table → TableAssignment
        self.affected = 0  # points tainted (visited)
        self.redecided = 0  # of those, decided afresh from a new term
        self.unchanged = 0  # of those, kept on the identical term
        self.changed: list = []  # pids / table names
        self.recompiled = False  # the program moved (see respecialize)
        self.compile_report = None
        self.lowered = ()  # the forwarded write, once lowered


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
    :mod:`repro.analysis.dataflow.prune`).  It runs at every effort but
    "none".  The type environment is rebuilt when the program changed so
    every downstream consumer sees one consistent AST.
    """

    name = "prune"
    stage = "cold"

    def run(self, ctx: EngineContext) -> None:
        from repro.analysis.dataflow.prune import prune_program

        if ctx.store_hit:
            return  # the adopted AST is already pruned
        if ctx.options.effort == "none":
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
        ctx.query_engine = QueryEngine(ctx.model, gate=ctx.gate)
        ctx.specializer = Specializer(
            ctx.program, ctx.model, ctx.env, effort=options.effort
        )
        ctx.term_factory = DEFAULT_FACTORY
        # One long-lived substitute-and-simplify pass whose memo survives
        # across updates: an update pushes a re-assigned control symbol up
        # the memoised DAG and rewrites only the entries whose children's
        # results moved, so warm updates touch O(delta) of each point's DAG
        # and the pulls after it are memo hits.  It shares the query
        # engine's simplify memo.
        ctx.substitution = DeltaSubstitution(
            {}, simplify_memo=ctx.query_engine.simplify_memo
        )
        if entry is not None:
            # Adopt the donor's term-pure warm rows.  Each is a pure
            # function of hash-consed terms, so adopters and donor can
            # interleave freely under serialized access.
            for row, _ in warm_state(ctx, SHARED):
                row.install(ctx, entry.shared[row.path])


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
    snapshot's warm rows are reinstalled (verdicts among them) —
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
        apply_snapshot(ctx, blob)
        ctx.restore_blob = None


class SpecializePass:
    """Verdicts → specialized program (initial or re-specialization)."""

    name = "specialize"
    stage = "cold"

    def run(self, ctx: EngineContext) -> None:
        ctx.specialized_program, ctx.report = ctx.specializer.specialize(
            ctx.point_verdicts, ctx.table_verdicts
        )


def _compile(ctx: EngineContext):
    """Compile the specialized program for the target; returns its report,
    which also replaces ``ctx.compile_report``."""
    ctx.compile_report = report = ctx.target.compile(ctx.specialized_program)
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
    """Apply the pending update to the control-plane state and re-encode.

    The update is checked before it commits (the entry's schema and match
    key), so a bad one leaves the state as it found it.  A value-set
    update re-encodes its set, a table update its table.  The pass opens
    the warm path, so it is where a due term collection runs.
    """

    name = "apply-updates"
    stage = "warm"

    def run(self, ctx: EngineContext) -> None:
        # The previous decision is done and this one has built nothing yet.
        ctx.term_factory.collect_if_due()
        warm = ctx.warm
        ((update, key),) = ctx.state.validate_updates((warm.update,))
        info = ctx.state.commit(update, key)
        if isinstance(update, ValueSetUpdate):
            mapping = encode_value_set(info, ctx.state.value_sets[info.name])
            ctx.mapping.update(mapping)
            warm.changed_vars |= ctx.substitution.set_many(mapping)
            return
        name = info.name
        assignment = encode_table(
            ctx.model.tables[name],
            ctx.state.tables[name],
            ctx.options.overapprox_threshold,
        )
        installed = ctx.table_assignments[name].mapping
        ctx.table_assignments[name] = assignment
        warm.assignments[name] = assignment
        if assignment.mapping is installed:
            # An overapproximated table's one `!any` mapping: every
            # assignment is already in place, so nothing changed.
            return
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


def respecialize(ctx: EngineContext, changed: list, tables) -> bool:
    """The recompile decision: whether the device program moved.

    ``changed`` names the verdicts the run moved and ``tables`` the
    tables it re-encoded.  When some verdict moved, or one of ``tables``
    crossed between precise and overapproximated, the program is
    respecialized and compared with the one last compiled.  Equality is
    frozen-dataclass ``==``, which short-circuits on the identical nodes
    the incremental specializer reuses, so it costs what the rebuild
    cost.  A different program replaces ``ctx.specialized_program`` and
    ``ctx.report`` and the caller recompiles it; an equal one leaves both
    the objects last compiled, so the printed source is what the device
    runs and the update is a forward.
    """
    specializer = ctx.specializer
    if not changed and not specializer.overapproximation_moved(
        ctx.table_verdicts, tables
    ):
        return False
    program, report = specializer.specialize(
        ctx.point_verdicts, ctx.table_verdicts, changed
    )
    if program == ctx.specialized_program:
        return False
    ctx.specialized_program, ctx.report = program, report
    return True


class RespecializePass:
    """The recompile decision, and the lowering that follows from it.

    Recompile exactly when the respecialized program differs from the one
    last compiled (:func:`respecialize`); otherwise push the update to
    the device as a forward — a forwarded update never reaches the device
    compiler, which is the paper's entire point.  A verdict can move
    without moving one printed statement (a value point whose constant
    feeds nothing the program keeps), and such an update forwards.
    """

    name = "respecialize"
    stage = "warm"

    def run(self, ctx: EngineContext) -> None:
        warm = ctx.warm
        target = ctx.target
        if respecialize(ctx, warm.changed, warm.assignments):
            warm.recompiled = True
            if target is not None:
                warm.compile_report = _compile(ctx)
            return
        if target is not None:
            warm.lowered = (target.lower_update(warm.update),)


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


def warm_passes() -> list:
    """The warm path of one update: points are reported before the table.

    A value-set update touches no table, so the table stage is a no-op
    for it.  A burst does not run these passes; it goes through
    :func:`repro.engine.batch.schedule_batch`.
    """
    return [
        ApplyUpdatesPass(),
        ReverdictPointsPass(),
        ReverdictTablesPass(),
        RespecializePass(),
    ]


__all__ = [
    "ApplyUpdatesPass",
    "AnalysisPass",
    "Decision",
    "EncodePass",
    "LowerPass",
    "ParsePass",
    "RespecializePass",
    "RestorePass",
    "ReverdictPointsPass",
    "ReverdictTablesPass",
    "SpecializePass",
    "TypeCheckPass",
    "WarmState",
    "cold_passes",
    "respecialize",
    "restore_passes",
    "warm_passes",
]
