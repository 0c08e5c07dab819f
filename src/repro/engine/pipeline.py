"""Concrete pipeline passes: the cold pipeline and the warm update path.

The cold pipeline (run once per program) is the declared sequence

    parse → typecheck → analyze → encode → specialize → lower

and the warm path (run per single control-plane update, table or value
set) is

    apply-updates → decide

where the second pass re-verdicts the points whose pulled term moved,
then the touched tables, and then either recompiles or lowers the
forwarded updates.  Both are plain :class:`~repro.engine.passes.Pass`
sequences over one :class:`~repro.engine.context.EngineContext`.  A burst
runs the same warm passes over its net updates, once the scheduler in
:mod:`repro.engine.batch` has coalesced and checked them; either way the
passes fill one :class:`Decision`, which is also their scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
    symbol whose assignment changed (0 is the normal forward).  Only the
    tainted points whose pulled term moved are visited; of the tainted
    points, ``redecided_points`` were decided afresh from a new term and
    ``unchanged_points`` kept the identical term, most of them without a
    visit.  Tainted points counted in neither are executability points
    that replayed a witness fingerprint (gate tier 2a) without pulling
    their term.

    ``changed`` lists the moved points, in pid order, before the moved
    tables.  A single update leaves the burst fields at their one-update
    values and ``burst`` False; a burst (a list or tuple input, whatever
    its length) sets them from the scheduler.

    ``compile_report`` is the device compile a recompile ran, and
    ``lowered`` the writes a forward sent to the device, in submission
    order (one per submitted update, folded or not; empty on a recompile
    or without a target).  The record is the whole account of the
    decision: the engine keeps no per-decision history.

    The warm passes fill the record as they run (it is ``ctx.warm``
    meanwhile); the fields after ``burst`` are their scratch, which
    :meth:`settle` clears before the engine returns the record.
    """

    recompiled: bool = False
    changed: list = None  # set by the point and table sweep
    affected_points: int = 0
    redecided_points: int = 0
    unchanged_points: int = 0
    elapsed_ms: float = 0.0
    # The one update went into an overapproximated table (a burst: False).
    overapproximated: bool = False
    compile_report: object = None
    lowered: tuple = ()  # LoweredUpdates, submission order
    update_count: int = 1  # updates as submitted
    coalesced_count: int = 1  # net updates after coalescing
    group_count: int = 1  # independent conflict groups
    burst: bool = False  # decided from a list or tuple of updates
    update: object = None  # an Update, a ValueSetUpdate or a burst's list
    ops: list = None  # a burst's checked net (update, key) pairs
    undo: list = None  # each committed pair with what it replaced
    changed_vars: object = ()  # the symbols set_many re-assigned
    assignments: dict = None  # table → its re-encoded TableAssignment

    @property
    def forwarded(self) -> bool:
        """Sent to the device without recompilation."""
        return not self.recompiled

    def settle(self, elapsed_ms: float) -> None:
        """Stamp the wall time and drop the passes' scratch."""
        self.elapsed_ms = elapsed_ms
        self.update = self.ops = self.undo = self.changed_vars = self.assignments = None

    def describe(self) -> str:
        action = "RECOMPILE" if self.recompiled else "forward"
        mode = " (overapprox)" if self.overapproximated else ""
        burst = ""
        if self.burst:
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
    AST and type environment instead of re-parsing.
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
    """A pass that does nothing and that neither pass list holds; kept
    because the end-to-end benchmark's tracer wraps ``PrunePass.run``.

    A branch dead under every control-plane configuration is a DEAD point
    of the analysis, and the specializer drops it.
    """

    def run(self, ctx: EngineContext) -> None:
        pass


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
        substitution = ctx.substitution
        if entry is not None:
            initial = entry.initial
            ctx.mapping.update(initial["mapping"])
            ctx.table_assignments.update(initial["table_assignments"])
            ctx.point_verdicts.update(initial["point_verdicts"])
            ctx.table_verdicts.update(initial["table_verdicts"])
            substitution.set_many(ctx.mapping)
            substitution.moved.clear()
            # No root was pulled: a push cannot reach one, so every point
            # waits for the first sweep its symbols taint.
            ctx.query_engine.pend_unpulled(substitution)
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
        substitution.set_many(ctx.mapping)
        for pid, point in ctx.model.points.items():
            ctx.point_verdicts[pid] = ctx.query_engine.point_verdict(point, substitution)
        substitution.moved.clear()  # every root was pulled after the push


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


class LowerPass:
    """Hand the initial specialized program to the target backend."""

    name = "lower"
    stage = "cold"

    def run(self, ctx: EngineContext) -> None:
        if ctx.target is not None:
            ctx.compile_report = ctx.target.compile(ctx.specialized_program)


# ---------------------------------------------------------------------------
# Warm passes
# ---------------------------------------------------------------------------


class ApplyUpdatesPass:
    """Commit the pending updates to the control-plane state and re-encode.

    A single update is checked here (the entry's schema and match key); a
    burst's net updates arrive checked, as ``ctx.warm.ops``.  Nothing
    commits before the check passes, so a bad update leaves the state as
    it found it.  The pass opens the warm path, so it is where a due term
    collection runs.
    """

    name = "apply-updates"
    stage = "warm"

    def run(self, ctx: EngineContext) -> None:
        # The previous decision is done and this one has built nothing yet.
        ctx.term_factory.collect_if_due()
        record = ctx.warm
        update = record.update
        if isinstance(update, list):
            commit_updates(ctx, record, record.ops)
        else:
            commit_updates(ctx, record, [(update, ctx.state.check(update))])


def commit_updates(ctx: EngineContext, record: Decision, ops) -> None:
    """Commit checked ``(update, key)`` pairs in order, each recorded on
    ``record.undo`` with what it replaced (for :func:`roll_back`); then
    encode every touched table and value set once and push the new
    assignments with one ``set_many``.

    An overapproximated table's re-encoding is the one ``!any`` mapping
    already installed, so it pushes nothing, and the table drops its
    cached active list, which the encoder never reads
    (:meth:`~repro.runtime.semantics.TableState.defer_active`): its later
    inserts splice nothing.
    """
    state = ctx.state
    record.undo = undo = []
    record.assignments = assignments = {}
    value_sets: dict = {}
    for update, key in ops:
        info, prior = state.commit(update, key)
        undo.append((update, key, prior))
        if isinstance(update, ValueSetUpdate):
            value_sets[info.name] = info
        else:
            assignments[info.name] = None
    mapping: dict = {}
    for name, info in value_sets.items():
        mapping.update(encode_value_set(info, state.value_sets[name]))
    threshold = ctx.options.overapprox_threshold
    for name in assignments:
        table = state.tables[name]
        assignment = encode_table(ctx.model.tables[name], table, threshold)
        installed = ctx.table_assignments[name].mapping
        ctx.table_assignments[name] = assignments[name] = assignment
        if assignment.mapping is not installed:
            mapping.update(assignment.mapping)
        if assignment.overapproximated:
            table.defer_active()
            record.overapproximated = not record.burst
    if mapping:
        ctx.mapping.update(mapping)
        record.changed_vars = ctx.substitution.set_many(mapping)


def reverdict(ctx: EngineContext) -> None:
    """Re-verdict what the applied updates moved, into ``ctx.warm``: the
    program points whose pulled term moved (and the pending points a
    changed symbol taints), then every re-encoded table.

    The substitution's moved nodes are emptied only once the points'
    verdicts are installed, so a sweep that raises leaves them for the
    next one (:func:`roll_back`'s).  An update into an overapproximated
    table, whose ``!any`` assignment is the identical interned term
    before and after, moves no term and visits no point.  A table's
    structural verdict is recomputed whether or not its symbols changed
    (its ``entry_count`` moves with every insert and delete).  Points are
    reported before tables.
    """
    record = ctx.warm
    query_engine = ctx.query_engine
    sweep = query_engine.reverdict_points(
        record.changed_vars, ctx.substitution, ctx.point_verdicts
    )
    ctx.substitution.moved.clear()
    record.changed, record.affected_points, record.redecided_points, record.unchanged_points = sweep
    if record.assignments:
        record.changed += query_engine.reverdict_tables(
            record.assignments, ctx.state, ctx.table_verdicts
        )


class ReverdictPointsPass:
    """No pass list holds this; :func:`reverdict` is the step.

    It stays only because ``benchmarks/e2e/harness/tracing.py``
    ``WRAP_POINTS`` names ``ReverdictPointsPass.run``; ROADMAP item 20(b)
    deletes it with the other names that list keeps alive.
    """

    def run(self, ctx: EngineContext) -> None:
        """Inert (see the class docstring)."""


class ReverdictTablesPass:
    """No pass list holds this; :func:`reverdict` is the step.

    It stays only because ``benchmarks/e2e/harness/tracing.py``
    ``WRAP_POINTS`` names ``ReverdictTablesPass.run``; ROADMAP item 20(b)
    deletes it with the other names that list keeps alive.
    """

    def run(self, ctx: EngineContext) -> None:
        """Inert (see the class docstring)."""


def respecialize(ctx: EngineContext, changed: list, tables):
    """The recompile decision: the program to compile, or None to forward.

    ``changed`` names the verdicts the run moved and ``tables`` the
    tables it re-encoded.  When some verdict moved, one of ``tables``
    crossed between precise and overapproximated, or a failed decision
    reset the specializer, the program is respecialized and compared
    with the one last compiled.  Equality is frozen-dataclass ``==``,
    which short-circuits on the identical nodes the incremental
    specializer reuses, so it costs what the rebuild cost.  A different
    program is returned with its report, and :func:`install` makes it the
    engine's once the target compiled it; an equal one leaves
    ``ctx.specialized_program`` the object last compiled, so the printed
    source is what the device runs and the update is a forward.
    """
    specializer = ctx.specializer
    if (
        not changed
        and specializer.built
        and not specializer.overapproximation_moved(ctx.table_verdicts, tables)
    ):
        return None
    program, report = specializer.specialize(
        ctx.point_verdicts, ctx.table_verdicts, changed
    )
    if program == ctx.specialized_program:
        return None
    return program, report


def install(ctx: EngineContext, program, report):
    """Compile ``program`` for the target, then make it and ``report`` the
    engine's; returns the compile report (None without a target).

    A compile that raises installs nothing: ``ctx.specialized_program``
    stays the program the device runs, and the failed decision's reset of
    the specializer makes the next decision compare a fresh
    specialization with it (:func:`respecialize`).
    """
    compile_report = None
    if ctx.target is not None:
        ctx.compile_report = compile_report = ctx.target.compile(program)
    ctx.specialized_program, ctx.report = program, report
    return compile_report


class RespecializePass:
    """The decision: :func:`reverdict`, then recompile or lower.

    Recompile exactly when the respecialized program differs from the one
    last compiled (:func:`respecialize`); otherwise push the update (every
    update a burst submitted, in submission order) to the device as a
    forward — a forwarded update never reaches the device
    compiler, which is the paper's entire point.  A verdict can move
    without moving one printed statement (a value point whose constant
    feeds nothing the program keeps), and such an update forwards.
    """

    name = "decide"
    stage = "warm"

    def run(self, ctx: EngineContext) -> None:
        reverdict(ctx)
        record = ctx.warm
        target = ctx.target
        moved = respecialize(ctx, record.changed, record.assignments)
        if moved is not None:
            record.compile_report = install(ctx, *moved)
            record.recompiled = True
            return
        if target is not None:
            update = record.update
            if isinstance(update, list):
                record.lowered = tuple(target.lower_batch(update))
            else:
                record.lowered = (target.lower_update(update),)


def roll_back(ctx: EngineContext, record: Decision) -> None:
    """Undo the commits of a decision that failed part-way.

    The inverses on ``warm.undo`` commit in reverse order — an insert's
    delete, a delete's re-insert of the old entry, a modify's old entry,
    a value set's old values — and the touched tables and value sets are
    re-encoded and re-verdicted as a warm run would, with no
    respecialize and no lowering.  The control plane then holds what the
    device holds, and the verdicts are its own; the caller's specializer
    reset makes the next decision respecialize.  A re-inserted entry goes
    to the end of its table's insertion order, and the caches the failed
    run filled stay filled.
    """
    undo = record.undo
    if not undo:
        return
    inverse = ctx.state.inverse
    ctx.warm = rewind = Decision()
    commit_updates(ctx, rewind, [inverse(*done) for done in reversed(undo)])
    reverdict(ctx)


# ---------------------------------------------------------------------------
# Declared sequences
# ---------------------------------------------------------------------------


def cold_passes() -> list:
    """The cold pipeline, in order."""
    return [
        ParsePass(),
        TypeCheckPass(),
        AnalysisPass(),
        EncodePass(),
        SpecializePass(),
        LowerPass(),
    ]


def restore_passes() -> list:
    """The snapshot-restore pipeline: cold front half, then warm reinstall.

    Parse/typecheck/analysis re-derive the program-pure artifacts
    (or adopt them from a shared store); :class:`RestorePass` replaces
    the encode sweep with the snapshot's warm state.
    """
    return [
        ParsePass(),
        TypeCheckPass(),
        AnalysisPass(),
        RestorePass(),
        SpecializePass(),
        LowerPass(),
    ]


def warm_passes() -> list:
    """The warm path: apply the updates, then decide.

    A single update runs it as it is; a burst runs it over its net
    updates once :func:`repro.engine.batch.schedule_batch` has coalesced
    and checked them.  A value-set update touches no table, so the table
    half of :func:`reverdict` is a no-op for it.
    """
    return [ApplyUpdatesPass(), RespecializePass()]


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
    "cold_passes",
    "install",
    "respecialize",
    "restore_passes",
    "reverdict",
    "roll_back",
    "warm_passes",
]
