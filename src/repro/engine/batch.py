"""The burst scheduler: the warm path for a list of updates.

Real control planes deliver updates in *bursts* — route flaps, table
rollouts.  :meth:`~repro.engine.engine.Engine.decide` hands a list or
tuple of updates to :func:`schedule_batch`, which decides the burst as
one unit, on the calling thread:

1. **Coalesce** — redundant updates are folded per ``(table, match key)``:
   insert-then-delete cancels, modify-after-insert collapses into the
   insert, repeated modifies keep the last write.  Value-set updates are
   last-write-wins per set.  Coalescing never reorders the surviving
   updates relative to each other (each keeps the input index of the
   operation that anchors it), so replaying the coalesced stream produces
   the exact same control-plane state — including the insertion order an
   exact-match table's precedence depends on.
2. **Partition** — the survivors are split into *conflict groups*: two
   updates share a group iff their tables (or value sets) can influence a
   common program point (the model's control-variable taint index).
   Groups are independent by construction: no program point, control
   symbol, or memo entry is touched by two groups.
3. **Execute** — the groups run one after the other, in group order.
   Each runs against a private :class:`WorkerSlice` over the shared
   :class:`EngineContext`: a copy-on-write view of the delta-substitution
   memo plus layered verdict/solver caches, so a group writes only its
   slice.  Building a slice copies nothing: its solver is a plain
   :class:`~repro.smt.solver.Solver` whose result memo is layered over
   the shared one (the solver keeps no other state between queries).
   The hash-consing term factory is shared, which keeps term identity —
   and therefore every downstream memo key — consistent across slices.
4. **Merge** — the slices' cache overlays are grafted into the shared
   context in group order (first-seen input index), and verdict changes
   are collected.  A double-counting tripwire checks that per-slice
   solver/gate stat deltas sum exactly to the merged delta.

The burst respecializes at most once.  Verdicts and the specialized
program are pure functions of the final control-plane state, and
forwarded updates are lowered in their original input order — not per
group — so the device sees the exact stream a sequential warm path would
have sent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.engine.context import EngineContext
from repro.engine.gate import GateStats
from repro.engine.pipeline import Decision, _compile, respecialize
from repro.engine.queries import PointReverdicts, QueryEngine
from repro.runtime.entries import EntryError
from repro.runtime.semantics import (
    DELETE,
    INSERT,
    MODIFY,
    Update,
    ValueSetUpdate,
    encode_table,
    encode_value_set,
)
from repro.smt.solver import Solver, SolverStats


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoalescedOp:
    """One net update surviving coalescing.

    ``anchor`` is the input index that fixes this op's position in the
    coalesced order (for inserts, the index of the insert that determines
    the entry's precedence position); ``sources`` are the input indices of
    every original update folded into it.  ``key`` is the entry's match
    key (``None`` for a value-set update), computed once, by the fold.
    """

    update: object  # Update | ValueSetUpdate
    anchor: int
    sources: tuple
    key: object = None


@dataclass
class CoalesceResult:
    ops: list  # CoalescedOps, sorted by anchor
    input_count: int
    # Every input update with its match key (None for a value set), in
    # input order — the folded-away ones included.
    keyed: list = field(default_factory=list)

    @property
    def output_count(self) -> int:
        return len(self.ops)

    @property
    def folded_count(self) -> int:
        """Input updates that no longer appear as their own net op."""
        return self.input_count - len(self.ops)


class _Slot:
    """Per-(table, key) fold state: at most one net delete + one upsert."""

    __slots__ = ("live", "ever_touched", "delete", "upsert")

    def __init__(self) -> None:
        self.live: Optional[bool] = None  # None until the first op
        self.ever_touched = False
        self.delete = None  # (anchor, entry, sources)
        self.upsert = None  # (op, anchor, entry, sources)


def coalesce(
    updates: list,
    resolve_table: Optional[Callable[[str], str]] = None,
    resolve_value_set: Optional[Callable[[str], str]] = None,
) -> CoalesceResult:
    """Fold a burst into its net updates (see the module docstring).

    Within-batch-inconsistent sequences (insert of a live key, modify or
    delete of a key the batch already deleted) raise :class:`EntryError`
    up front — exactly the sequences sequential application would reject —
    before any state is touched.  Validity that depends on pre-batch state
    (e.g. the first delete of a key) or on an entry's schema is the
    caller's half of all-or-nothing: :func:`schedule_batch` runs every
    input update, with the match keys computed here, through
    ``ControlPlaneState.check`` before it commits the first net op.  The
    updates the fold drops — an insert and its delete, an overwritten
    modify — are checked too, so a burst fails exactly when sequential
    application would.
    """
    table_of = resolve_table if resolve_table is not None else lambda name: name
    vs_of = resolve_value_set if resolve_value_set is not None else lambda name: name
    slots: dict[tuple, _Slot] = {}
    value_sets: dict[str, list] = {}  # name -> [anchor, values, sources]
    keyed: list = []
    for index, update in enumerate(updates):
        if isinstance(update, ValueSetUpdate):
            keyed.append((update, None))
            name = vs_of(update.value_set)
            slot = value_sets.get(name)
            if slot is None:
                value_sets[name] = [index, update.values, [index]]
            else:
                slot[1] = update.values  # last write wins
                slot[2].append(index)
            continue
        table = table_of(update.table)
        key = (table, update.entry.match_key())
        keyed.append((update, key[1]))
        slot = slots.setdefault(key, _Slot())
        if update.op == INSERT:
            if slot.live:
                raise EntryError(
                    f"batch inserts {table} key {key[1]} twice without a delete"
                )
            slot.live = True
            slot.upsert = (INSERT, index, update.entry, [index])
        elif update.op == MODIFY:
            if slot.live is False or (slot.live is None and slot.ever_touched):
                raise EntryError(
                    f"batch modifies {table} key {key[1]} after deleting it"
                )
            if slot.upsert is not None:
                op, anchor, _, sources = slot.upsert
                slot.upsert = (op, anchor, update.entry, sources + [index])
            else:
                slot.upsert = (MODIFY, index, update.entry, [index])
            slot.live = True
        elif update.op == DELETE:
            if slot.live is False:
                raise EntryError(
                    f"batch deletes {table} key {key[1]} twice"
                )
            if slot.upsert is not None and slot.upsert[0] == INSERT:
                # insert-then-delete: the pair vanishes entirely.
                slot.upsert = None
            else:
                if slot.upsert is not None:  # a net modify, now deleted
                    slot.upsert = None
                slot.delete = (index, update.entry, [index])
            slot.live = False
        else:
            raise EntryError(f"unknown update op {update.op!r}")
        slot.ever_touched = True

    ops: list[CoalescedOp] = []
    for (table, key), slot in slots.items():
        if slot.delete is not None:
            anchor, entry, sources = slot.delete
            ops.append(
                CoalescedOp(Update(table, DELETE, entry), anchor, tuple(sources), key)
            )
        if slot.upsert is not None:
            op, anchor, entry, sources = slot.upsert
            ops.append(
                CoalescedOp(Update(table, op, entry), anchor, tuple(sources), key)
            )
    for name, (anchor, values, sources) in value_sets.items():
        ops.append(
            CoalescedOp(ValueSetUpdate(name, tuple(values)), anchor, tuple(sources))
        )
    ops.sort(key=lambda op: op.anchor)
    return CoalesceResult(ops=ops, input_count=len(updates), keyed=keyed)


# ---------------------------------------------------------------------------
# Conflict partitioning
# ---------------------------------------------------------------------------


def conflict_components(model) -> dict[str, str]:
    """Map every table and value set to its conflict-component root.

    Two entities land in the same component when they can taint a common
    program point.  That criterion is semantically complete: symbolic
    execution records *every* control symbol occurring in a point's
    expression, so a table whose entries can influence another table's
    verdict (e.g. by writing a field the other matches on) shares a
    tainted point with it — and any substituted subterm mixing two
    tables' control symbols lives under a point tainted by both, which is
    what makes the per-group memo grafts conflict-free.  Merging along
    the :mod:`repro.ir.deps` match/action edges as well only coarsens
    the partition (on scion, 28 components become one).
    """
    parent: dict[str, str] = {}

    def find(name: str) -> str:
        root = name
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:
            parent[name], name = root, parent[name]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    infos = list(model.tables.items()) + list(model.value_sets.items())
    for name, _info in infos:
        parent[name] = name
    owner_by_pid: dict[str, str] = {}
    for name, info in infos:
        for var in info.control_var_names():
            for pid in model.taint.get(var, ()):
                owner = owner_by_pid.setdefault(pid, name)
                if owner != name:
                    union(owner, name)
    return {name: find(name) for name, _info in infos}


@dataclass
class ConflictGroup:
    """One independent unit of warm-path work."""

    index: int
    ops: list  # CoalescedOps, anchor order
    tables: list = field(default_factory=list)  # sorted touched table names
    value_sets: list = field(default_factory=list)

    @property
    def anchor(self) -> int:
        return self.ops[0].anchor if self.ops else 0

    @property
    def source_count(self) -> int:
        return sum(len(op.sources) for op in self.ops)


def partition(ctx: EngineContext, coalesced: CoalesceResult) -> list:
    """Split net updates into conflict groups, ordered by first input index."""
    components = ctx.batch_components
    if components is None:
        components = conflict_components(ctx.model)
        ctx.batch_components = components
    buckets: dict[str, list] = {}
    order: list[str] = []
    for op in coalesced.ops:
        if isinstance(op.update, ValueSetUpdate):
            name = ctx.model.value_set(op.update.value_set).name
        else:
            name = ctx.model.table(op.update.table).name
        root = components[name]
        if root not in buckets:
            buckets[root] = []
            order.append(root)
        buckets[root].append(op)
    groups: list[ConflictGroup] = []
    for index, root in enumerate(order):
        group = ConflictGroup(index=index, ops=buckets[root])
        tables: set = set()
        value_sets: set = set()
        for op in group.ops:
            if isinstance(op.update, ValueSetUpdate):
                value_sets.add(ctx.model.value_set(op.update.value_set).name)
            else:
                tables.add(ctx.model.table(op.update.table).name)
        group.tables = sorted(tables)
        group.value_sets = sorted(value_sets)
        groups.append(group)
    return groups


# ---------------------------------------------------------------------------
# Slices — layered caches over the shared context
# ---------------------------------------------------------------------------


class LayeredCache:
    """Read-through overlay on a term-keyed cache dict; writes stay local."""

    def __init__(self, base: dict) -> None:
        self.base = base
        self.delta: dict = {}

    def get(self, key, default=None):
        found = self.delta.get(key)
        if found is not None:
            return found
        return self.base.get(key, default)

    def __getitem__(self, key):
        found = self.get(key)
        if found is None:
            raise KeyError(key)
        return found

    def __setitem__(self, key, value) -> None:
        self.delta[key] = value

    def __contains__(self, key) -> bool:
        return key in self.delta or key in self.base

    def __len__(self) -> int:
        return len(self.base) + len(self.delta)

    def clear(self) -> None:
        """Drop the overlay only (the shared base is not this view's)."""
        self.delta.clear()


class LayeredMemo:
    """Read-through overlay on an ``id()``-keyed memo (simplify memos)."""

    def __init__(self, base: dict) -> None:
        self.base = base
        self.delta: dict = {}

    def __contains__(self, key) -> bool:
        return key in self.delta or key in self.base

    def __getitem__(self, key):
        found = self.delta.get(key)
        if found is not None:
            return found
        return self.base[key]

    def get(self, key, default=None):
        found = self.delta.get(key)
        if found is not None:
            return found
        return self.base.get(key, default)

    def __setitem__(self, key, value) -> None:
        if key not in self.base:
            self.delta[key] = value

    def clear(self) -> None:
        """Drop the overlay only (the shared base is not this view's)."""
        self.delta.clear()


class WorkerSlice:
    """One conflict group's view of the shared engine state.

    The slice owns everything a conflict group's warm work writes: a
    copy-on-write substitution view and a private query engine and
    solver whose executability/result/simplify caches are layered over
    the shared ones.  The immutable inputs — the data-plane model,
    the control-plane state of *this group's* tables, and the hash-consed
    term factory — are shared.
    """

    def __init__(self, ctx: EngineContext) -> None:
        shared_qe = ctx.query_engine
        # One simplify-memo overlay for the slice's substitution view and
        # its query engine, as the shared ones share one memo.
        simplify_memo = LayeredMemo(shared_qe._simplify_memo)
        self.substitution = ctx.substitution.fork_slice(simplify_memo)
        shared_solver = shared_qe.solver
        solver = Solver(
            use_interval_precheck=shared_solver.use_interval_precheck,
            max_conflicts=shared_solver.max_conflicts,
        )
        solver._results = LayeredCache(shared_solver._results)
        # The verdict gate forks too: shared FDDs (read-only during group
        # execution — all state mutation happened up front), overlaid
        # witness records, private counters.
        self.query_engine = QueryEngine(
            ctx.model,
            solver=solver,
            solver_node_budget=shared_qe.solver_node_budget,
            gate=shared_qe.gate.fork_slice(),
        )
        self.query_engine._exec_cache = LayeredCache(shared_qe._exec_cache)
        self.query_engine._simplify_memo = simplify_memo
        # Tree sizes are pure, so the slice writes the shared memo directly
        # (two slices can only ever store the same size for a term).
        self.query_engine._tree_sizes = shared_qe._tree_sizes
        # So are overapproximated verdicts, one per table (and conflict
        # groups partition the tables).
        self.query_engine._overapproximated = shared_qe._overapproximated
        # Conflict groups partition the points, so no two slices decide
        # the same pid.
        self.query_engine._decided = LayeredCache(shared_qe._decided)
        # The table-verdict memo layers like the exec cache: shared hits
        # are free, slice misses land in the overlay and graft back on
        # merge.  ``_values_memo`` stays slice-private (it may memoize
        # ``None`` for unbounded selectors, which the layered views treat
        # as absent; recomputing per slice is cheap and id-safe).
        self.query_engine._table_verdict_memo = LayeredCache(
            shared_qe._table_verdict_memo
        )

    def merge_into(self, ctx: EngineContext) -> None:
        """Fold this slice's cache deltas into the shared context.

        Runs after every group has run.
        """
        ctx.substitution.absorb(self.substitution)
        shared_qe = ctx.query_engine
        qe = self.query_engine
        shared_qe._decided.update(qe._decided.delta)
        shared_qe.redecided += qe.redecided
        shared_qe.unchanged += qe.unchanged
        shared_qe._exec_cache.update(qe._exec_cache.delta)
        shared_qe._simplify_memo.update(qe._simplify_memo.delta)
        shared_qe._table_verdict_memo.update(qe._table_verdict_memo.delta)
        shared_qe.solver._results.update(qe.solver._results.delta)
        shared_qe.exec_counter.hit(qe.exec_counter.hits)
        shared_qe.exec_counter.miss(qe.exec_counter.misses)
        shared_qe.table_verdict_counter.hit(qe.table_verdict_counter.hits)
        shared_qe.table_verdict_counter.miss(qe.table_verdict_counter.misses)
        shared = shared_qe.solver
        shared.cache_counter.hit(qe.solver.cache_counter.hits)
        shared.cache_counter.miss(qe.solver.cache_counter.misses)
        # Query stats and search stats fold back.
        shared.stats.absorb(qe.solver.stats)
        # Gate tier counters and witness-record deltas fold back the same
        # way; anchor-order iteration keeps the merge deterministic.
        shared_qe.gate.absorb_fork(qe.gate)


# ---------------------------------------------------------------------------
# Group execution
# ---------------------------------------------------------------------------


@dataclass
class GroupOutcome:
    """Everything one group's run computed, in its slice."""

    group: ConflictGroup
    slice: WorkerSlice
    mapping: dict
    assignments: dict
    points: PointReverdicts  # every tainted point, changed or not
    table_verdicts: dict
    changed_tables: list

    @property
    def changed(self) -> list:
        """Batch order: tables before points (the historical format)."""
        return self.changed_tables + self.points.changed


def run_group(ctx: EngineContext, group: ConflictGroup, piece: WorkerSlice) -> GroupOutcome:
    """The warm path of one conflict group, against its slice.

    The control-plane state was already mutated up front; this function
    only *reads* shared state (its own group's tables) and
    writes the slice.  Like the sequential warm path it re-queries only
    the points tainted by a symbol the slice's ``set_many`` found
    re-assigned.
    """
    model = ctx.model
    mapping: dict = {}
    assignments: dict = {}
    for op in group.ops:  # anchor order: later value-set writes win
        if isinstance(op.update, ValueSetUpdate):
            info = model.value_set(op.update.value_set)
            mapping.update(
                encode_value_set(info, ctx.state.value_sets[info.name])
            )
    for name in group.tables:
        assignment = encode_table(
            model.tables[name], ctx.state.tables[name], ctx.options.overapprox_threshold
        )
        assignments[name] = assignment
        # An overapproximated table's one `!any` mapping is installed already.
        if assignment.mapping is not ctx.table_assignments[name].mapping:
            mapping.update(assignment.mapping)
    changed_vars = piece.substitution.set_many(mapping)
    points = piece.query_engine.reverdict_points(
        changed_vars, piece.substitution, ctx.point_verdicts
    )
    table_verdicts, changed_tables = piece.query_engine.reverdict_tables(
        assignments, ctx.state, ctx.table_verdicts
    )
    return GroupOutcome(
        group=group,
        slice=piece,
        mapping=mapping,
        assignments=assignments,
        points=points,
        table_verdicts=table_verdicts,
        changed_tables=changed_tables,
    )


# ---------------------------------------------------------------------------
# Merge accounting
# ---------------------------------------------------------------------------


def _verify_merge_accounting(
    merged_solver: SolverStats,
    slice_solver: SolverStats,
    merged_gate: GateStats,
    slice_gate: GateStats,
) -> None:
    """The merge's double-counting tripwire, run on every burst.

    Each slice's solver/gate stats start at zero when it forks and are
    absorbed into the shared objects exactly once during the merge, so
    the shared delta across the merge must equal the sum of the
    per-slice deltas — field for field.  A mismatch means a merge path
    absorbed some slice twice (or dropped one) and is a bug.
    """
    for name in ("by_simplify", "by_interval", "by_sat", "by_cache", "probes"):
        merged = getattr(merged_solver, name)
        summed = getattr(slice_solver, name)
        if merged != summed:
            raise AssertionError(
                f"batch merge miscounted SolverStats.{name}: per-slice "
                f"deltas sum to {summed}, merged delta is {merged}"
            )
    if merged_solver.search != slice_solver.search:
        raise AssertionError(
            "batch merge miscounted SAT search stats: per-slice deltas sum "
            f"to {slice_solver.search}, merged delta is {merged_solver.search}"
        )
    if merged_gate != slice_gate:
        raise AssertionError(
            "batch merge miscounted GateStats: per-slice deltas sum to "
            f"{slice_gate}, merged delta is {merged_gate}"
        )


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------


@dataclass
class GroupDecision:
    """Per-group outcome recorded on a burst's :class:`Decision`."""

    index: int
    tables: tuple
    value_sets: tuple
    net_updates: int  # coalesced ops executed
    source_updates: int  # original updates folded into them
    affected_points: int  # points tainted (see Decision)
    changed: list
    redecided_points: int = 0
    unchanged_points: int = 0


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


def schedule_batch(ctx: EngineContext, updates: list) -> Decision:
    """Coalesce, partition, execute, and merge one burst of updates.

    The groups run one after the other on the calling thread, each
    through :func:`run_group` against its own slice.
    """
    start = time.perf_counter()
    # Between decisions: the one point of a burst where a term collection
    # may run.
    ctx.term_factory.collect_if_due()
    model = ctx.model
    coalesced = coalesce(
        updates,
        resolve_table=lambda name: model.table(name).name,
        resolve_value_set=lambda name: model.value_set(name).name,
    )
    groups = partition(ctx, coalesced)

    # State mutation happens up front, in anchor order — a group then
    # only reads its own tables.  Every input update, folded or not, is
    # checked against the pre-batch state first, so a bad one leaves no
    # trace; a valid input stream makes its net ops valid.
    ctx.state.check(coalesced.keyed)
    for op in coalesced.ops:
        ctx.state.commit(op.update, op.key)

    outcomes = [run_group(ctx, group, WorkerSlice(ctx)) for group in groups]

    # Merge, in deterministic group order.
    shared_solver = ctx.query_engine.solver
    shared_gate = ctx.query_engine.gate
    solver_before = shared_solver.stats.snapshot()
    gate_before = shared_gate.stats.snapshot()
    slice_solver = SolverStats()
    slice_gate = GateStats()
    changed: list = []
    tables: list = []  # every re-encoded table
    affected_points = redecided_points = unchanged_points = 0
    group_decisions: list = []
    for outcome in outcomes:
        # A slice's solver and gate stats start at zero when it forks.
        slice_qe = outcome.slice.query_engine
        slice_solver.absorb(slice_qe.solver.stats)
        slice_gate.absorb(slice_qe.gate.stats)
        ctx.mapping.update(outcome.mapping)
        ctx.table_assignments.update(outcome.assignments)
        tables.extend(outcome.assignments)
        outcome.slice.merge_into(ctx)
        points = outcome.points
        ctx.point_verdicts.update(points.verdicts)
        ctx.table_verdicts.update(outcome.table_verdicts)
        changed.extend(outcome.changed)
        affected_points += len(points.verdicts)  # groups partition points
        redecided_points += points.redecided
        unchanged_points += points.unchanged
        group_decisions.append(
            GroupDecision(
                index=outcome.group.index,
                tables=tuple(outcome.group.tables),
                value_sets=tuple(outcome.group.value_sets),
                net_updates=len(outcome.group.ops),
                source_updates=outcome.group.source_count,
                affected_points=len(points.verdicts),
                changed=outcome.changed,
                redecided_points=points.redecided,
                unchanged_points=points.unchanged,
            )
        )
    merged_solver = shared_solver.stats.since(solver_before)
    merged_gate = shared_gate.stats.since(gate_before)
    _verify_merge_accounting(merged_solver, slice_solver, merged_gate, slice_gate)

    recompiled = respecialize(ctx, changed, tables)
    compile_report = None
    if recompiled and ctx.target is not None:
        compile_report = _compile(ctx)

    return Decision(
        recompiled,
        changed,
        affected_points,
        redecided_points,
        unchanged_points,
        (time.perf_counter() - start) * 1000,
        compile_report=compile_report,
        update_count=len(updates),
        coalesced_count=coalesced.output_count,
        group_count=len(groups),
        groups=group_decisions,
    )


__all__ = [
    "CoalesceResult",
    "CoalescedOp",
    "ConflictGroup",
    "GroupDecision",
    "GroupOutcome",
    "LayeredCache",
    "LayeredMemo",
    "WorkerSlice",
    "coalesce",
    "conflict_components",
    "partition",
    "run_group",
    "schedule_batch",
]
