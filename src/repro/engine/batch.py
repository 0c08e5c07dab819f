"""Batched, dependency-aware parallel update processing (the warm path at burst scale).

Real control planes deliver updates in *bursts* — route flaps, table
rollouts — and the per-update warm path serializes them even when they
touch independent tables.  This module is the burst scheduler:

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
   common program point (the model's control-variable taint index), or are
   linked in the :mod:`repro.ir.deps` table dependency graph.  Groups are
   independent by construction: no program point, control symbol, or memo
   entry is touched by two groups.
3. **Execute** — with one worker or one group the groups run inline on
   the calling thread; otherwise they run on a :mod:`concurrent.futures`
   thread pool.  Either way each group gets a private
   :class:`WorkerSlice` over the shared :class:`EngineContext`: a
   copy-on-write view of the delta-substitution memo plus layered
   verdict/solver caches, so nothing shared is written while siblings
   read.  Building a slice copies nothing: its solver is a plain
   :class:`~repro.smt.solver.Solver` whose result memo is layered over
   the shared one (the solver keeps no other state between queries).
   The hash-consing term factory *is* shared (its interning is a
   single atomic dict operation), which keeps term identity — and
   therefore every downstream memo key — consistent across workers.
4. **Merge** — after the pool joins, the slices' cache overlays are
   grafted into the shared context on the main thread, in deterministic
   group order (first-seen input index), and verdict changes are
   collected.  A double-counting tripwire checks that per-worker
   solver/gate stat deltas sum exactly to the merged delta.

Results are deterministic and byte-identical to sequential processing
across all worker counts: verdicts and the specialized program are pure
functions of the final control-plane state, and forwarded updates are
lowered in their original input order — not per-group — so the device
sees the exact stream a sequential warm path would have sent.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.engine.context import EngineContext
from repro.engine.events import BatchMerged, BatchScheduled, TargetCompiled
from repro.engine.gate import GateStats
from repro.engine.pipeline import describe_points
from repro.engine.queries import PointReverdicts, QueryEngine
from repro.ir.deps import build_dependency_graph
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
    every original update folded into it.
    """

    update: object  # Update | ValueSetUpdate
    anchor: int
    sources: tuple


@dataclass
class CoalesceResult:
    ops: list  # CoalescedOps, sorted by anchor
    input_count: int

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
    (e.g. the first delete of a key) is the caller's half of
    all-or-nothing: :func:`schedule_batch` runs the net ops through
    ``ControlPlaneState.validate_updates`` before it applies the first.
    """
    table_of = resolve_table if resolve_table is not None else lambda name: name
    vs_of = resolve_value_set if resolve_value_set is not None else lambda name: name
    slots: dict[tuple, _Slot] = {}
    value_sets: dict[str, list] = {}  # name -> [anchor, values, sources]
    for index, update in enumerate(updates):
        if isinstance(update, ValueSetUpdate):
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
    for (table, _key), slot in slots.items():
        if slot.delete is not None:
            anchor, entry, sources = slot.delete
            ops.append(
                CoalescedOp(Update(table, DELETE, entry), anchor, tuple(sources))
            )
        if slot.upsert is not None:
            op, anchor, entry, sources = slot.upsert
            ops.append(
                CoalescedOp(Update(table, op, entry), anchor, tuple(sources))
            )
    for name, (anchor, values, sources) in value_sets.items():
        ops.append(
            CoalescedOp(ValueSetUpdate(name, tuple(values)), anchor, tuple(sources))
        )
    ops.sort(key=lambda op: op.anchor)
    return CoalesceResult(ops=ops, input_count=len(updates))


# ---------------------------------------------------------------------------
# Conflict partitioning
# ---------------------------------------------------------------------------


def conflict_components(
    model,
    program=None,
    env=None,
    *,
    strict: bool = False,
    precision: str = "flow",
) -> dict[str, str]:
    """Map every table and value set to its conflict-component root.

    Two entities land in the same component when they can taint a common
    program point.  That criterion is semantically complete: symbolic
    execution records *every* control symbol occurring in a point's
    expression, so a table whose entries can influence another table's
    verdict (e.g. by writing a field the other matches on) shares a
    tainted point with it — and any substituted subterm mixing two
    tables' control symbols lives under a point tainted by both, which is
    what makes the per-group memo grafts conflict-free.

    ``strict=True`` additionally merges tables linked by the
    :mod:`repro.ir.deps` match/action dependency graph.  ``precision``
    selects the graph's read/write sets: the historical ``"syntactic"``
    walk (field-level mentions without kill tracking) over-merges
    heavily — on the scion program it collapses 28 taint components into
    one, serializing the whole batch — while the default ``"flow"``
    precision (flow-sensitive per-action effects from
    :mod:`repro.analysis.dataflow.effects`) drops reads that are
    provably preceded by a definite write and so keeps independent
    tables in separate groups.  Either way the edges can never miss a
    conflict the taint index sees, which makes the strict mode a
    differential-testing oracle for the default partition.
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
    if strict and program is not None:
        try:
            graph = build_dependency_graph(program, env, precision=precision)
        except Exception:
            graph = None  # partial front ends still get taint-based groups
        if graph is not None:
            for edge in graph.edges:
                if edge.src in model.tables and edge.dst in model.tables:
                    union(edge.src, edge.dst)
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
        components = conflict_components(ctx.model, ctx.program, ctx.env)
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
# Worker slices — layered caches over the shared context
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


class WorkerSlice:
    """Per-worker view of the shared engine state.

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
        # execution — all state mutation happened up front on the main
        # thread), overlaid witness records, private counters.
        self.query_engine = QueryEngine(
            ctx.model,
            solver=solver,
            use_solver=shared_qe.use_solver,
            solver_node_budget=shared_qe.solver_node_budget,
            gate=shared_qe.gate.fork_slice(),
        )
        self.query_engine._exec_cache = LayeredCache(shared_qe._exec_cache)
        self.query_engine._simplify_memo = simplify_memo
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

    def merge_into(self, ctx: EngineContext) -> tuple[int, int]:
        """Fold this slice's cache deltas into the shared context.

        Runs on the main thread after the pool joins.  Returns
        ``(memo_entries, verdict_entries)`` grafted, for the
        :class:`~repro.engine.events.BatchMerged` event.
        """
        memo_entries = ctx.substitution.absorb(self.substitution)
        shared_qe = ctx.query_engine
        qe = self.query_engine
        shared_qe._decided.update(qe._decided.delta)
        shared_qe.redecided += qe.redecided
        shared_qe.unchanged += qe.unchanged
        verdict_entries = (
            len(qe._exec_cache.delta)
            + len(qe.solver._results.delta)
            + len(qe._table_verdict_memo.delta)
        )
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
        # Query stats, search stats and probe latencies fold back.
        shared.stats.absorb(qe.solver.stats)
        # Gate tier counters and witness-record deltas fold back the same
        # way; anchor-order iteration keeps the merge deterministic.
        shared_qe.gate.absorb_fork(qe.gate)
        return memo_entries, verdict_entries


# ---------------------------------------------------------------------------
# Group execution
# ---------------------------------------------------------------------------


@dataclass
class GroupOutcome:
    """Everything one worker computed for its group."""

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
    """The warm path of one conflict group, against a worker slice.

    The control-plane state was already mutated on the main thread; this
    function only *reads* shared state (its own group's tables) and
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
    worker_solver: SolverStats,
    merged_gate: GateStats,
    worker_gate: GateStats,
) -> None:
    """The double-counting tripwire behind :class:`BatchMerged`.

    Each worker's solver/gate stats start at zero when its slice forks
    and are absorbed into the shared objects exactly once during the
    merge, so the shared delta across the merge must equal the sum of
    the per-worker deltas — field for field.  A mismatch means a merge
    path absorbed some worker twice (or dropped one) and is a bug.
    """
    for name in ("by_simplify", "by_interval", "by_sat", "by_cache", "probes"):
        merged = getattr(merged_solver, name)
        summed = getattr(worker_solver, name)
        if merged != summed:
            raise AssertionError(
                f"batch merge miscounted SolverStats.{name}: per-worker "
                f"deltas sum to {summed}, merged delta is {merged}"
            )
    if merged_solver.search != worker_solver.search:
        raise AssertionError(
            "batch merge miscounted SAT search stats: per-worker deltas sum "
            f"to {worker_solver.search}, merged delta is {merged_solver.search}"
        )
    if merged_gate != worker_gate:
        raise AssertionError(
            "batch merge miscounted GateStats: per-worker deltas sum to "
            f"{worker_gate}, merged delta is {merged_gate}"
        )


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------


@dataclass
class GroupDecision:
    """Per-group outcome recorded on the batch report."""

    index: int
    tables: tuple
    value_sets: tuple
    net_updates: int  # coalesced ops executed
    source_updates: int  # original updates folded into them
    affected_points: int  # points tainted (see UpdateDecision)
    changed: list
    redecided_points: int = 0
    unchanged_points: int = 0


@dataclass
class BatchReport:
    """Outcome of one scheduled batch (the ``apply_batch`` decision)."""

    update_count: int  # updates as submitted
    coalesced_count: int  # net updates after coalescing
    group_count: int
    workers: int
    affected_points: int = 0  # points tainted, summed over the groups
    redecided_points: int = 0
    unchanged_points: int = 0
    # Table names + pids whose verdict changed, in group order.
    changed: list = field(default_factory=list)
    recompiled: bool = False
    elapsed_ms: float = 0.0
    compile_report: object = None
    groups: list = field(default_factory=list)  # GroupDecisions

    @property
    def forwarded(self) -> bool:
        return not self.recompiled

    @property
    def updates(self) -> int:
        return self.update_count

    def describe(self) -> str:
        action = "RECOMPILE" if self.recompiled else "forward"
        points = describe_points(
            self.affected_points, self.redecided_points, self.unchanged_points
        )
        return (
            f"{action}: batch of {self.update_count} updates "
            f"({self.coalesced_count} after coalescing, "
            f"{self.group_count} conflict groups, "
            f"{self.workers} workers), {points}; "
            f"{len(self.changed)} changed, {self.elapsed_ms:.1f} ms"
        )


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


def resolve_workers(workers: int) -> int:
    """Pool width; 0 (or negative) auto-detects the machine's CPU count."""
    workers = int(workers)
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


def schedule_batch(ctx: EngineContext, updates: list, workers: int = 1) -> BatchReport:
    """Coalesce, partition, execute, and merge one burst of updates.

    ``workers`` bounds the pool width (0 auto-detects the CPU count).
    With one worker or one group the groups run inline on the calling
    thread, otherwise on a thread pool — through the same
    :func:`run_group` either way, so every pool width is byte-identical
    by construction.
    """
    start = time.perf_counter()
    updates = list(updates)
    workers = resolve_workers(workers)
    model = ctx.model
    coalesced = coalesce(
        updates,
        resolve_table=lambda name: model.table(name).name,
        resolve_value_set=lambda name: model.value_set(name).name,
    )
    groups = partition(ctx, coalesced)
    if ctx.bus.active:
        ctx.bus.emit(
            BatchScheduled(
                update_count=len(updates),
                coalesced_count=coalesced.output_count,
                group_count=len(groups),
                workers=workers,
            )
        )

    # State mutation happens up front, on the calling thread, in anchor
    # order — workers then only read their own group's tables.  Every
    # net op is validated against the pre-batch state first, so a bad
    # one leaves no trace.
    ctx.state.validate_updates(op.update for op in coalesced.ops)
    for op in coalesced.ops:
        if isinstance(op.update, ValueSetUpdate):
            ctx.state.apply_value_set_update(op.update)
        else:
            ctx.state.apply_update(op.update)

    slices = [WorkerSlice(ctx) for _ in groups]
    if workers == 1 or len(groups) <= 1:
        outcomes = [
            run_group(ctx, group, piece) for group, piece in zip(groups, slices)
        ]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(groups))) as pool:
            futures = [
                pool.submit(run_group, ctx, group, piece)
                for group, piece in zip(groups, slices)
            ]
            outcomes = [future.result() for future in futures]

    # Merge, in deterministic group order.
    merge_start = time.perf_counter()
    shared_solver = ctx.query_engine.solver
    shared_gate = ctx.query_engine.gate
    solver_before = shared_solver.stats.snapshot()
    gate_before = shared_gate.stats.snapshot()
    worker_solver = SolverStats()
    worker_gate = GateStats()
    changed: list = []
    affected_points = redecided_points = unchanged_points = 0
    memo_entries = 0
    verdict_entries = 0
    group_decisions: list = []
    for outcome in outcomes:
        # A slice's solver and gate stats start at zero when it forks.
        slice_qe = outcome.slice.query_engine
        worker_solver.absorb(slice_qe.solver.stats)
        worker_gate.absorb(slice_qe.gate.stats)
        ctx.mapping.update(outcome.mapping)
        ctx.table_assignments.update(outcome.assignments)
        grafted_memo, grafted_verdicts = outcome.slice.merge_into(ctx)
        memo_entries += grafted_memo
        verdict_entries += grafted_verdicts
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
    _verify_merge_accounting(merged_solver, worker_solver, merged_gate, worker_gate)
    if ctx.bus.active:
        ctx.bus.emit(
            BatchMerged(
                group_count=len(groups),
                merged_memo_entries=memo_entries,
                merged_verdict_entries=verdict_entries,
                elapsed_ms=(time.perf_counter() - merge_start) * 1000,
                worker_solver_queries=worker_solver.total,
                merged_solver_queries=merged_solver.total,
                worker_gate_screens=worker_gate.screened,
                merged_gate_screens=merged_gate.screened,
            )
        )

    recompiled = bool(changed)
    compile_report = None
    if recompiled:
        ctx.specialized_program, ctx.report = ctx.specializer.specialize(
            ctx.point_verdicts, ctx.table_verdicts, changed
        )
        ctx.recompilations += 1
        if ctx.target is not None:
            compile_report = ctx.target.compile(ctx.specialized_program)
            ctx.compile_reports.append(compile_report)
            if ctx.bus.active:
                ctx.bus.emit(
                    TargetCompiled(
                        target=getattr(ctx.target, "name", "target"),
                        modeled_seconds=getattr(
                            compile_report, "modeled_seconds", 0.0
                        ),
                    )
                )

    return BatchReport(
        update_count=len(updates),
        coalesced_count=coalesced.output_count,
        group_count=len(groups),
        workers=workers,
        affected_points=affected_points,
        redecided_points=redecided_points,
        unchanged_points=unchanged_points,
        changed=changed,
        recompiled=bool(changed),
        elapsed_ms=(time.perf_counter() - start) * 1000,
        compile_report=compile_report,
        groups=group_decisions,
    )


__all__ = [
    "BatchReport",
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
    "resolve_workers",
    "run_group",
    "schedule_batch",
]
