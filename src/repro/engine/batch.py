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
   common program point (the model's control-variable taint index).  The
   count is the burst's ``group_count``; the groups run no code of their
   own.
3. **Check** — every input update, folded or not, is checked against the
   pre-burst control plane, so a bad one leaves no trace.
4. **Decide** — the engine's own warm passes run over the net updates on
   the shared :class:`~repro.engine.context.EngineContext`, exactly as for
   one update: every touched table and value set is encoded once, one
   ``set_many`` pushes the moved symbols, one sweep re-verdicts the
   tainted points and the touched tables.

The burst respecializes at most once.  Verdicts and the specialized
program are pure functions of the final control-plane state, and
forwarded updates are lowered in their original input order, folded ones
included, so the device sees the exact stream a sequential warm path
would have sent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.engine.context import EngineContext
from repro.engine.pipeline import Decision
from repro.runtime.entries import EntryError
from repro.runtime.semantics import (
    DELETE,
    INSERT,
    MODIFY,
    Update,
    ValueSetUpdate,
    encode_table,  # noqa: F401  (a wrap point of the end-to-end tracer)
)


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
    tables' control symbols lives under a point tainted by both.  Merging along
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
    """Net updates that taint no program point another group's do."""

    ops: list  # CoalescedOps, anchor order
    tables: list  # sorted touched table names
    value_sets: list  # sorted touched value-set names


def partition(ctx: EngineContext, coalesced: CoalesceResult) -> list:
    """Split net updates into conflict groups, ordered by first input index."""
    components = ctx.batch_components
    if components is None:
        components = ctx.batch_components = conflict_components(ctx.model)
    model = ctx.model
    buckets: dict[str, tuple] = {}  # component root → (ops, tables, value sets)
    for op in coalesced.ops:
        update = op.update
        is_value_set = isinstance(update, ValueSetUpdate)
        if is_value_set:
            name = model.value_set(update.value_set).name
        else:
            name = model.table(update.table).name
        bucket = buckets.get(components[name])
        if bucket is None:
            bucket = buckets[components[name]] = ([], set(), set())
        bucket[0].append(op)
        bucket[2 if is_value_set else 1].add(name)
    return [
        ConflictGroup(ops, sorted(tables), sorted(value_sets))
        for ops, tables, value_sets in buckets.values()
    ]


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


def schedule_batch(ctx: EngineContext, passes) -> Decision:
    """Decide the burst ``ctx.warm.update`` (a list) through ``passes``,
    the engine's warm :class:`~repro.engine.passes.PassManager`.

    Coalesces and partitions the burst, checks every input update, and
    hands the net updates to the passes as ``ctx.warm.ops``.
    """
    start = time.perf_counter()
    warm = ctx.warm
    updates = warm.update
    model = ctx.model
    coalesced = coalesce(
        updates,
        resolve_table=lambda name: model.table(name).name,
        resolve_value_set=lambda name: model.value_set(name).name,
    )
    groups = partition(ctx, coalesced)
    # A valid input stream makes its net ops valid.
    ctx.state.check(coalesced.keyed)
    warm.ops = [(op.update, op.key) for op in coalesced.ops]
    passes.run(ctx)
    return Decision(
        warm.recompiled,
        warm.changed,
        warm.affected,
        warm.redecided,
        warm.unchanged,
        (time.perf_counter() - start) * 1000,
        compile_report=warm.compile_report,
        lowered=warm.lowered,
        update_count=len(updates),
        coalesced_count=coalesced.output_count,
        group_count=len(groups),
        burst=True,
    )


# ---------------------------------------------------------------------------
# Names without a caller
# ---------------------------------------------------------------------------


class WorkerSlice:
    """No code constructs this class; bursts run on the shared context.

    It stays only because ``benchmarks/e2e/harness/tracing.py``
    ``WRAP_POINTS`` names ``WorkerSlice.__init__`` and
    ``WorkerSlice.merge_into``; ROADMAP item 20(b) deletes it with the
    other names that list keeps alive.
    """

    def __init__(self, ctx: EngineContext) -> None:
        """Inert (see the class docstring)."""

    def merge_into(self, ctx: EngineContext) -> None:
        """Inert (see the class docstring)."""


def run_group(ctx: EngineContext, group: ConflictGroup, piece: WorkerSlice) -> None:
    """No code calls this; it stays only because
    ``benchmarks/e2e/harness/tracing.py`` ``WRAP_POINTS`` names it, and
    ROADMAP item 20(b) deletes it."""


__all__ = [
    "CoalesceResult",
    "CoalescedOp",
    "ConflictGroup",
    "coalesce",
    "conflict_components",
    "partition",
    "schedule_batch",
]
