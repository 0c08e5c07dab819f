"""The burst scheduler: the warm path for a list of updates.

Real control planes deliver updates in *bursts* — route flaps, table
rollouts.  :meth:`~repro.engine.engine.Engine.decide` hands a list or
tuple of updates to :func:`schedule_batch`, which decides the burst as
one unit, on the calling thread:

1. **Coalesce and check** — one pass over the submitted updates
   (:func:`coalesce`).  Each update's table is resolved and its entry
   keyed once, and :meth:`~repro.runtime.semantics.TableState.check`
   runs on it against the liveness the fold tracks (the installed rows
   on a key's first touch, the fold's own state after that), so every
   submitted update, folded or not, is checked in submission order and
   a bad one raises before anything commits.  The fold is per
   ``(table, match key)``: insert-then-delete cancels, modify-after-insert
   collapses into the insert, repeated modifies keep the last write.
   Value-set updates are last-write-wins per set.  Coalescing never
   reorders the surviving updates relative to each other (each keeps the
   input index of the operation that anchors it), so replaying the
   coalesced stream produces the exact same control-plane state —
   including the insertion order an exact-match table's precedence
   depends on.  The same pass collects the conflict-component roots of
   the net updates (two tables or value sets share a component iff they
   can influence a common program point, the model's control-variable
   taint index); their number is the burst's ``group_count``.
2. **Decide** — the engine's own warm passes run over the net updates on
   the shared :class:`~repro.engine.context.EngineContext`, exactly as for
   one update: every touched table and value set is encoded once, one
   ``set_many`` pushes the moved symbols, one sweep re-verdicts the
   tainted points and the touched tables.  A table the net updates insert
   into drops its eclipse-elided active list before the commits, so the
   list is rebuilt once, on its first read, instead of taking one splice
   per insert
   (:meth:`~repro.runtime.semantics.TableState.defer_active`).

The burst respecializes at most once.  Verdicts and the specialized
program are pure functions of the final control-plane state, and
forwarded updates are lowered in their original input order, folded ones
included, so the device sees the exact stream a sequential warm path
would have sent.
"""

from __future__ import annotations

import time

from repro.engine.context import EngineContext
from repro.engine.pipeline import Decision
from repro.runtime.semantics import (
    INSERT,
    MODIFY,
    ControlPlaneState,
    Update,
    ValueSetUpdate,
    encode_table,  # noqa: F401  (a wrap point of the end-to-end tracer)
)


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------


def coalesce(state: ControlPlaneState, updates: list, components: dict) -> tuple:
    """Check a burst against ``state`` and fold it into its net updates
    (see the module docstring); touches nothing.

    Returns ``(ops, group_count, inserted)``: the net ``(update, match
    key)`` pairs in anchor order (the key is ``None`` for a value-set
    update), ready for
    :meth:`~repro.runtime.semantics.ControlPlaneState.commit`; the number
    of distinct ``components`` roots (:func:`conflict_components`) among
    them; and the :class:`~repro.runtime.semantics.TableState` of each
    table a net INSERT targets, as a set.  A net op whose kind the
    fold did not change is the submitted update itself; a modify folded
    into an insert becomes an insert of the modify's entry.

    Raises what applying ``updates`` one at a time would raise first: an
    :class:`~repro.runtime.entries.EntryError` for a malformed entry, a
    key's double insert or a modify or delete of a dead key, or an
    oversized value set, and the model's error for an unknown table or
    value set.
    """
    # Per touched table, one cell [TableState, component root, net ops,
    # net inserts], reached by every name the burst gives the table.
    cells: dict = {}  # qualified table name → cell
    by_name: dict = {}  # submitted table name → cell
    # (TableState, key) → [live, anchor of the pending insert or modify, or -1]
    slots: dict = {}
    value_sets: dict = {}  # value-set name → anchor
    net: list = [None] * len(updates)  # anchor → net (update, key)
    for index, update in enumerate(updates):
        if isinstance(update, ValueSetUpdate):
            name = state.check_value_set_size(update).name
            anchor = value_sets.setdefault(name, index)
            net[anchor] = (update, None)  # last write wins, first anchor
            continue
        cell = by_name.get(update.table)
        if cell is None:
            table = state.table_state(update.table)
            name = table.info.name
            cell = cells.get(name)
            if cell is None:
                cell = cells[name] = [table, components[name], 0, 0]
            by_name[update.table] = cell
        table = cell[0]
        entry = update.entry
        key = entry.match_key()
        slot = slots.get((table, key))
        if slot is None:
            slot = slots[(table, key)] = [key in table, -1]
        op = update.op
        slot[0] = table.check(op, entry, key, slot[0])
        pending = slot[1]
        if op == INSERT:
            # The key was dead, so nothing is pending.
            net[index] = (update, key)
            slot[1] = index
            cell[2] += 1
            cell[3] += 1
        elif op == MODIFY:
            if pending < 0:
                net[index] = (update, key)
                slot[1] = index
                cell[2] += 1
            elif net[pending][0].op == INSERT:
                net[pending] = (Update(update.table, INSERT, entry), key)
            else:
                net[pending] = (update, key)
        else:  # DELETE: the check let no other op through
            if pending >= 0:
                cancelled = net[pending][0].op == INSERT
                net[pending] = None
                slot[1] = -1
                if cancelled:
                    # The key was dead before its insert: the pair vanishes.
                    cell[2] -= 1
                    cell[3] -= 1
                    continue
            else:
                cell[2] += 1
            net[index] = (update, key)
    ops = [op for op in net if op is not None]
    roots = {components[name] for name in value_sets}
    roots.update(cell[1] for cell in cells.values() if cell[2])
    inserted = {cell[0] for cell in cells.values() if cell[3]}
    return ops, len(roots), inserted


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


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


def schedule_batch(ctx: EngineContext, passes) -> Decision:
    """Decide the burst ``ctx.warm.update`` (a list) through ``passes``,
    the engine's warm :class:`~repro.engine.passes.PassManager`.

    Coalesces and checks the burst in one pass, has each table the net
    updates insert into drop its cached active list
    (:meth:`~repro.runtime.semantics.TableState.defer_active`), and hands
    the net updates to the passes as ``ctx.warm.ops``.
    """
    start = time.perf_counter()
    warm = ctx.warm
    updates = warm.update
    components = ctx.batch_components
    if components is None:
        components = ctx.batch_components = conflict_components(ctx.model)
    warm.ops, group_count, inserted = coalesce(ctx.state, updates, components)
    for table in inserted:
        table.defer_active()
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
        coalesced_count=len(warm.ops),
        group_count=group_count,
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


def partition(*args) -> None:
    """No code calls this: :func:`coalesce` counts the conflict groups.
    It stays only because ``benchmarks/e2e/harness/tracing.py``
    ``WRAP_POINTS`` names it, and ROADMAP item 20(b) deletes it."""


def run_group(*args) -> None:
    """No code calls this; it stays only because
    ``benchmarks/e2e/harness/tracing.py`` ``WRAP_POINTS`` names it, and
    ROADMAP item 20(b) deletes it."""


__all__ = [
    "coalesce",
    "conflict_components",
    "schedule_batch",
]
