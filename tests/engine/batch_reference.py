"""The burst scheduler's former two-pass fold, kept as a test-side reference.

The scheduler used to fold a burst without looking at the installed
entries (:func:`reference_coalesce`), split the net ops into conflict
groups in a second pass (:func:`reference_group_count`), and check every
submitted update in a third.  :func:`repro.engine.batch.coalesce` does
the fold, the check and the group count in one pass; the tests hold its
net ops, their order and its counts to this reference.
"""

from dataclasses import dataclass
from typing import Callable, Optional

from repro.runtime.entries import EntryError
from repro.runtime.semantics import DELETE, INSERT, MODIFY, Update, ValueSetUpdate


@dataclass(frozen=True)
class ReferenceOp:
    """One net update: ``anchor`` is the input index fixing its position,
    ``sources`` the input indices folded into it, ``key`` its match key
    (``None`` for a value set)."""

    update: object
    anchor: int
    sources: tuple
    key: object = None


def reference_coalesce(
    updates: list,
    resolve_table: Optional[Callable[[str], str]] = None,
    resolve_value_set: Optional[Callable[[str], str]] = None,
) -> list:
    """The net ops of ``updates`` in anchor order; raises
    :class:`EntryError` on a sequence no pre-burst state makes valid (a
    double insert, a modify or delete after a delete)."""
    table_of = resolve_table or (lambda name: name)
    vs_of = resolve_value_set or (lambda name: name)
    # (table, key) → [live, ever touched, delete, upsert]
    slots: dict = {}
    value_sets: dict = {}  # name → [anchor, values, sources]
    for index, update in enumerate(updates):
        if isinstance(update, ValueSetUpdate):
            name = vs_of(update.value_set)
            slot = value_sets.get(name)
            if slot is None:
                value_sets[name] = [index, update.values, [index]]
            else:
                slot[1] = update.values
                slot[2].append(index)
            continue
        table = table_of(update.table)
        key = (table, update.entry.match_key())
        slot = slots.setdefault(key, [None, False, None, None])
        live, touched, _, upsert = slot
        if update.op == INSERT:
            if live:
                raise EntryError(f"batch inserts {table} key {key[1]} twice")
            slot[3] = (INSERT, index, update.entry, [index])
            slot[0] = True
        elif update.op == MODIFY:
            if live is False or (live is None and touched):
                raise EntryError(f"batch modifies {table} key {key[1]} after deleting it")
            if upsert is not None:
                op, anchor, _, sources = upsert
                slot[3] = (op, anchor, update.entry, sources + [index])
            else:
                slot[3] = (MODIFY, index, update.entry, [index])
            slot[0] = True
        elif update.op == DELETE:
            if live is False:
                raise EntryError(f"batch deletes {table} key {key[1]} twice")
            if upsert is None or upsert[0] != INSERT:
                slot[2] = (index, update.entry, [index])
            slot[3] = None
            slot[0] = False
        else:
            raise EntryError(f"unknown update op {update.op!r}")
        slot[1] = True
    ops = []
    for (table, key), (_, _, delete, upsert) in slots.items():
        if delete is not None:
            anchor, entry, sources = delete
            ops.append(ReferenceOp(Update(table, DELETE, entry), anchor, tuple(sources), key))
        if upsert is not None:
            op, anchor, entry, sources = upsert
            ops.append(ReferenceOp(Update(table, op, entry), anchor, tuple(sources), key))
    for name, (anchor, values, sources) in value_sets.items():
        ops.append(ReferenceOp(ValueSetUpdate(name, tuple(values)), anchor, tuple(sources)))
    ops.sort(key=lambda op: op.anchor)
    return ops


def reference_group_count(model, components: dict, ops: list) -> int:
    """The number of conflict groups the net ``ops`` fall into."""
    roots = set()
    for op in ops:
        update = op.update
        if isinstance(update, ValueSetUpdate):
            name = model.value_set(update.value_set).name
        else:
            name = model.table(update.table).name
        roots.add(components[name])
    return len(roots)


def resolved_coalesce(model, updates: list) -> list:
    """:func:`reference_coalesce` with the model's name resolution."""
    return reference_coalesce(
        updates,
        resolve_table=lambda name: model.table(name).name,
        resolve_value_set=lambda name: model.value_set(name).name,
    )
