"""Control-plane semantics: entry stores + the entry→assignment encoder.

This is the right half of Flay's Fig. 4.  A :class:`ControlPlaneState`
holds the installed entries (P4Runtime insert/modify/delete semantics,
priority ordering, eclipse elision).  The encoder turns one table's entries
into *control-plane assignments*: terms, over the table's key symbols, that
are substituted for the table's control symbols (action selector, hit bit,
action parameters).

Past :data:`DEFAULT_OVERAPPROX_THRESHOLD` entries the encoder
*overapproximates* (§4.1): each control symbol is replaced by the table's
stable, unconstrained ``!any`` data-plane symbol — "assume the entries
cover every action and parameter" — which makes update processing O(1)
in the entry count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Optional

from repro.analysis.model import DataPlaneModel, TableInfo, ValueSetInfo
from repro.ir.metrics import CacheCounter
from repro.runtime.entries import (
    EntryError,
    EntrySchema,
    ExactMatch,
    LpmMatch,
    Match,
    TableEntry,
    TernaryMatch,
    as_value_mask,
    validate_entry,
)
from repro.smt import terms as T
from repro.smt.terms import Term

DEFAULT_OVERAPPROX_THRESHOLD = 100

# Update operations (P4Runtime names).
INSERT = "insert"
MODIFY = "modify"
DELETE = "delete"


@dataclass(frozen=True)
class Update:
    """One control-plane update targeting a table."""

    table: str  # qualified or local table name
    op: str  # insert | modify | delete
    entry: TableEntry

    def describe(self) -> str:
        return f"{self.op} {self.table} {self.entry.action}{self.entry.args}"


@dataclass(frozen=True)
class ValueSetUpdate:
    """Reconfigure a parser value set to exactly ``values``."""

    value_set: str
    values: tuple


class TableState:
    """Installed entries of one table, keyed P4Runtime-style.

    Every entry is held as a **row** ``(entry, value, mask)``: its whole
    match packed, once, into one ``(value, mask)`` integer pair over the
    table's keys concatenated at fixed bit offsets (the value is
    normalised, ``value & ~mask == 0``).  The row goes when the
    entry is deleted.  On rows the eclipse rule is two integer
    operations (:meth:`_covers`), a point lookup one
    (:class:`~repro.smt.fdd.TableFdd`), and a precise encoding is the
    active rows themselves (:func:`encode_table`).

    The eclipse-elided active list is cached and maintained
    *incrementally*: an INSERT splices the new row into the cached list
    (one scan for its precedence position plus one coverage sweep, O(n))
    instead of recomputing the O(n²) elision from scratch.  Deletes of
    active entries and match-mode changes fall back to a full *lazy*
    recompute; everything else keeps the cache.  The splice is exact
    because covering is transitive: when the new entry evicts a
    previously-active entry, every entry that old eclipser was hiding is
    hidden by the new entry too.  A burst that inserts into the table
    drops the list first (:meth:`defer_active`): it is rebuilt once, on
    its next read, and an overapproximated table's never is.

    The table's :class:`~repro.runtime.entries.EntrySchema` is compiled
    once, here, for :meth:`check`.
    """

    def __init__(self, info: TableInfo, counter: Optional[CacheCounter] = None) -> None:
        self.info = info
        self.schema = EntrySchema(info)
        self.counter = counter if counter is not None else CacheCounter("active-entries")
        self._widths = info.key_widths()
        # Bit offset of each key inside the packed key integer.
        self._shifts = tuple(accumulate(self._widths, initial=0))[:-1]
        self._rows: dict[object, tuple] = {}  # match key → (entry, value, mask)
        # Cached eclipse-elided active rows (None = needs full recompute)
        # and the per-mode entry counts that decide the precedence order.
        self._active: Optional[list[tuple]] = []
        self._n_ternary = 0
        self._n_lpm = 0
        # First-match lookup index (smt/fdd.py), attached by the verdict
        # gate.  It watches :meth:`revision` and re-derives its rows from
        # :meth:`active_rows` on the next lookup, so nothing here feeds it.
        self.fdd = None
        # Monotone content revision: bumped by every successful apply()
        # and clear().  Structural caches (the table-verdict memo, the
        # gate's lazy-harvest retry signature, the lookup index) key on
        # it to observe content changes without hashing entries per query.
        self._revision = 0
        self._digest_revision = -1
        self._digest: tuple = ()
        # The encoder's `!any` mapping (:func:`_overapproximate`): a
        # function of the table's shape alone, built the first time the
        # table passes the threshold and handed out from then on.
        self.any_mapping: Optional[dict[Term, Term]] = None

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key) -> bool:
        """Is an entry with match key ``key`` installed?"""
        return key in self._rows

    def revision(self) -> int:
        return self._revision

    def structural_digest(self) -> tuple:
        """The active-entry tuple, memoized per revision.

        This is the structural identity the table-verdict memo keys on:
        two states with equal digests produce identical selector/hit
        encodings and identical const-param analyses (both are functions
        of the eclipse-elided active list alone).
        """
        if self._digest_revision != self._revision:
            self._digest = tuple(self.active_entries())
            self._digest_revision = self._revision
        return self._digest

    def entries(self) -> list[TableEntry]:
        return [row[0] for row in self._rows.values()]

    def pack_entry(self, entry: TableEntry) -> tuple[int, int]:
        """The entry's whole match as one normalised ``(value, mask)``."""
        value = mask = 0
        for match, width, shift in zip(entry.matches, self._widths, self._shifts):
            key_value, key_mask = as_value_mask(match, width)
            value |= (key_value & key_mask) << shift
            mask |= key_mask << shift
        return value, mask

    def pack_point(self, key_values: Iterable[int]) -> int:
        """Concrete per-key values (each within its key's width) as one
        point of the packed key space."""
        point = 0
        for value, shift in zip(key_values, self._shifts):
            point |= value << shift
        return point

    def unpack_point(self, point: int) -> list[int]:
        """Per-key values of a packed point (inverse of :meth:`pack_point`)."""
        return [
            (point >> shift) & ((1 << width) - 1)
            for shift, width in zip(self._shifts, self._widths)
        ]

    def check(self, op: str, entry: TableEntry, key, live: bool) -> bool:
        """Raise what :meth:`commit` would meet; touches nothing.

        ``key`` is ``entry.match_key()`` and ``live`` whether it is
        installed when the op commits: a malformed entry, an unknown op,
        an INSERT of a live key and a MODIFY or DELETE of a dead one
        raise :class:`EntryError`.  Returns whether the key is live after
        the op.
        """
        validate_entry(self.info, entry, self.schema)
        if op == INSERT:
            if live:
                raise EntryError(f"duplicate entry in {self.info.name}: {key}")
        elif op in (MODIFY, DELETE):
            if not live:
                raise EntryError(f"no such entry in {self.info.name}: {key}")
        else:
            raise EntryError(f"unknown update op {op!r}")
        return op != DELETE

    def commit(self, op: str, entry: TableEntry, key) -> Optional[TableEntry]:
        """Apply ``op`` on ``entry`` (match key ``key``), which
        :meth:`check` passed against the current rows; returns the entry
        a MODIFY or DELETE replaced (None for an INSERT)."""
        old = None
        if op == INSERT:
            mode_before = self._mode()
            row = (entry, *self.pack_entry(entry))
            self._rows[key] = row
            self._count_entry(entry, +1)
            if self._active is not None:
                if self._mode() != mode_before:
                    # Precedence order of *existing* entries changed.
                    self.defer_active()
                else:
                    self._splice_insert(row)
        elif op == MODIFY:
            old = self._rows[key]
            row = (entry, old[1], old[2])
            self._rows[key] = row
            # Same match key → same matches and priority → the eclipse
            # structure is untouched; swap the row in place if active.
            if self._active is not None:
                for i, existing in enumerate(self._active):
                    if existing is old:
                        self._active[i] = row
                        break
        else:
            mode_before = self._mode()
            old = self._rows.pop(key)
            self._count_entry(old[0], -1)
            if self._active is not None and (
                self._mode() != mode_before
                or any(existing is old for existing in self._active)
            ):
                # An active entry may have been hiding others; recompute
                # (lazily: an overapproximated table never asks).
                self.defer_active()
            # Deleting an eclipsed entry cannot un-eclipse anything.
        self._revision += 1
        return old[0] if old is not None else None

    def apply(self, op: str, entry: TableEntry) -> None:
        """:meth:`check` against the installed rows, then :meth:`commit`."""
        key = entry.match_key()
        self.check(op, entry, key, key in self._rows)
        self.commit(op, entry, key)

    def clear(self) -> None:
        self._rows.clear()
        self._active = []
        self._n_ternary = 0
        self._n_lpm = 0
        self._revision += 1

    # -- ordering & eclipse ----------------------------------------------------

    def _count_entry(self, entry: TableEntry, delta: int) -> None:
        if any(isinstance(m, TernaryMatch) for m in entry.matches):
            self._n_ternary += delta
        if any(isinstance(m, LpmMatch) for m in entry.matches):
            self._n_lpm += delta

    def _mode(self) -> str:
        if self._n_ternary:
            return "ternary"
        if self._n_lpm:
            return "lpm"
        return "exact"

    def defer_active(self) -> None:
        """Drop the cached active list: it is rebuilt once, on its next
        read, and an overapproximated table's, which the encoder never
        reads, never is.  A burst calls this before it commits INSERTs
        into the table, instead of one O(n) splice per insert."""
        if self._active is not None:
            self._active = None
            self.counter.invalidate()

    def _precedence_key(self):
        """Sort key over rows: lower sorts first, first match wins."""
        mode = self._mode()
        if mode == "ternary":
            return lambda row: -row[0].priority
        if mode == "lpm":
            return lambda row: -self._total_prefix(row[0])
        return None  # exact: insertion order

    def _ordered_rows(self) -> list[tuple]:
        rows = list(self._rows.values())
        key = self._precedence_key()
        if key is not None:
            rows.sort(key=key)
        return rows

    def ordered_entries(self) -> list[TableEntry]:
        """Entries in match-precedence order (first match wins)."""
        return [row[0] for row in self._ordered_rows()]

    @staticmethod
    def _total_prefix(entry: TableEntry) -> int:
        return sum(
            m.prefix_len for m in entry.matches if isinstance(m, LpmMatch)
        )

    @staticmethod
    def _covers(outer: tuple, inner: tuple) -> bool:
        """Does row ``outer`` match every key point row ``inner`` matches?

        ``outer`` cares about no bit ``inner`` leaves free, and they
        agree on the bits it cares about — the packed form of
        :func:`~repro.runtime.entries.match_covers` on every key.
        """
        _, ovalue, omask = outer
        _, ivalue, imask = inner
        return omask & ~imask == 0 and ivalue & omask == ovalue

    def _splice_insert(self, row: tuple) -> None:
        """Maintain the cached active list across one INSERT, in O(n).

        The freshly-inserted entry sorts *after* every existing entry with
        an equal precedence key (the sort is stable and dict insertion
        order puts new keys last), so its position among the actives is the
        first index with a strictly lower-precedence key.
        """
        active = self._active
        assert active is not None
        pos = len(active)
        sort_key = self._precedence_key()
        if sort_key is not None:
            new_key = sort_key(row)
            for i, existing in enumerate(active):
                if sort_key(existing) > new_key:
                    pos = i
                    break
        covers = self._covers
        if any(covers(prev, row) for prev in active[:pos]):
            return  # the new entry is born eclipsed
        survivors = [r for r in active[pos:] if not covers(row, r)]
        self._active = active[:pos] + [row] + survivors

    def active_rows(self) -> list[tuple]:
        """Ordered ``(entry, value, mask)`` rows, eclipsed ones elided.

        The cached list itself: callers read it, they do not mutate it.
        """
        active = self._active
        if active is not None:
            self.counter.hit()
            return active
        self.counter.miss()
        active: list = []
        for row in self._ordered_rows():
            # :meth:`_covers` against every active row before it, inlined:
            # a rebuild makes up to n²/2 of these comparisons.
            _, value, mask = row
            free = ~mask
            for _, active_value, active_mask in active:
                if not active_mask & free and value & active_mask == active_value:
                    break
            else:
                active.append(row)
        self._active = active
        return active

    def active_entries(self) -> list[TableEntry]:
        """Ordered entries with eclipsed (never-firing) entries elided."""
        return [row[0] for row in self.active_rows()]


class ControlPlaneState:
    """All tables' entries + value-set configurations for one program."""

    def __init__(self, model: DataPlaneModel) -> None:
        self.model = model
        self.active_counter = CacheCounter("active-entries")
        self.tables: dict[str, TableState] = {
            name: TableState(info, counter=self.active_counter)
            for name, info in model.tables.items()
        }
        self.value_sets: dict[str, tuple] = {
            name: () for name in model.value_sets
        }
        self.update_count = 0

    def table_state(self, name: str) -> TableState:
        """The table's state, by qualified or local name."""
        state = self.tables.get(name)
        return state if state is not None else self.tables[self.model.table(name).name]

    def check(self, update) -> object:
        """Raise what applying ``update`` now would raise, touching
        nothing: a malformed entry, a key that is live for an INSERT or
        dead for a MODIFY or DELETE, an oversized value set, an unknown
        table or value set.  Returns the entry's match key (``None`` for
        a value-set update), keyed once, for :meth:`commit`.  A burst is
        checked update by update inside its fold
        (:func:`repro.engine.batch.coalesce`)."""
        if isinstance(update, ValueSetUpdate):
            self.check_value_set_size(update)
            return None
        state = self.table_state(update.table)
        key = update.entry.match_key()
        state.check(update.op, update.entry, key, key in state._rows)
        return key

    def commit(self, update, key) -> tuple:
        """Apply ``update``, checked with match key ``key``, in its
        batch's order; returns the table's or value set's info, and what
        the update replaced: the old entry of a MODIFY or DELETE (None
        for an INSERT), or the value set's old values."""
        if isinstance(update, ValueSetUpdate):
            prior = self.value_sets[self.model.value_set(update.value_set).name]
            return self.apply_value_set_update(update), prior
        state = self.table_state(update.table)
        prior = state.commit(update.op, update.entry, key)
        self.update_count += 1
        return state.info, prior

    @staticmethod
    def inverse(update, key, prior) -> tuple:
        """The ``(update, key)`` pair that undoes a committed ``update``,
        given the ``prior`` its :meth:`commit` returned: an INSERT's
        DELETE, a DELETE's re-INSERT of the old entry, a MODIFY back to
        the old entry, a value set's old values."""
        if isinstance(update, ValueSetUpdate):
            return ValueSetUpdate(update.value_set, prior), None
        if update.op == INSERT:
            return Update(update.table, DELETE, update.entry), key
        op = INSERT if update.op == DELETE else MODIFY
        return Update(update.table, op, prior), key

    def check_value_set_size(self, update: ValueSetUpdate) -> ValueSetInfo:
        info = self.model.value_set(update.value_set)
        if len(update.values) > info.size:
            raise EntryError(
                f"value set {info.name} holds {info.size} values, "
                f"got {len(update.values)}"
            )
        return info

    def apply_update(self, update: Update) -> TableInfo:
        state = self.table_state(update.table)
        state.apply(update.op, update.entry)
        self.update_count += 1
        return state.info

    def apply_value_set_update(self, update: ValueSetUpdate) -> ValueSetInfo:
        info = self.check_value_set_size(update)
        self.value_sets[info.name] = tuple(update.values)
        self.update_count += 1
        return info


# ---------------------------------------------------------------------------
# Entry → assignment encoding
# ---------------------------------------------------------------------------


@dataclass
class TableAssignment:
    """The control-plane assignment for one table.

    ``mapping`` sends each of the table's control symbols to a term over
    the table's key symbols (data-plane).  ``overapproximated`` tables map
    their symbols to the table's unconstrained ``!any`` symbols instead.
    """

    table: str
    mapping: dict[Term, Term]
    entry_count: int
    overapproximated: bool


def match_term(match: Match, key: Term, width: int) -> Term:
    """The condition under which ``key`` satisfies ``match``."""
    value, mask = as_value_mask(match, width)
    full = (1 << width) - 1
    if mask == full:
        return T.eq(key, T.bv_const(value, width))
    if mask == 0:
        return T.TRUE
    return T.eq(
        T.bv_and(key, T.bv_const(mask, width)),
        T.bv_const(value & mask, width),
    )


def entry_match_term(info: TableInfo, entry: TableEntry) -> Term:
    conds = [
        match_term(match, key.term, key.width)
        for match, key in zip(entry.matches, info.keys)
    ]
    return T.bool_and(*conds)


def encode_table(
    info: TableInfo,
    state: TableState,
    threshold: Optional[int] = DEFAULT_OVERAPPROX_THRESHOLD,
) -> TableAssignment:
    """Build the control-plane assignment for ``info`` from its entries.

    A precise table maps each control symbol to one lookup node over the
    table's key terms (:meth:`~repro.smt.terms.TermFactory.lookup`),
    whose rows are the active ``(value, mask)`` rows :class:`TableState`
    keeps: the action selector to the first matching entry's action code,
    else the default action's; the hit bit to ``ite(some row matches, 1,
    0)``; each action parameter to the first matching entry's argument
    among that action's entries, else the default binding (or 0).  So an
    update builds one node per symbol whatever the entry count, and no
    match condition; a table with no active entry maps to constants.
    """
    if threshold is not None and len(state) > threshold:
        # Past the threshold we never look at individual entries again —
        # that's what makes overapproximated update processing O(1).
        return _overapproximate(info, state)
    sel_width = TableInfo.SELECTOR_WIDTH
    default_code = info.action_codes.get(info.default_action, 0)
    rows = state.active_rows()
    keys = tuple(key.term for key in info.keys)
    if rows:
        codes = info.action_codes
        selector = T.lookup(
            keys,
            tuple([(value, mask, codes[entry.action]) for entry, value, mask in rows]),
            default_code,
            sel_width,
        )
        # Some row matches: its rows sorted, as a disjunction's arguments
        # are (no two active rows are equal: the first would eclipse the
        # second).
        matched = T.lookup(keys, tuple(sorted((v, m, 1) for _, v, m in rows)), 0, 0)
        hit = T.ite(matched, T.bv_const(1, 1), T.bv_const(0, 1))
    else:
        selector = T.bv_const(default_code, sel_width)
        hit = T.bv_const(0, 1)
    mapping: dict[Term, Term] = {info.selector_var: selector, info.hit_var: hit}

    # Per-action parameters: the winning matching entry's action data.
    for action_name, params in info.action_params.items():
        relevant = [row for row in rows if row[0].action == action_name]
        for index, param in enumerate(params):
            if action_name == info.default_action and index < len(info.default_args):
                fallback_value = info.default_args[index] or 0
            else:
                fallback_value = 0
            full = (1 << param.width) - 1
            if relevant:
                value: Term = T.lookup(
                    keys,
                    tuple([(v, m, entry.args[index] & full) for entry, v, m in relevant]),
                    fallback_value & full,
                    param.width,
                )
            else:
                value = T.bv_const(fallback_value, param.width)
            mapping[param.var] = value

    return TableAssignment(
        table=info.name,
        mapping=mapping,
        entry_count=len(state),
        overapproximated=False,
    )


def _overapproximate(info: TableInfo, state: TableState) -> TableAssignment:
    """Map every control symbol of the table to `*any*` (an unconstrained symbol).

    The `*any*` symbols are *stable* — deterministic names, not fresh ones.
    An unconstrained symbol's only meaning is "anything", so reuse is
    semantically free.  The mapping is built the first time the table is
    overapproximated and kept on its :class:`TableState`, so every later
    re-encoding hands back the same dict: the incremental pipeline sees
    the mapping it already installed and does nothing for the update
    (overapproximated updates are O(1) end to end, not just at encode
    time).
    """
    mapping = state.any_mapping
    if mapping is None:
        mapping = state.any_mapping = {
            info.selector_var: T.data_var(
                f"{info.name}.action!any", TableInfo.SELECTOR_WIDTH
            ),
            info.hit_var: T.data_var(f"{info.name}.hit!any", 1),
        }
        for params in info.action_params.values():
            for param in params:
                mapping[param.var] = T.data_var(f"{param.var.name}!any", param.width)
    return TableAssignment(
        table=info.name,
        mapping=mapping,
        entry_count=len(state),
        overapproximated=True,
    )


def encode_value_set(info: ValueSetInfo, values: Iterable[int]) -> dict[Term, Term]:
    """Assignment for a parser value set: fill slots, mark the rest invalid."""
    values = list(values)
    if len(values) > info.size:
        raise EntryError(f"too many values for value set {info.name}")
    mapping: dict[Term, Term] = {}
    for i in range(info.size):
        if i < len(values):
            mapping[info.valid_vars[i]] = T.bv_const(1, 1)
            mapping[info.value_vars[i]] = T.bv_const(values[i], info.width)
        else:
            mapping[info.valid_vars[i]] = T.bv_const(0, 1)
            mapping[info.value_vars[i]] = T.bv_const(0, info.width)
    return mapping


def encode_all(
    model: DataPlaneModel,
    state: ControlPlaneState,
    threshold: Optional[int] = DEFAULT_OVERAPPROX_THRESHOLD,
) -> dict[Term, Term]:
    """Full substitution map for every table and value set in the program."""
    mapping: dict[Term, Term] = {}
    for name, info in model.tables.items():
        assignment = encode_table(info, state.tables[name], threshold)
        mapping.update(assignment.mapping)
    for name, info in model.value_sets.items():
        mapping.update(encode_value_set(info, state.value_sets[name]))
    return mapping
