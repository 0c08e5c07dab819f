"""A burst's commits rebuild each table's active list at most once.

One update splices its row into the table's cached eclipse-elided active
list; a burst that inserts into a table drops the list instead, and it is
rebuilt once, on its first read (``TableState.defer_active``).  The
property: after any burst the list a table reads equals the one that
applying the same updates one at a time, each through the splice, builds
— on tables of all seven zoo programs, exact, ternary and LPM keys, equal
priorities, eclipsing rows, and sizes that cross the overapproximation
threshold.  The pins: a burst never derives an overapproximated table's
list, and derives a precise table's once.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Flay, FlayOptions
from repro.programs import registry
from repro.runtime.entries import ExactMatch, LpmMatch, TableEntry, TernaryMatch
from repro.runtime.semantics import DELETE, INSERT, MODIFY, TableState, Update

PROGRAMS = ("scion", "switch", "middleblock", "dash", "beaucoup", "accturbo", "dta")
THRESHOLD = 16  # small, so that a few dozen entries cross it


@pytest.fixture(scope="module")
def engines():
    """One engine per zoo program, shared by the examples: each burst is
    drawn against whatever its table holds by then."""
    return {
        name: Flay(
            registry.load(name), FlayOptions(target="none", overapprox_threshold=THRESHOLD)
        )
        for name in PROGRAMS
    }


def tables_by_kind(model) -> list:
    """Per program, one table for each set of key match kinds it has."""
    chosen: dict = {}
    for name in sorted(model.tables):
        info = model.tables[name]
        if info.keys:
            chosen.setdefault(frozenset(key.match_kind for key in info.keys), name)
    return sorted(chosen.values())


def draw_entry(rng: random.Random, info) -> TableEntry:
    """Few distinct values and coarse masks, so rows eclipse one another;
    ternary and LPM keys also take exact matches; priorities collide."""
    matches = []
    ternary = False
    for key in info.keys:
        width = key.width
        top = max(width - 2, 0)
        value = rng.randrange(min(4, 1 << width)) << top
        kind = key.match_kind if rng.random() < 0.75 else "exact"
        if kind == "lpm":
            plen = rng.choice(sorted({0, min(1, width), min(2, width), width}))
            mask = ((1 << plen) - 1) << (width - plen) if plen else 0
            matches.append(LpmMatch(value & mask, plen))
        elif kind == "ternary":
            mask = rng.randrange(min(4, 1 << width)) << top
            if rng.random() < 0.3:
                mask |= rng.randrange(1 << width)
            matches.append(TernaryMatch(value & mask, mask))
            ternary = True
        else:
            matches.append(ExactMatch(value))
    action = rng.choice(sorted(info.action_codes))
    args = tuple(rng.randrange(1 << p.width) for p in info.action_params.get(action, []))
    return TableEntry(tuple(matches), action, args, rng.randrange(3) if ternary else 0)


def draw_burst(rng: random.Random, info, live: dict, size: int, deletes: float) -> list:
    """A burst valid against ``live`` (match key → entry), which it updates:
    inserts, modifies and deletes, some of a key the burst touched before."""
    burst = []
    for _ in range(size):
        roll = rng.random()
        if live and roll < deletes:
            key = rng.choice(sorted(live, key=repr))
            burst.append(Update(info.name, DELETE, live.pop(key)))
        elif live and roll < deletes + 0.2:
            key = rng.choice(sorted(live, key=repr))
            old = live[key]
            new = draw_entry(rng, info)
            entry = TableEntry(old.matches, new.action, new.args, old.priority)
            live[key] = entry
            burst.append(Update(info.name, MODIFY, entry))
        else:
            entry = draw_entry(rng, info)
            if entry.match_key() not in live:
                live[entry.match_key()] = entry
                burst.append(Update(info.name, INSERT, entry))
    return burst


def spliced(info, installed: list, burst: list) -> list:
    """The active rows ``installed`` then ``burst`` leave, applied one
    update at a time with the list read after each, so each insert
    splices into the cached list wherever the splice applies."""
    state = TableState(info)
    for update in [Update(info.name, INSERT, entry) for entry in installed] + burst:
        state.apply(update.op, update.entry)
        state.active_rows()
    return state.active_rows()


@settings(max_examples=70, deadline=None)
@given(
    program=st.sampled_from(PROGRAMS),
    pick=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=1 << 30),
    size=st.integers(min_value=1, max_value=40),
    deletes=st.sampled_from([0.0, 0.15, 0.4]),
)
def test_a_burst_leaves_the_spliced_active_list(engines, program, pick, seed, size, deletes):
    flay = engines[program]
    names = tables_by_kind(flay.model)
    info = flay.model.tables[names[pick % len(names)]]
    table = flay.runtime.state.tables[info.name]
    installed = table.entries()
    rng = random.Random(seed)
    burst = draw_burst(rng, info, {e.match_key(): e for e in installed}, size, deletes)
    if not burst:
        return
    flay.decide(burst)
    assert table.active_rows() == spliced(info, installed, burst)


@pytest.fixture()
def rebuilds(monkeypatch):
    """The names of the tables whose active list was derived from scratch."""
    names: list = []
    original = TableState._ordered_rows

    def spy(self):
        names.append(self.info.name)
        return original(self)

    monkeypatch.setattr(TableState, "_ordered_rows", spy)
    return names


def exact_inserts(info, start: int, count: int) -> list:
    """INSERTs of ``count`` exact matches, distinct from ``start`` on in
    the table's widest key and 0 in the others."""
    widest = max(range(len(info.keys)), key=lambda index: info.keys[index].width)
    action = sorted(info.action_codes)[0]
    args = tuple(0 for _ in info.action_params.get(action, []))
    return [
        Update(
            info.name,
            INSERT,
            TableEntry(
                tuple(
                    ExactMatch(value if index == widest else 0)
                    for index in range(len(info.keys))
                ),
                action,
                args,
            ),
        )
        for value in range(start, start + count)
    ]


def wide_tables(model) -> list:
    """Tables whose widest key has at least 8 bits, widest first."""
    return sorted(
        (
            info
            for info in model.tables.values()
            if info.keys and max(key.width for key in info.keys) >= 8
        ),
        key=lambda info: (-max(key.width for key in info.keys), info.name),
    )


@pytest.mark.parametrize("program", PROGRAMS)
def test_a_burst_never_derives_an_overapproximated_list(program, rebuilds):
    flay = Flay(
        registry.load(program), FlayOptions(target="none", overapprox_threshold=THRESHOLD)
    )
    first, second = wide_tables(flay.model)[:2]
    table = flay.runtime.state.tables[first.name]
    # Past the threshold one update at a time, with the list in place.
    for update in exact_inserts(first, 0, THRESHOLD + 4):
        flay.decide(update)
    assert flay.runtime.table_assignments[first.name].overapproximated
    table.active_rows()
    del rebuilds[:]
    burst = exact_inserts(first, 100, 3) + [
        Update(first.name, DELETE, update.entry) for update in exact_inserts(first, 0, 2)
    ]
    assert flay.decide(burst).coalesced_count == len(burst)
    assert first.name not in rebuilds
    assert table._active is None
    # A precise table whose list is cached, taken past the threshold by
    # one burst.
    table = flay.runtime.state.tables[second.name]
    flay.decide(exact_inserts(second, 0, 4))
    assert len(table.active_rows()) == 4
    del rebuilds[:]
    flay.decide(exact_inserts(second, 4, THRESHOLD))
    assert flay.runtime.table_assignments[second.name].overapproximated
    assert second.name not in rebuilds
    assert table._active is None


def test_a_burst_derives_a_precise_list_once(rebuilds):
    flay = Flay(registry.load("scion"), FlayOptions(target="none"))
    info = wide_tables(flay.model)[0]
    table = flay.runtime.state.tables[info.name]
    flay.decide(exact_inserts(info, 0, 40))  # precise: 40 <= 100
    assert len(table.active_rows()) == 40
    del rebuilds[:]
    flay.decide(exact_inserts(info, 40, 3))
    assert rebuilds.count(info.name) == 1
    assert len(table.active_rows()) == 43
    assert rebuilds.count(info.name) == 1
