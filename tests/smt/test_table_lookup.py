"""First-match lookups on packed rows ≡ the definitional table semantics.

:class:`repro.smt.fdd.TableFdd` answers the gate's one question — which
entry wins at this concrete key point? — by scanning the table's active
rows.  The reference here shares nothing with it: ``match_hits`` per key
over ``ordered_entries()`` (eclipsed entries included; they never fire,
so the answer is the same), after random insert / modify / delete
sequences, on key shapes taken from the program zoo.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.analysis import analyze
from repro.analysis.model import KeyInfo, TableInfo
from repro.p4.parser import parse_program
from repro.programs import registry
from repro.runtime.entries import (
    ExactMatch,
    LpmMatch,
    TableEntry,
    TernaryMatch,
    as_value_mask,
    match_hits,
)
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import DELETE, INSERT, MODIFY, TableState
from repro.smt import terms as T
from repro.smt.fdd import MISS, TableFdd

ACTIONS = ["hit_0", "hit_1", "hit_2"]

#: (match kinds, key widths) of real zoo tables.
EXACT_SHAPES = [
    (["exact", "exact"], [9, 16]),  # scion ingress_interface_map
    (["exact"] * 4, [32, 32, 16, 16]),  # switch nat_table
]
LPM_SHAPES = [
    (["lpm"], [64]),  # scion ipv6_forward
    (["exact", "lpm"], [16, 32]),  # switch ipv4_lpm
]
ACL_PRE_INGRESS = (["ternary"] * 7, [48, 48, 32, 32, 6, 8, 9])  # middleblock
TERNARY_SHAPES = [
    ACL_PRE_INGRESS,
    (["ternary"] * 5, [32, 32, 8, 16, 16]),  # switch ipv4_acl
    (["exact", "ternary"], [9, 48]),  # switch storm_control_pg*
]


def make_table(match_kinds, widths, name="t"):
    keys = [
        KeyInfo(term=T.data_var(f"{name}.k{i}", w), match_kind=kind, width=w)
        for i, (kind, w) in enumerate(zip(match_kinds, widths))
    ]
    codes = {a: i for i, a in enumerate(ACTIONS + ["miss"])}
    return TableInfo(
        name=f"C.{name}",
        local_name=name,
        control="C",
        keys=keys,
        action_order=list(ACTIONS),
        action_codes=codes,
        default_action="miss",
        default_args=(),
        action_params={},
        size=None,
        selector_var=T.control_var(f"|C.{name}.action|", 8),
        hit_var=T.control_var(f"|C.{name}.hit|", 1),
        apply_condition=T.TRUE,
    )


def indexed_state(info):
    state = TableState(info)
    state.fdd = TableFdd()
    return state


def lookup(state, key_values):
    return state.fdd.lookup(state.pack_point(key_values), state)


def first_match(state, key_values):
    """The definitional semantics: scan in precedence order, first hit wins."""
    widths = state.info.key_widths()
    for entry in state.ordered_entries():
        if all(
            match_hits(match, value, width)
            for match, value, width in zip(entry.matches, key_values, widths)
        ):
            return (entry.action, entry.args)
    return MISS


def point_inside(entry, widths, rng):
    """A key point in the entry's region: masked value, free bits random."""
    point = []
    for match, width in zip(entry.matches, widths):
        value, mask = as_value_mask(match, width)
        point.append((value & mask) | (rng.getrandbits(width) & ~mask))
    return tuple(point)


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------


def test_keys_are_concatenated_without_overlap():
    widths = ACL_PRE_INGRESS[1]
    state = TableState(make_table(*ACL_PRE_INGRESS))
    assert state._shifts == (0, 48, 96, 128, 160, 166, 174)
    full = [(1 << w) - 1 for w in widths]
    assert state.pack_point(full) == (1 << sum(widths)) - 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pack_point_round_trips(data):
    kinds, widths = data.draw(st.sampled_from(EXACT_SHAPES + LPM_SHAPES + TERNARY_SHAPES))
    values = [data.draw(st.integers(0, (1 << w) - 1)) for w in widths]
    state = TableState(make_table(kinds, widths))
    assert state.unpack_point(state.pack_point(values)) == values


def test_empty_table_is_miss_everywhere():
    state = indexed_state(make_table(["exact"], [8]))
    assert lookup(state, (0,)) == MISS
    assert lookup(state, (255,)) == MISS
    assert state.fdd.row_count() == 0


def test_higher_precedence_row_wins_the_overlap():
    state = indexed_state(make_table(["exact", "ternary"], [8, 8]))
    state.apply(INSERT, TableEntry((ExactMatch(3), TernaryMatch(0, 0)), "hit_0", (), 5))
    state.apply(INSERT, TableEntry((ExactMatch(3), TernaryMatch(7, 0xFF)), "hit_1", (), 9))
    assert lookup(state, (3, 7)) == ("hit_1", ())
    assert lookup(state, (3, 0)) == ("hit_0", ())
    assert lookup(state, (4, 7)) == MISS


# ---------------------------------------------------------------------------
# lookup ≡ brute-force first match, after random update sequences
# ---------------------------------------------------------------------------


def draw_match(draw, kind, width):
    value = draw(st.integers(0, (1 << width) - 1))
    if kind == "exact":
        return ExactMatch(value)
    if kind == "lpm":
        plen = draw(st.integers(0, width))
        mask = ((1 << plen) - 1) << (width - plen) if plen else 0
        return LpmMatch(value & mask, plen)
    # Unstructured: any subset of bits, interleaved free and cared.
    mask = draw(st.integers(0, (1 << width) - 1))
    return TernaryMatch(value & mask, mask)


def run_random_updates(data, shapes):
    kinds, widths = data.draw(st.sampled_from(shapes))
    state = indexed_state(make_table(kinds, widths))
    live: dict = {}
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    for _ in range(data.draw(st.integers(1, 14))):
        op = data.draw(st.sampled_from([INSERT, INSERT, INSERT, MODIFY, DELETE]))
        if op == INSERT or not live:
            entry = TableEntry(
                tuple(draw_match(data.draw, k, w) for k, w in zip(kinds, widths)),
                data.draw(st.sampled_from(ACTIONS)),
                (),
                data.draw(st.integers(0, 5)),
            )
            if entry.match_key() in live:
                continue
            state.apply(INSERT, entry)
            live[entry.match_key()] = entry
        else:
            key = data.draw(st.sampled_from(sorted(live, key=repr)))
            old = live[key]
            if op == MODIFY:
                entry = TableEntry(
                    old.matches, data.draw(st.sampled_from(ACTIONS)), (), old.priority
                )
                state.apply(MODIFY, entry)
                live[key] = entry
            else:
                state.apply(DELETE, old)
                del live[key]
        # Look up after every step, so stale rows would be caught at once.
        probes = [point_inside(e, widths, rng) for e in live.values()]
        probes.append(tuple(rng.getrandbits(w) for w in widths))
        for probe in probes:
            assert lookup(state, probe) == first_match(state, probe), probe
        assert state.fdd.row_count() == len(state.active_entries())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lookup_is_first_match_on_exact_tables(data):
    run_random_updates(data, EXACT_SHAPES)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lookup_is_first_match_on_lpm_tables(data):
    run_random_updates(data, LPM_SHAPES)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lookup_is_first_match_on_unstructured_ternary_tables(data):
    run_random_updates(data, TERNARY_SHAPES)


# ---------------------------------------------------------------------------
# e2e README defect 4: uniform masks on middleblock's 7-key ACL
# ---------------------------------------------------------------------------


class UniformMaskFuzzer(EntryFuzzer):
    """EntryFuzzer with every ternary mask drawn uniformly (no prefixes)."""

    def _match(self, kind, width):
        if kind != "ternary":
            return super()._match(kind, width)
        mask = self.rng.randrange(1 << width)
        return TernaryMatch(self.rng.randrange(1 << width) & mask, mask)


def test_uniform_masks_on_acl_pre_ingress_cost_one_row_each():
    """Thirty such entries took the interval diagram seconds to forever;
    the rows hold one pair per active entry and every lookup is exact."""
    model = analyze(parse_program(registry.get("middleblock").source()))
    info = model.table("acl_pre_ingress")
    assert info.key_widths() == ACL_PRE_INGRESS[1]
    state = indexed_state(info)
    entries = UniformMaskFuzzer(model, seed=4).unique_entries("acl_pre_ingress", 30)
    for entry in entries:
        state.apply(INSERT, entry)
    rng = random.Random(4)
    widths = info.key_widths()
    for entry in entries:
        for _ in range(4):
            probe = point_inside(entry, widths, rng)
            assert lookup(state, probe) == first_match(state, probe)
    assert lookup(state, (0,) * 7) == first_match(state, (0,) * 7)
    assert state.fdd.rebuilds == 1
    assert state.fdd.row_count() == len(state.active_entries()) <= 30


# ---------------------------------------------------------------------------
# Laziness and retention
# ---------------------------------------------------------------------------


def test_rows_are_derived_on_lookup_not_on_update():
    state = indexed_state(make_table(["exact"], [16]))
    for i in range(20):
        state.apply(INSERT, TableEntry((ExactMatch(i),), "hit_0", (), 0))
    assert state.fdd.rebuilds == 0
    for i in range(20):
        assert lookup(state, (i,)) == ("hit_0", ())
    assert state.fdd.rebuilds == 1  # one re-pack served all twenty lookups
    state.apply(MODIFY, TableEntry((ExactMatch(3),), "hit_2", (), 0))
    assert lookup(state, (3,)) == ("hit_2", ())
    state.clear()
    assert lookup(state, (3,)) == MISS
    assert state.fdd.rebuilds == 3


def test_churn_leaves_only_the_live_entries_behind():
    """The interval diagram's node table kept every intermediate node of
    every rebuild; rows and pairs are bounded by what is installed."""
    state = indexed_state(make_table(*TERNARY_SHAPES[1]))
    kinds, widths = TERNARY_SHAPES[1]
    rng = random.Random(7)

    def fresh(i):
        matches = []
        for width in widths:
            mask = rng.getrandbits(width)
            matches.append(TernaryMatch(rng.getrandbits(width) & mask, mask))
        return TableEntry(tuple(matches), ACTIONS[i % 3], (), 1 + i % 50)

    resident = [fresh(i) for i in range(8)]
    for entry in resident:
        state.apply(INSERT, entry)
    for round_no in range(200):
        entry = fresh(round_no)
        state.apply(INSERT, entry)
        probe = point_inside(entry, widths, rng)
        assert lookup(state, probe) == first_match(state, probe)
        state.apply(DELETE, entry)
        assert lookup(state, probe) == first_match(state, probe)
    assert len(state) == len(resident)
    assert len(state._rows) == len(resident)
    assert state.fdd.row_count() == len(state.active_entries()) <= len(resident)
