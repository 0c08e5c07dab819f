"""The warm path is change-driven: a point is re-queried only when one of
its control symbols was re-assigned.

``set_many`` reports the symbols whose assignment is a different interned
term than before; the re-verdict routine visits the points tainted by
those and no others.  An update into an overapproximated table therefore
re-queries nothing (its ``!any`` assignment is the same object before and
after), a precise insert leaves the other actions' parameter symbols
alone, and re-installing a value set is free.  Everything is checked
against an engine rebuilt from scratch on the final control plane.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Flay, FlayOptions
from repro.engine.queries import QueryEngine
from repro.p4.parser import parse_program
from repro.programs import registry
from repro.programs.fig3 import FIG3_SOURCE
from repro.runtime.entries import TableEntry, TernaryMatch
from repro.runtime.fuzzer import EntryFuzzer, ipv4_route_entries
from repro.runtime.semantics import DELETE, INSERT, MODIFY, Update, ValueSetUpdate

#: program → (route table, action A, action B with parameters).  Every
#: table has points tainted by B's parameter symbols and by no other
#: symbol of the table.
ZOO = {
    "scion": ("ScionIngress.ipv4_forward", "noop", "deliver_local_v4"),
    "switch": ("SwitchIngress.ipv4_host", "set_ecmp_group", "set_nexthop"),
    "middleblock": (
        "MiddleblockIngress.ipv4_route",
        "set_wcmp_group",
        "set_nexthop_id",
    ),
}
#: Tables in other conflict groups than the route table, so that batches
#: split (one per program is enough for two groups).
SIDE_TABLE = {
    "scion": "ScionIngress.bfd_sessions",
    "switch": "SwitchIngress.dmac_table",
    "middleblock": "MiddleblockIngress.ecn_marking",
}
THRESHOLD = 100  # the default overapproximation threshold

FIG3_WITH_VALUE_SET = FIG3_SOURCE.replace(
    """    state start {
        pkt_extract(hdr.eth);
        transition accept;
    }""",
    """    value_set<bit<16>>(4) types;
    state start {
        pkt_extract(hdr.eth);
        transition select(hdr.eth.type) { types: accept; default: accept; }
    }""",
)
assert FIG3_WITH_VALUE_SET != FIG3_SOURCE


@pytest.fixture(scope="module")
def programs():
    return {name: registry.load(name) for name in ZOO}


def make_flay(program, **options):
    return Flay(program, FlayOptions(target="none", **options))


def routes(flay, table, actions, count, seed=5):
    """``count`` routes with distinct match keys, cycling through ``actions``."""
    streams = [
        ipv4_route_entries(flay.model, table, count, action, seed=seed + index)
        for index, action in enumerate(actions)
    ]
    seen: set = set()
    entries: list = []
    turn = 0
    while len(entries) < count:
        entry = next(streams[turn % len(streams)])
        turn += 1
        if entry.match_key() not in seen:
            seen.add(entry.match_key())
            entries.append(entry)
    return entries


def with_new_args(flay, table, entry, bump=1):
    """``entry`` with the same key and action but different action data."""
    params = flay.model.table(table).action_params[entry.action]
    args = tuple(
        (arg + bump) % (1 << param.width) for arg, param in zip(entry.args, params)
    )
    return TableEntry(entry.matches, entry.action, args, entry.priority)


def rebuild(program, flay, **options):
    """A fresh engine given ``flay``'s control plane in one batch."""
    fresh = make_flay(program, **options)
    fresh.process_batch(
        [
            Update(name, INSERT, entry)
            for name, state in flay.runtime.state.tables.items()
            for entry in state.entries()
        ]
    )
    for name, values in flay.runtime.state.value_sets.items():
        if values:
            fresh.process_value_set_update(ValueSetUpdate(name, tuple(values)))
    return fresh


def assert_same_result(a, b):
    assert a.runtime.point_verdicts == b.runtime.point_verdicts
    assert a.runtime.table_verdicts == b.runtime.table_verdicts
    assert a.specialized_source() == b.specialized_source()


def tainted_by(flay, table):
    info = flay.model.table(table)
    return flay.model.points_for_control_vars(info.control_var_names())


class WorkCounters:
    """What a change-free update must not touch: no screen, no dirty mark,
    no pull, no rewrite."""

    def __init__(self, flay):
        self.gate = flay.runtime.gate
        self.substitution = flay.runtime.substitution
        self.counter = self.substitution.counter
        self.reset()

    def reset(self):
        self.before = self.read()

    def read(self):
        return (
            self.gate.stats.screened,
            self.counter.invalidations,
            len(self.substitution._dirty),
            self.counter.hits + self.counter.misses,
            self.substitution.rewrites,
        )

    def assert_untouched(self):
        assert self.read() == self.before


@pytest.fixture()
def requeried(monkeypatch):
    """The pids handed to ``QueryEngine.point_verdict``, in call order."""
    pids: list = []
    original = QueryEngine.point_verdict

    def spy(self, point, substitution, memo=None):
        pids.append(point.pid)
        return original(self, point, substitution, memo)

    monkeypatch.setattr(QueryEngine, "point_verdict", spy)
    return pids


@pytest.mark.parametrize("name", ZOO)
class TestZoo:
    def test_overapproximated_update_requeries_nothing(self, name, programs):
        table, action_a, action_b = ZOO[name]
        flay = make_flay(programs[name])
        entries = routes(flay, table, (action_a, action_b), THRESHOLD + 12)
        flay.process_batch(
            [Update(table, INSERT, entry) for entry in entries[: THRESHOLD + 10]]
        )
        assert flay.runtime.table_assignments[table].overapproximated
        work = WorkCounters(flay)
        assert entries[1].action == action_b  # the one with action data
        for update in (
            Update(table, INSERT, entries[THRESHOLD + 10]),
            Update(table, DELETE, entries[0]),
            Update(table, MODIFY, with_new_args(flay, table, entries[1])),
        ):
            work.reset()
            decision = flay.process_update(update)
            assert decision.forwarded and decision.overapproximated
            assert decision.affected_points == 0
            work.assert_untouched()
            live = len(flay.runtime.state.tables[table])
            assert flay.runtime.table_verdicts[table].entry_count == live
        assert_same_result(flay, rebuild(programs[name], flay))

    def test_threshold_crossing_requeries_every_tainted_point(self, name, programs):
        table, action_a, action_b = ZOO[name]
        flay = make_flay(programs[name])
        entries = routes(flay, table, (action_a, action_b), THRESHOLD + 1)
        flay.process_batch(
            [Update(table, INSERT, entry) for entry in entries[:THRESHOLD]]
        )
        assert not flay.runtime.table_assignments[table].overapproximated
        tainted = tainted_by(flay, table)
        up = flay.process_update(Update(table, INSERT, entries[THRESHOLD]))
        assert up.overapproximated
        assert up.affected_points == len(tainted)
        assert_same_result(flay, rebuild(programs[name], flay))
        down = flay.process_update(Update(table, DELETE, entries[THRESHOLD]))
        assert not down.overapproximated
        assert down.affected_points == len(tainted)
        assert_same_result(flay, rebuild(programs[name], flay))

    def test_precise_insert_spares_the_other_actions_parameters(
        self, name, programs, requeried
    ):
        table, action_a, action_b = ZOO[name]
        flay = make_flay(programs[name])
        info = flay.model.table(table)
        entries = routes(flay, table, (action_a, action_b), 5)
        flay.process_batch([Update(table, INSERT, entry) for entry in entries[:4]])
        b_params = {param.var.name for param in info.action_params[action_b]}
        others = info.control_var_names() - b_params
        only_b = {
            pid
            for pid in flay.model.points_for_control_vars(b_params)
            if not others & set(flay.model.points[pid].control_vars())
        }
        assert only_b
        assert entries[4].action == action_a
        del requeried[:]
        decision = flay.process_update(Update(table, INSERT, entries[4]))
        assert not decision.overapproximated
        assert decision.affected_points == len(requeried) == len(set(requeried))
        assert not only_b & set(requeried)
        assert flay.model.taint[info.selector_var.name] <= set(requeried)
        assert_same_result(flay, rebuild(programs[name], flay))

    def test_batch_paths_agree_on_changed_and_requeried(self, name, programs):
        table, action_a, action_b = ZOO[name]
        side = SIDE_TABLE[name]
        program = programs[name]
        probe = make_flay(program)
        warm = [
            Update(table, INSERT, entry)
            for entry in routes(probe, table, (action_a, action_b), THRESHOLD + 5)
        ]
        burst_routes = routes(probe, table, (action_a, action_b), THRESHOLD + 25)
        burst = [Update(table, INSERT, e) for e in burst_routes[THRESHOLD + 5 :]]
        # First entries into an empty table: these change verdicts.
        burst += EntryFuzzer(probe.model, seed=3).representative_updates(side, 1)
        burst.append(Update(table, DELETE, burst_routes[0]))

        def engine():
            flay = make_flay(program)
            flay.process_batch(warm)
            return flay

        sequential = engine()
        sequential_changed: set = set()
        for update in burst:
            sequential_changed.update(sequential.process_update(update).changed)
        assert sequential_changed

        whole = engine()
        decision = whole.process_batch(burst)
        assert set(decision.changed) == sequential_changed
        assert_same_result(whole, sequential)
        for workers in (1, 4):
            flay = engine()
            report = flay.apply_batch(burst, workers=workers)
            assert report.group_count >= 2
            assert sorted(report.changed) == sorted(decision.changed)
            assert report.affected_points == decision.affected_points
            assert report.affected_points < len(
                tainted_by(flay, table) | tainted_by(flay, side)
            )
            assert_same_result(flay, sequential)


def test_reinstalling_a_value_set_requeries_nothing():
    flay = make_flay(parse_program(FIG3_WITH_VALUE_SET))
    first = flay.process_value_set_update(ValueSetUpdate("types", (0x800, 0x86DD)))
    assert first.affected_points > 0
    work = WorkCounters(flay)
    again = flay.process_value_set_update(ValueSetUpdate("types", (0x800, 0x86DD)))
    assert again.forwarded
    assert again.affected_points == 0
    work.assert_untouched()
    moved = flay.process_value_set_update(ValueSetUpdate("types", (0x800,)))
    assert moved.affected_points > 0


# -- a Hypothesis stream mixing all of the above ------------------------------

FIG3_TABLE = "Fig3Ingress.eth_table"
FIG3_THRESHOLD = 3  # low, so streams cross it in both directions
FIG3_KEYS = [
    TernaryMatch(0x1, 0xFFFFFFFFFFFF),
    TernaryMatch(0x2, 0xFFFFFFFFFFFF),
    TernaryMatch(0x3, 0xFFFFFFFFFFFF),
    TernaryMatch(0x10, 0xFFFFFFFFFFF0),
    TernaryMatch(0x100, 0xFFFFFFFFFF00),
    TernaryMatch(0x0, 0x0),
]
FIG3_ACTIONS = [("set", (0x800,)), ("set", (0x900,)), ("drop", ()), ("noop", ())]

UPSERT = st.tuples(
    st.just("upsert"), st.integers(0, len(FIG3_KEYS) - 1), st.sampled_from(FIG3_ACTIONS)
)
REMOVE = st.tuples(st.just("remove"), st.integers(0, len(FIG3_KEYS) - 1))
VALUE_SET = st.tuples(
    st.just("value_set"),
    st.lists(st.sampled_from([0x800, 0x806, 0x86DD]), max_size=3, unique=True),
)
CHUNK = st.tuples(
    # An int is ``apply_batch`` at that worker count.
    st.sampled_from(["update", "process_batch", 1, 4]),
    st.lists(st.one_of(UPSERT, REMOVE, VALUE_SET), min_size=1, max_size=6),
)


def _concretize(ops, live):
    """Abstract ops → updates valid against ``live`` (key index → entry)."""
    updates: list = []
    for op in ops:
        if op[0] == "value_set":
            updates.append(ValueSetUpdate("types", tuple(op[1])))
        elif op[0] == "upsert":
            _, key, (action, args) = op
            entry = TableEntry((FIG3_KEYS[key],), action, args, priority=10 + key)
            updates.append(
                Update(FIG3_TABLE, MODIFY if key in live else INSERT, entry)
            )
            live[key] = entry
        elif op[1] in live:
            updates.append(Update(FIG3_TABLE, DELETE, live.pop(op[1])))
    return updates


@settings(max_examples=60, deadline=None)
@given(chunks=st.lists(CHUNK, min_size=1, max_size=6))
def test_fig3_stream_matches_a_from_scratch_rebuild(chunks):
    program = parse_program(FIG3_WITH_VALUE_SET)
    flay = make_flay(program, overapprox_threshold=FIG3_THRESHOLD)
    every_point = len(flay.model.points)
    live: dict = {}
    for mode, ops in chunks:
        updates = _concretize(ops, live)
        if mode == "update":
            decisions = [
                flay.process_value_set_update(update)
                if isinstance(update, ValueSetUpdate)
                else flay.process_update(update)
                for update in updates
            ]
        elif mode == "process_batch":
            decisions = [flay.process_batch(updates)]
        else:
            decisions = [flay.apply_batch(updates, workers=mode)]
        assert all(0 <= d.affected_points <= every_point for d in decisions)
        assert_same_result(
            flay, rebuild(program, flay, overapprox_threshold=FIG3_THRESHOLD)
        )
