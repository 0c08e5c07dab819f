"""The warm path is change-driven: a point is re-queried only when one of
its control symbols was re-assigned.

``set_many`` reports the symbols whose assignment is a different interned
term than before; the re-verdict routine visits the points tainted by
those and no others.  An update into an overapproximated table therefore
re-queries nothing (its ``!any`` assignment is the same object before and
after), a precise insert leaves the other actions' parameter symbols
alone, and re-installing a value set is free.  Everything is checked
against an engine rebuilt from scratch on the final control plane.

The overapproximated forward is O(1) in the table's size: it validates
and keys its entry once, builds no term, copies no verdict through
``dataclasses.replace``, and hands back the table's one ``!any`` mapping.
A batch, through ``process_batch`` or ``apply_batch``, validates each net
entry once as well, and is still all-or-nothing.
"""

import dataclasses
import importlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Flay, FlayOptions
from repro.engine.queries import QueryEngine
from repro.p4.parser import parse_program
from repro.programs import registry
from repro.programs.fig3 import FIG3_SOURCE
from repro.runtime import semantics
from repro.runtime.entries import EntryError, TableEntry, TernaryMatch
from repro.runtime.fuzzer import EntryFuzzer, ipv4_route_entries
from repro.runtime.semantics import DELETE, INSERT, MODIFY, Update, ValueSetUpdate
from repro.smt.terms import TermFactory

# ``repro.smt`` re-exports a ``substitute`` function under the module's name.
substitute_module = importlib.import_module("repro.smt.substitute")

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
            fresh.decide(ValueSetUpdate(name, tuple(values)))
    return fresh


def assert_same_result(a, b):
    assert a.runtime.point_verdicts == b.runtime.point_verdicts
    assert a.runtime.table_verdicts == b.runtime.table_verdicts
    assert a.specialized_source() == b.specialized_source()


def tainted_by(flay, table):
    info = flay.model.table(table)
    return flay.model.points_for_control_vars(info.control_var_names())


class WorkCounters:
    """What a change-free update must not touch: no screen, no propagation,
    no new node, no pull, no rewrite."""

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
            len(self.substitution._heights),
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


@pytest.fixture()
def calls(monkeypatch):
    """Calls by name: ``validate_entry`` (as the control-plane state binds
    it), ``match_key`` (``TableEntry.match_key``), ``_mk`` (every term the
    factory builds or looks up), ``_check`` (the substitution's check of an
    assignment) and ``replace`` (``dataclasses.replace``)."""
    counts: Counter = Counter()

    def count(name, original):
        def spy(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return spy

    monkeypatch.setattr(
        semantics, "validate_entry", count("validate_entry", semantics.validate_entry)
    )
    monkeypatch.setattr(TableEntry, "match_key", count("match_key", TableEntry.match_key))
    monkeypatch.setattr(TermFactory, "_mk", count("_mk", TermFactory._mk))
    monkeypatch.setattr(
        substitute_module, "_check", count("_check", substitute_module._check)
    )
    monkeypatch.setattr(dataclasses, "replace", count("replace", dataclasses.replace))
    return counts


def table_snapshot(flay):
    """Every table's entries and revision, and the update count."""
    state = flay.runtime.state
    return (
        {
            name: (table.entries(), table.revision())
            for name, table in state.tables.items()
        },
        state.update_count,
    )


@pytest.mark.parametrize("name", ZOO)
class TestZoo:
    def test_overapproximated_update_requeries_nothing(self, name, programs, calls):
        table, action_a, action_b = ZOO[name]
        flay = make_flay(programs[name])
        entries = routes(flay, table, (action_a, action_b), THRESHOLD + 12)
        flay.process_batch(
            [Update(table, INSERT, entry) for entry in entries[: THRESHOLD + 10]]
        )
        assert flay.runtime.table_assignments[table].overapproximated
        mapping = flay.runtime.table_assignments[table].mapping
        work = WorkCounters(flay)
        assert entries[1].action == action_b  # the one with action data
        for update in (
            Update(table, INSERT, entries[THRESHOLD + 10]),
            Update(table, DELETE, entries[0]),
            Update(table, MODIFY, with_new_args(flay, table, entries[1])),
        ):
            work.reset()
            calls.clear()
            decision = flay.process_update(update)
            assert decision.forwarded and decision.overapproximated
            assert decision.affected_points == 0
            work.assert_untouched()
            # O(1): the entry is validated and keyed once, no term is
            # built, no assignment re-checked, no verdict copied field by
            # field, and the table keeps its one `!any` mapping.
            assert calls["_mk"] == calls["_check"] == 0
            assert calls["replace"] == 0
            assert calls["validate_entry"] == calls["match_key"] == 1
            assert flay.runtime.table_assignments[table].mapping is mapping
            live = len(flay.runtime.state.tables[table])
            assert flay.runtime.table_verdicts[table].entry_count == live
        assert_same_result(flay, rebuild(programs[name], flay))

    def test_a_batch_validates_each_net_entry_once(self, name, programs, calls):
        table, action_a, action_b = ZOO[name]
        flay = make_flay(programs[name])
        entries = routes(flay, table, (action_a, action_b), 30)
        flay.process_batch([Update(table, INSERT, entry) for entry in entries[:20]])
        burst = (
            [Update(table, INSERT, entry) for entry in entries[20:]]
            + [
                Update(table, MODIFY, with_new_args(flay, table, entry))
                for entry in entries[:5]
            ]
            + [Update(table, DELETE, entry) for entry in entries[5:10]]
            + EntryFuzzer(flay.model, seed=3).representative_updates(SIDE_TABLE[name], 1)
        )
        calls.clear()
        flay.decide(burst)
        # Nothing folds, so every update is a net update.
        assert calls["validate_entry"] == calls["match_key"] == len(burst)
        assert_same_result(flay, rebuild(programs[name], flay))

    def test_a_folding_burst_keys_each_input_once(self, name, programs, calls):
        table, action_a, action_b = ZOO[name]
        flay = make_flay(programs[name])
        entries = routes(flay, table, (action_a, action_b), 8)
        flay.process_batch([Update(table, INSERT, entry) for entry in entries[:4]])
        burst = [
            Update(table, INSERT, entries[4]),
            Update(table, MODIFY, with_new_args(flay, table, entries[4])),  # folds
            Update(table, INSERT, entries[5]),
            Update(table, DELETE, entries[5]),  # cancels the insert
            Update(table, MODIFY, with_new_args(flay, table, entries[0])),
            Update(table, MODIFY, with_new_args(flay, table, entries[0], 2)),  # folds
            Update(table, DELETE, entries[1]),
        ]
        calls.clear()
        report = flay.decide(burst)
        assert report.coalesced_count == 3
        # The fold keys each input update; the check reuses the keys and
        # validates every input entry, the folded ones included, and the
        # commit validates nothing again.
        assert calls["match_key"] == calls["validate_entry"] == len(burst)
        assert_same_result(flay, rebuild(programs[name], flay))

    @pytest.mark.parametrize("cancelled", [False, True], ids=["alone", "then_deleted"])
    @pytest.mark.parametrize("bad", ["duplicate", "out_of_range"])
    def test_a_bad_entry_mid_batch_changes_nothing(self, name, programs, bad, cancelled):
        table, action_a, action_b = ZOO[name]
        flay = make_flay(programs[name])
        entries = routes(flay, table, (action_a, action_b), 30)
        flay.process_batch([Update(table, INSERT, entry) for entry in entries[:20]])
        if bad == "duplicate":
            wrong = Update(table, INSERT, entries[3])
        else:
            params = flay.model.table(table).action_params[action_b]
            wrong = Update(
                table,
                INSERT,
                TableEntry(
                    entries[29].matches,
                    action_b,
                    tuple(1 << param.width for param in params),
                    entries[29].priority,
                ),
            )
        good = [Update(table, INSERT, entry) for entry in entries[20:29]] + [
            Update(table, DELETE, entries[0])
        ]
        good += EntryFuzzer(flay.model, seed=3).representative_updates(SIDE_TABLE[name], 1)
        before = table_snapshot(flay)
        # Deleted later in the burst, the bad insert folds away; it must
        # fail all the same, as it fails when applied on its own.
        bad_ops = [wrong, Update(table, DELETE, wrong.entry)] if cancelled else [wrong]
        with pytest.raises(EntryError):
            flay.decide(good[:5] + bad_ops + good[5:])
        assert table_snapshot(flay) == before
        # The batch without the bad entry goes through.
        flay.decide(good)
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
        points, substitution = flay.model.points, flay.runtime.substitution
        tainted = flay.model.points_for_control_vars(info.control_var_names())
        before = {pid: substitution.apply(points[pid].expr) for pid in tainted}
        del requeried[:]
        decision = flay.process_update(Update(table, INSERT, entries[4]))
        assert not decision.overapproximated
        # The selector moved, so every point it taints is affected; of the
        # table's points, exactly the ones whose pulled term moved are
        # re-queried, each once, and the others are counted as unchanged.
        moved = {
            pid for pid in tainted if substitution.apply(points[pid].expr) is not before[pid]
        }
        assert set(requeried) == moved and len(requeried) == len(moved)
        assert decision.affected_points >= len(flay.model.taint[info.selector_var.name])
        assert decision.unchanged_points >= decision.affected_points - len(moved)
        assert not only_b & set(requeried)
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

        flay = engine()
        report = flay.decide(burst)
        assert report.group_count >= 2
        assert set(report.changed) == sequential_changed
        assert report.affected_points < len(
            tainted_by(flay, table) | tainted_by(flay, side)
        )
        assert_same_result(flay, sequential)


def test_reinstalling_a_value_set_requeries_nothing():
    flay = make_flay(parse_program(FIG3_WITH_VALUE_SET))
    first = flay.decide(ValueSetUpdate("types", (0x800, 0x86DD)))
    assert first.affected_points > 0
    work = WorkCounters(flay)
    again = flay.decide(ValueSetUpdate("types", (0x800, 0x86DD)))
    assert again.forwarded
    assert again.affected_points == 0
    work.assert_untouched()
    moved = flay.decide(ValueSetUpdate("types", (0x800,)))
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
    # One ``decide`` per update, or one for the whole chunk.
    st.sampled_from(["update", "burst"]),
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
            decisions = [flay.decide(update) for update in updates]
        else:
            decisions = [flay.decide(updates)]
        assert all(0 <= d.affected_points <= every_point for d in decisions)
        assert_same_result(
            flay, rebuild(program, flay, overapprox_threshold=FIG3_THRESHOLD)
        )
