"""Property + handwritten tests for the burst's one fold-and-check pass.

The coalescer's contract: replaying the *coalesced* stream against the
pre-burst control-plane state yields exactly the same final state — same
entries, same dict insertion order (which exact-match precedence depends
on), same eclipse-elided active lists — as replaying the original stream,
and a stream that applying it one update at a time would reject raises
:class:`EntryError` before anything commits.  Its net ops, their order
and its counts equal the former two-pass fold's
(:mod:`tests.engine.batch_reference`).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze
from repro.engine.batch import coalesce, conflict_components
from repro.p4.parser import parse_program
from repro.runtime.entries import EntryError, ExactMatch, TableEntry, TernaryMatch
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import (
    DELETE,
    INSERT,
    MODIFY,
    ControlPlaneState,
    Update,
    ValueSetUpdate,
)
from tests.engine.batch_reference import reference_group_count, resolved_coalesce

SOURCE = """
header h_t { bit<8> f; bit<8> g; bit<16> tag; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    value_set<bit<16>>(2) vs;
    state start {
        pkt_extract(hdr.h);
        transition select(hdr.h.tag) { vs: accept; default: accept; }
    }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action set(bit<8> v) { meta.m = v; }
    action noop() { }
    table tern {
        key = { hdr.h.f: ternary; }
        actions = { set; noop; }
        default_action = noop();
    }
    table flat {
        key = { hdr.h.g: exact; }
        actions = { set; noop; }
        default_action = noop();
    }
    apply { tern.apply(); flat.apply(); }
}
Pipeline(P(), C()) main;
"""


@pytest.fixture(scope="module")
def model():
    return analyze(parse_program(SOURCE))


def tern(value, mask=0xFF, action="set", args=(1,), priority=1):
    return TableEntry((TernaryMatch(value, mask),), action, args, priority)


def flat(value, action="set", args=(1,)):
    return TableEntry((ExactMatch(value),), action, args, 0)


def state_with(model, installed=()):
    state = ControlPlaneState(model)
    for update in installed:
        state.apply_update(update)
    return state


def fold(model, batch, installed=()):
    """``coalesce`` of ``batch`` against a state holding ``installed``."""
    return coalesce(state_with(model, installed), batch, conflict_components(model))


def net_updates(model, batch, installed=()):
    return [update for update, _ in fold(model, batch, installed)[0]]


def replay(model, state_updates, batch):
    """Final state after ``state_updates`` then ``batch``, table by table."""
    state = ControlPlaneState(model)
    for update in list(state_updates) + list(batch):
        if isinstance(update, ValueSetUpdate):
            state.apply_value_set_update(update)
        else:
            state.apply_update(update)
    return {
        name: (table.entries(), table.active_entries())
        for name, table in state.tables.items()
    }, state.value_sets


def comparable(model, update):
    """An update as (kind, qualified name, payload), whatever it was named."""
    if isinstance(update, ValueSetUpdate):
        return ("value-set", model.value_set(update.value_set).name, tuple(update.values))
    return (update.op, model.table(update.table).name, update.entry)


class TestFolds:
    def test_insert_then_delete_vanishes(self, model):
        entry = tern(1)
        batch = [Update("tern", INSERT, entry), Update("tern", DELETE, entry)]
        ops, groups, inserted = fold(model, batch)
        assert ops == []
        assert len(batch) - len(ops) == 2  # both folded
        assert groups == 0 and inserted == set()

    def test_modify_after_insert_collapses_into_insert(self, model):
        first, second = tern(1, args=(1,)), tern(1, args=(9,))
        other = tern(2)
        batch = [
            Update("tern", INSERT, first),
            Update("tern", INSERT, other),
            Update("tern", MODIFY, second),
        ]
        collapsed, kept = net_updates(model, batch)
        assert collapsed.op == INSERT
        assert collapsed.entry is second
        # At the precedence position of the original insert.
        assert kept is batch[1]

    def test_repeated_modify_keeps_last_write(self, model):
        versions = [tern(1, args=(v,)) for v in (1, 2, 3)]
        batch = [Update("tern", MODIFY, v) for v in versions]
        (update,) = net_updates(model, batch, [Update("tern", INSERT, tern(1))])
        assert update.op == MODIFY
        assert update is batch[-1]  # the submitted update itself

    def test_modify_then_delete_folds_to_delete(self, model):
        batch = [Update("tern", MODIFY, tern(1, args=(5,))), Update("tern", DELETE, tern(1))]
        (update,) = net_updates(model, batch, [Update("tern", INSERT, tern(1))])
        assert update.op == DELETE

    def test_delete_then_reinsert_emits_both_in_order(self, model):
        batch = [Update("tern", DELETE, tern(1)), Update("tern", INSERT, tern(1, args=(7,)))]
        updates = net_updates(model, batch, [Update("tern", INSERT, tern(1))])
        assert [update.op for update in updates] == [DELETE, INSERT]

    def test_survivors_keep_relative_input_order(self, model):
        a, b, c = tern(1), tern(2), tern(3)
        batch = [
            Update("tern", INSERT, a),
            Update("tern", INSERT, b),
            Update("tern", DELETE, a),  # cancels the first insert
            Update("tern", INSERT, c),
        ]
        assert net_updates(model, batch) == [batch[1], batch[3]]

    def test_value_set_last_write_wins(self, model):
        batch = [
            ValueSetUpdate("vs", (1, 2)),
            Update("tern", INSERT, tern(1)),
            ValueSetUpdate("vs", (9,)),
        ]
        first, second = net_updates(model, batch)
        # Anchored where the set was first reconfigured, with the last write.
        assert first is batch[2]
        assert second is batch[1]

    def test_priority_tie_preserves_insertion_order(self, model):
        # Two ternary entries with equal priority: precedence falls back to
        # insertion order, so the coalesced replay must install them in the
        # original order even after an unrelated fold in between.
        a, b = tern(1, priority=5), tern(2, priority=5)
        scratch = tern(3, priority=5)
        batch = [
            Update("tern", INSERT, a),
            Update("tern", INSERT, scratch),
            Update("tern", INSERT, b),
            Update("tern", DELETE, scratch),
        ]
        assert replay(model, [], net_updates(model, batch)) == replay(model, [], batch)

    def test_alias_resolution_folds_across_names(self, model):
        entry = flat(4)
        ops, groups, _ = fold(
            model, [Update("flat", INSERT, entry), Update("C.flat", DELETE, entry)]
        )
        assert ops == [] and groups == 0


class TestInvalidStreams:
    def test_double_insert_raises(self, model):
        entry = tern(1)
        with pytest.raises(EntryError):
            fold(model, [Update("tern", INSERT, entry), Update("tern", INSERT, entry)])

    def test_modify_after_delete_raises(self, model):
        with pytest.raises(EntryError):
            fold(
                model,
                [Update("tern", DELETE, tern(1)), Update("tern", MODIFY, tern(1))],
                [Update("tern", INSERT, tern(1))],
            )

    def test_delete_after_delete_raises(self, model):
        with pytest.raises(EntryError):
            fold(
                model,
                [Update("tern", DELETE, tern(1)), Update("tern", DELETE, tern(1))],
                [Update("tern", INSERT, tern(1))],
            )

    def test_modify_after_cancelled_insert_raises(self, model):
        # insert+delete proves the key dead, so a later modify can never be
        # valid — caught by the fold, as sequential application would
        # catch it at apply time.
        entry = tern(1)
        with pytest.raises(EntryError):
            fold(
                model,
                [
                    Update("tern", INSERT, entry),
                    Update("tern", DELETE, entry),
                    Update("tern", MODIFY, tern(1, args=(2,))),
                ],
            )

    def test_validation_is_all_or_nothing(self, model):
        # The invalid op sits at the end; the fold raises without having
        # touched the state it checked against.
        state = state_with(model, [Update("flat", INSERT, flat(9))])
        before = {
            name: (table.entries(), table.revision())
            for name, table in state.tables.items()
        }
        with pytest.raises(EntryError):
            coalesce(
                state,
                [
                    Update("tern", INSERT, tern(1)),
                    Update("tern", INSERT, tern(2)),
                    Update("tern", INSERT, tern(2)),  # duplicate
                ],
                conflict_components(model),
            )
        assert {
            name: (table.entries(), table.revision())
            for name, table in state.tables.items()
        } == before


def fuzzed_batch(model, seed, prefix, modify_fraction, delete_fraction, count=60):
    """A fuzzed stream split into pre-burst state and burst, its table
    names spelled both ways and two value-set writes mixed in."""
    fuzzer = EntryFuzzer(model, seed=seed)
    stream = fuzzer.update_stream(
        tables=["tern", "flat"],
        count=count,
        modify_fraction=modify_fraction,
        delete_fraction=delete_fraction,
    )
    pre, batch = stream[:prefix], stream[prefix:]
    batch = [
        Update(model.table(update.table).local_name, update.op, update.entry)
        if index % 3 == 0
        else update
        for index, update in enumerate(batch)
    ]
    batch.insert(len(batch) // 3, ValueSetUpdate("vs", (seed % 7,)))
    batch.insert(2 * len(batch) // 3, ValueSetUpdate(model.value_set("vs").name, ()))
    return pre, batch


class TestReplayEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        prefix=st.integers(min_value=0, max_value=30),
        modify_fraction=st.floats(min_value=0.0, max_value=0.9),
        delete_fraction=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_coalesced_replay_matches_original(
        self, model, seed, prefix, modify_fraction, delete_fraction
    ):
        """Replaying net ops == replaying the full stream, for any split of
        a fuzzed stream into pre-burst state and burst."""
        pre, batch = fuzzed_batch(model, seed, prefix, modify_fraction, delete_fraction)
        net = net_updates(model, batch, pre)
        assert len(net) <= len(batch)
        assert replay(model, pre, net) == replay(model, pre, batch)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_anchor_order_is_strictly_increasing(self, model, seed):
        """The net ops are the reference fold's, in its anchor order (the
        input index of each op's first touch, strictly increasing)."""
        pre, batch = fuzzed_batch(model, seed, 10, 0.2, 0.2, count=50)
        reference = resolved_coalesce(model, batch)
        anchors = [op.anchor for op in reference]
        assert anchors == sorted(anchors)
        assert len(set(anchors)) == len(anchors)
        assert [comparable(model, u) for u in net_updates(model, batch, pre)] == [
            comparable(model, op.update) for op in reference
        ]


class TestCountsMatchTheTwoPassFold:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        prefix=st.integers(min_value=0, max_value=30),
        modify_fraction=st.floats(min_value=0.0, max_value=0.9),
        delete_fraction=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_net_op_and_group_counts(
        self, model, seed, prefix, modify_fraction, delete_fraction
    ):
        pre, batch = fuzzed_batch(model, seed, prefix, modify_fraction, delete_fraction)
        components = conflict_components(model)
        ops, groups, inserted = fold(model, batch, pre)
        reference = resolved_coalesce(model, batch)
        assert len(ops) == len(reference)
        assert groups == reference_group_count(model, components, reference)
        # The tables a net insert targets, by the reference's net ops too.
        expected = {
            op.update.table
            for op in reference
            if not isinstance(op.update, ValueSetUpdate) and op.update.op == INSERT
        }
        assert {table.info.name for table in inserted} == expected


ZOO = ("scion", "switch", "middleblock", "dash", "beaucoup", "accturbo", "dta")


@pytest.fixture(scope="module")
def zoo_models():
    from repro.programs import registry

    return {name: analyze(registry.load(name)) for name in ZOO}


@settings(max_examples=40, deadline=None)
@given(
    program=st.sampled_from(ZOO),
    seed=st.integers(min_value=0, max_value=10_000),
    prefix=st.integers(min_value=0, max_value=40),
)
def test_counts_match_the_two_pass_fold_on_the_zoo(zoo_models, program, seed, prefix):
    """On random bursts over several of a zoo program's tables, the net op
    and group counts equal the former coalesce + partition's."""
    model = zoo_models[program]
    fuzzer = EntryFuzzer(model, seed=seed)
    tables = fuzzer.rng.sample(sorted(model.tables), min(4, len(model.tables)))
    stream = fuzzer.update_stream(tables=tables, count=80, modify_fraction=0.3, delete_fraction=0.3)
    pre, batch = stream[:prefix], stream[prefix:]
    components = conflict_components(model)
    ops, groups, _ = fold(model, batch, pre)
    reference = resolved_coalesce(model, batch)
    assert len(ops) == len(reference)
    assert groups == reference_group_count(model, components, reference)
