"""Tests for control-plane semantics: entry stores and the encoder."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze
from repro.p4.parser import parse_program
from repro.runtime.entries import (
    EntryError,
    ExactMatch,
    LpmMatch,
    TableEntry,
    TernaryMatch,
    match_covers,
    match_hits,
)
from repro.runtime.semantics import (
    DELETE,
    INSERT,
    MODIFY,
    ControlPlaneState,
    TableState,
    Update,
    ValueSetUpdate,
    encode_all,
    encode_table,
    encode_value_set,
    entry_match_term,
)
from repro.smt import evaluate, simplify, substitute, terms as T

SOURCE = """
header h_t { bit<8> f; bit<32> ip; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action set(bit<8> v) { meta.m = v; }
    action noop() { }
    table tern {
        key = { hdr.h.f: ternary; }
        actions = { set; noop; }
        default_action = noop();
    }
    table routes {
        key = { hdr.h.ip: lpm; }
        actions = { set; noop; }
        default_action = noop();
    }
    apply { tern.apply(); routes.apply(); }
}
Pipeline(P(), C()) main;
"""


@pytest.fixture()
def model():
    return analyze(parse_program(SOURCE))


@pytest.fixture()
def state(model):
    return ControlPlaneState(model)


def tern_entry(value, mask, action="set", args=(1,), priority=0):
    return TableEntry((TernaryMatch(value, mask),), action, args, priority)


class TestUpdateOps:
    def test_insert_and_len(self, state):
        state.apply_update(Update("tern", INSERT, tern_entry(1, 0xFF)))
        assert len(state.table_state("tern")) == 1

    def test_duplicate_insert_rejected(self, state):
        entry = tern_entry(1, 0xFF)
        state.apply_update(Update("tern", INSERT, entry))
        with pytest.raises(EntryError):
            state.apply_update(Update("tern", INSERT, entry))

    def test_modify_replaces_action_data(self, state):
        state.apply_update(Update("tern", INSERT, tern_entry(1, 0xFF, args=(1,))))
        state.apply_update(Update("tern", MODIFY, tern_entry(1, 0xFF, args=(9,))))
        (entry,) = state.table_state("tern").entries()
        assert entry.args == (9,)

    def test_modify_missing_rejected(self, state):
        with pytest.raises(EntryError):
            state.apply_update(Update("tern", MODIFY, tern_entry(1, 0xFF)))

    def test_delete(self, state):
        entry = tern_entry(1, 0xFF)
        state.apply_update(Update("tern", INSERT, entry))
        state.apply_update(Update("tern", DELETE, entry))
        assert len(state.table_state("tern")) == 0

    def test_delete_missing_rejected(self, state):
        with pytest.raises(EntryError):
            state.apply_update(Update("tern", DELETE, tern_entry(1, 0xFF)))

    def test_update_counter(self, state):
        state.apply_update(Update("tern", INSERT, tern_entry(1, 0xFF)))
        assert state.update_count == 1


_OPS = st.tuples(
    st.sampled_from([INSERT, MODIFY, DELETE, "upsert"]),
    st.integers(0, 3),  # few keys, so sequences revisit them
    st.sampled_from([(1,), (1 << 8,)]),  # the second arg overflows bit<8>
)


class TestValidateUpdates:
    @given(installed=st.sets(st.integers(0, 3)), ops=st.lists(_OPS, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_raises_iff_applying_in_order_would(self, installed, ops):
        state = ControlPlaneState(_SHARED_MODEL)
        for value in installed:
            state.apply_update(Update("tern", INSERT, tern_entry(value, 0xFF)))
        updates = [
            Update("tern", op, tern_entry(value, 0xFF, args=args))
            for op, value, args in ops
        ]
        before = (state.table_state("tern").entries(), state.update_count)
        try:
            state.validate_updates(updates)
            valid = True
        except EntryError:
            valid = False
        assert (state.table_state("tern").entries(), state.update_count) == before
        try:
            for update in updates:
                state.apply_update(update)
            applied = True
        except EntryError:
            applied = False
        assert valid == applied

    def test_checks_value_set_size(self):
        state = ControlPlaneState(analyze(parse_program(TestValueSets.SOURCE)))
        state.validate_updates([ValueSetUpdate("pvs", (1, 2))])
        with pytest.raises(EntryError):
            state.validate_updates([ValueSetUpdate("pvs", (1, 2, 3))])
        assert set(state.value_sets.values()) == {()} and state.update_count == 0


class TestOrderingAndEclipse:
    def test_ternary_priority_order(self, state):
        low = tern_entry(0, 0, priority=1)
        high = tern_entry(5, 0xFF, priority=10)
        state.apply_update(Update("tern", INSERT, low))
        state.apply_update(Update("tern", INSERT, high))
        ordered = state.table_state("tern").ordered_entries()
        assert ordered[0] is high

    def test_lpm_longest_prefix_first(self, state):
        short = TableEntry((LpmMatch(0x0A000000, 8),), "set", (1,))
        long = TableEntry((LpmMatch(0x0A0B0000, 16),), "set", (2,))
        state.apply_update(Update("routes", INSERT, short))
        state.apply_update(Update("routes", INSERT, long))
        ordered = state.table_state("routes").ordered_entries()
        assert ordered[0] is long

    def test_eclipsed_entry_elided(self, state):
        wildcard = tern_entry(0, 0, priority=10)  # covers everything
        point = tern_entry(5, 0xFF, priority=1)
        state.apply_update(Update("tern", INSERT, wildcard))
        state.apply_update(Update("tern", INSERT, point))
        active = state.table_state("tern").active_entries()
        assert active == [wildcard]

    def test_non_eclipsed_entries_kept(self, state):
        a = tern_entry(0xF0, 0xF0, priority=10)
        b = tern_entry(0x05, 0xFF, priority=1)
        state.apply_update(Update("tern", INSERT, a))
        state.apply_update(Update("tern", INSERT, b))
        assert len(state.table_state("tern").active_entries()) == 2


class TestPackedEclipse:
    """The eclipse rule on packed ``(value, mask)`` rows is the per-key
    :func:`match_covers` rule, and the spliced active list is the
    from-scratch elision."""

    SOURCE = """
    header h_t { bit<9> port; bit<32> ip; bit<6> dscp; bit<16> vrf; }
    struct headers_t { h_t h; }
    struct meta_t { bit<8> m; }
    parser P(inout headers_t hdr, inout meta_t meta) {
        state start { pkt_extract(hdr.h); transition accept; }
    }
    control C(inout headers_t hdr, inout meta_t meta) {
        action set(bit<8> v) { meta.m = v; }
        action noop() { }
        table acl {
            key = { hdr.h.port: ternary; hdr.h.ip: ternary; hdr.h.dscp: ternary; }
            actions = { set; noop; }
            default_action = noop();
        }
        table route {
            key = { hdr.h.vrf: exact; hdr.h.ip: lpm; }
            actions = { set; noop; }
            default_action = noop();
        }
        apply { acl.apply(); route.apply(); }
    }
    Pipeline(P(), C()) main;
    """
    MODEL = analyze(parse_program(SOURCE))

    @staticmethod
    def draw_entry(draw, info):
        matches = []
        ternary = False
        for key in info.keys:
            # Few distinct values and coarse masks, so entries do cover
            # one another; ternary and lpm keys also take exact matches.
            kind = draw(st.sampled_from([key.match_kind, "exact"]))
            value = draw(st.integers(0, 3)) << (key.width - 2)
            if kind == "exact":
                matches.append(ExactMatch(value))
            elif kind == "lpm":
                plen = draw(st.sampled_from([0, 1, 2, key.width]))
                mask = ((1 << plen) - 1) << (key.width - plen) if plen else 0
                matches.append(LpmMatch(value & mask, plen))
            else:
                mask = draw(st.sampled_from([0, 1, 2, 3])) << (key.width - 2)
                if draw(st.booleans()):
                    mask |= draw(st.integers(0, (1 << key.width) - 1))
                matches.append(TernaryMatch(value & mask, mask))
                ternary = True
        priority = draw(st.integers(0, 3)) if ternary else 0
        return TableEntry(tuple(matches), "set", (draw(st.integers(0, 9)),), priority)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_packed_cover_is_per_key_match_covers(self, data):
        info = self.MODEL.table(data.draw(st.sampled_from(["acl", "route"])))
        state = TableState(info)
        outer = self.draw_entry(data.draw, info)
        inner = self.draw_entry(data.draw, info)
        packed = state._covers(
            (outer, *state.pack_entry(outer)), (inner, *state.pack_entry(inner))
        )
        assert packed == all(
            match_covers(om, im, key.width)
            for om, im, key in zip(outer.matches, inner.matches, info.keys)
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_spliced_active_list_is_the_from_scratch_elision(self, data):
        info = self.MODEL.table(data.draw(st.sampled_from(["acl", "route"])))
        state = TableState(info)
        live: dict = {}
        for _ in range(data.draw(st.integers(1, 12))):
            if live and data.draw(st.integers(0, 3)) == 0:
                key = data.draw(st.sampled_from(sorted(live, key=repr)))
                state.apply(DELETE, live.pop(key))
            else:
                entry = self.draw_entry(data.draw, info)
                if entry.match_key() in live:
                    continue
                state.apply(INSERT, entry)
                live[entry.match_key()] = entry
            expected: list = []
            for entry in state.ordered_entries():
                if not any(
                    all(
                        match_covers(pm, m, key.width)
                        for pm, m, key in zip(prev.matches, entry.matches, info.keys)
                    )
                    for prev in expected
                ):
                    expected.append(entry)
            assert state.active_entries() == expected


class TestEncoding:
    def test_empty_table_selects_default(self, model, state):
        info = model.table("tern")
        assignment = encode_table(info, state.table_state("tern"))
        selector = assignment.mapping[info.selector_var]
        assert selector is T.bv_const(info.action_codes["noop"], 8)
        hit = assignment.mapping[info.hit_var]
        assert hit is T.bv_const(0, 1)

    def test_single_entry_encoding(self, model, state):
        info = model.table("tern")
        state.apply_update(Update("tern", INSERT, tern_entry(0x42, 0xFF, args=(7,))))
        assignment = encode_table(info, state.table_state("tern"))
        selector = assignment.mapping[info.selector_var]
        key_name = info.keys[0].term.name
        assert evaluate(selector, {key_name: 0x42}) == info.action_codes["set"]
        assert evaluate(selector, {key_name: 0x43}) == info.action_codes["noop"]
        param = assignment.mapping[info.action_params["set"][0].var]
        assert evaluate(param, {key_name: 0x42}) == 7

    def test_priority_respected_in_selector(self, model, state):
        info = model.table("tern")
        state.apply_update(
            Update("tern", INSERT, tern_entry(0, 0, action="noop", args=(), priority=1))
        )
        state.apply_update(
            Update("tern", INSERT, tern_entry(0x10, 0xFF, args=(2,), priority=10))
        )
        assignment = encode_table(info, state.table_state("tern"))
        selector = assignment.mapping[info.selector_var]
        key_name = info.keys[0].term.name
        assert evaluate(selector, {key_name: 0x10}) == info.action_codes["set"]
        assert evaluate(selector, {key_name: 0x11}) == info.action_codes["noop"]

    def test_default_action_args_as_fallback(self):
        source = SOURCE.replace("default_action = noop();", "default_action = set(8w9);", 1)
        model = analyze(parse_program(source))
        state = ControlPlaneState(model)
        info = model.table("tern")
        assignment = encode_table(info, state.table_state("tern"))
        param = assignment.mapping[info.action_params["set"][0].var]
        assert param is T.bv_const(9, 8)

    def test_overapproximation_past_threshold(self, model, state):
        info = model.table("tern")
        for i in range(5):
            state.apply_update(Update("tern", INSERT, tern_entry(i, 0xFF, priority=i + 1)))
        assignment = encode_table(info, state.table_state("tern"), threshold=3)
        assert assignment.overapproximated
        selector = assignment.mapping[info.selector_var]
        assert selector.is_data_var  # "*any*"

    def test_threshold_none_never_overapproximates(self, model, state):
        info = model.table("tern")
        for i in range(10):
            state.apply_update(Update("tern", INSERT, tern_entry(i, 0xFF, priority=i + 1)))
        assignment = encode_table(info, state.table_state("tern"), threshold=None)
        assert not assignment.overapproximated

    def test_encode_all_covers_every_control_var(self, model, state):
        mapping = encode_all(model, state)
        for info in model.tables.values():
            assert info.selector_var in mapping
            assert info.hit_var in mapping


class TestMatchConditionsAreKept:
    """A live entry's match condition is built once; re-encoding after an
    update builds the new entry's only, to the identical interned terms."""

    @pytest.fixture()
    def built(self, monkeypatch):
        """The entries ``entry_match_term`` was called on, in call order."""
        from repro.runtime import semantics

        calls: list = []
        original = semantics.entry_match_term

        def spy(info, entry):
            calls.append(entry)
            return original(info, entry)

        monkeypatch.setattr(semantics, "entry_match_term", spy)
        return calls

    @staticmethod
    def assert_is_a_fresh_encoding(model, state, mapping):
        """Rebuilt from nothing, every assignment is the same object."""
        fresh = ControlPlaneState(model)
        for entry in state.table_state("tern").entries():
            fresh.apply_update(Update("tern", INSERT, entry))
        rebuilt = encode_table(model.table("tern"), fresh.table_state("tern")).mapping
        assert mapping.keys() == rebuilt.keys()
        for var, term in mapping.items():
            assert term is rebuilt[var]

    def test_one_condition_per_entry_lifetime(self, model, state, built):
        info, table = model.table("tern"), state.table_state("tern")
        entries = [tern_entry(i, 0xFF, args=(i,), priority=10 + i) for i in range(1, 6)]
        for entry in entries[:4]:
            state.apply_update(Update("tern", INSERT, entry))
        assert not built  # nothing is built until an encoding asks
        encode_table(info, table)
        assert built == table.active_entries()
        del built[:]
        encode_table(info, table)
        assert not built
        state.apply_update(Update("tern", INSERT, entries[4]))
        encode_table(info, table)
        assert built == [entries[4]]
        del built[:]
        # MODIFY keeps the match, hence the condition; DELETE drops it.
        state.apply_update(Update("tern", MODIFY, tern_entry(2, 0xFF, args=(9,), priority=12)))
        encode_table(info, table)
        assert not built
        assert len(table._conds) == 5
        state.apply_update(Update("tern", DELETE, entries[0]))
        mapping = encode_table(info, table).mapping
        assert not built
        assert len(table._conds) == 4
        self.assert_is_a_fresh_encoding(model, state, mapping)

    def test_overapproximated_table_builds_none(self, model, state, built):
        info, table = model.table("tern"), state.table_state("tern")
        for i in range(5):
            state.apply_update(Update("tern", INSERT, tern_entry(i, 0xFF, priority=i)))
        assert encode_table(info, table, threshold=3).overapproximated
        assert not built and not table._conds

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_stream_encodes_like_a_fresh_state(self, data):
        model = analyze(parse_program(SOURCE))
        state = ControlPlaneState(model)
        info, table = model.table("tern"), state.table_state("tern")
        live: dict = {}
        for _ in range(data.draw(st.integers(1, 12))):
            value = data.draw(st.integers(0, 7))
            mask = data.draw(st.sampled_from([0xFF, 0xF0, 0x0F, 0x00]))
            entry = tern_entry(
                value,
                mask,
                args=(data.draw(st.integers(0, 3)),),
                priority=data.draw(st.integers(0, 3)),
            )
            key = entry.match_key()
            if key in live and data.draw(st.booleans()):
                op = DELETE
                del live[key]
            else:
                op = MODIFY if key in live else INSERT
                live[key] = entry
            state.apply_update(Update("tern", op, entry))
            mapping = encode_table(info, table).mapping
            self.assert_is_a_fresh_encoding(model, state, mapping)
        assert len(table._conds) <= len(live)


class TestValueSets:
    SOURCE = """
header h_t { bit<16> tag; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    value_set<bit<16>>(2) pvs;
    state start {
        pkt_extract(hdr.h);
        transition select(hdr.h.tag) {
            pvs: special;
            default: accept;
        }
    }
    state special { transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) { apply { } }
Pipeline(P(), C()) main;
"""

    def test_encode_value_set(self):
        model = analyze(parse_program(self.SOURCE))
        info = model.value_set("pvs")
        mapping = encode_value_set(info, [0x800])
        assert mapping[info.valid_vars[0]] is T.bv_const(1, 1)
        assert mapping[info.value_vars[0]] is T.bv_const(0x800, 16)
        assert mapping[info.valid_vars[1]] is T.bv_const(0, 1)

    def test_oversize_config_rejected(self):
        model = analyze(parse_program(self.SOURCE))
        state = ControlPlaneState(model)
        with pytest.raises(EntryError):
            state.apply_value_set_update(ValueSetUpdate("pvs", (1, 2, 3)))


# -- the key agreement property ------------------------------------------------


_SHARED_MODEL = analyze(parse_program(SOURCE))


@given(
    value=st.integers(0, 255),
    mask=st.integers(0, 255),
    key=st.integers(0, 255),
)
@settings(max_examples=200, deadline=None)
def test_match_term_agrees_with_match_hits(value, mask, key):
    """The symbolic entry-match term and the concrete matcher agree —
    this ties the incremental engine's world to the interpreter's."""
    info = _SHARED_MODEL.table("tern")
    entry = tern_entry(value, mask)
    term = entry_match_term(info, entry)
    key_name = info.keys[0].term.name
    assert evaluate(term, {key_name: key}) == int(
        match_hits(entry.matches[0], key, 8)
    )
