"""Tests for the control-plane entry fuzzer."""

import pytest

from repro.analysis import analyze
from repro.p4.parser import parse_program
from repro.runtime.entries import LpmMatch, validate_entry
from repro.runtime.fuzzer import EntryFuzzer, ipv4_route_entries
from repro.runtime.semantics import ControlPlaneState, DELETE, INSERT

SOURCE = """
header h_t { bit<8> f; bit<32> ip; bit<16> port; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action fwd(bit<9> port) { meta.m = (bit<8>) port; }
    action noop() { }
    table routes {
        key = { hdr.h.ip: lpm; }
        actions = { fwd; noop; }
        default_action = noop();
    }
    table acl {
        key = { hdr.h.ip: ternary; hdr.h.port: ternary; }
        actions = { fwd; noop; }
        default_action = noop();
    }
    apply { routes.apply(); acl.apply(); }
}
Pipeline(P(), C()) main;
"""


@pytest.fixture(scope="module")
def model():
    return analyze(parse_program(SOURCE))


class TestFuzzer:
    def test_entries_are_valid(self, model):
        fuzzer = EntryFuzzer(model, seed=1)
        for table in ("routes", "acl"):
            info = model.table(table)
            for _ in range(50):
                validate_entry(info, fuzzer.entry(table))

    def test_unique_entries_distinct(self, model):
        fuzzer = EntryFuzzer(model, seed=2)
        entries = fuzzer.unique_entries("acl", 200)
        keys = {e.match_key() for e in entries}
        assert len(keys) == 200

    def test_action_filter(self, model):
        fuzzer = EntryFuzzer(model, seed=3)
        entries = fuzzer.unique_entries("routes", 20, action="fwd")
        assert all(e.action == "fwd" for e in entries)

    def test_deterministic_with_seed(self, model):
        a = EntryFuzzer(model, seed=7).unique_entries("acl", 10)
        b = EntryFuzzer(model, seed=7).unique_entries("acl", 10)
        assert a == b

    def test_burst_is_installable(self, model):
        fuzzer = EntryFuzzer(model, seed=4)
        state = ControlPlaneState(model)
        for update in fuzzer.insert_burst("routes", 100):
            assert update.op == INSERT
            state.apply_update(update)
        assert len(state.table_state("routes")) == 100

    def test_aliased_table_names_share_liveness(self, model):
        """Regression: requesting one table under both its local and
        qualified name used to give it two independent live-key maps, so a
        skewed modify/delete mix could emit an update against a key the
        other alias had already inserted or deleted — replay would raise
        ``EntryError: duplicate entry``.  Canonicalization makes the alias
        pair equivalent to requesting the table once."""
        for seed in range(60):
            fuzzer = EntryFuzzer(model, seed=seed)
            stream = fuzzer.update_stream(
                tables=["routes", "C.routes"],
                count=50,
                modify_fraction=0.9,
                delete_fraction=0.5,
            )
            state = ControlPlaneState(model)
            for update in stream:  # EntryError here would fail the test
                state.apply_update(update)

    def test_aliased_request_matches_single_request(self, model):
        a = EntryFuzzer(model, seed=17).update_stream(
            tables=["routes"], count=30
        )
        b = EntryFuzzer(model, seed=17).update_stream(
            tables=["routes", "C.routes"], count=30
        )
        assert a == b

    def test_skewed_fractions_are_normalized(self, model):
        """modify+delete fractions summing past 1.0 must bias the mix, not
        starve inserts entirely (the stream would never terminate)."""
        fuzzer = EntryFuzzer(model, seed=23)
        stream = fuzzer.update_stream(
            tables=["acl"], count=40, modify_fraction=1.2, delete_fraction=0.9
        )
        assert len(stream) == 40
        state = ControlPlaneState(model)
        for update in stream:
            state.apply_update(update)

    def test_rollout_stream_installs_every_action_then_empties(self, model):
        stream = EntryFuzzer(model, seed=6).rollout_stream(3)
        per_rollout = len(stream) // 3
        state = ControlPlaneState(model)
        for start in range(0, len(stream), per_rollout):
            rollout = stream[start : start + per_rollout]
            half = per_rollout // 2
            assert all(u.op == INSERT for u in rollout[:half])
            assert all(u.op == DELETE for u in rollout[half:])
            assert {(u.table, u.entry.action) for u in rollout[:half]} == {
                (name, action) for name in model.tables
                for action in model.tables[name].action_order
            }
            for update in rollout:
                state.apply_update(update)
            assert all(len(state.table_state(name)) == 0 for name in model.tables)

    def test_ipv4_route_generator(self, model):
        entries = list(ipv4_route_entries(model, "routes", 50, "fwd", seed=5))
        assert len(entries) == 50
        assert len({e.match_key() for e in entries}) == 50
        for entry in entries:
            (match,) = entry.matches
            assert isinstance(match, LpmMatch)
            # Value must be aligned to its prefix mask.
            assert match.value & ~match.mask(32) == 0
