"""Property tests: the cross-update caches never change any verdict.

The caching layers (delta substitution, solver verdict memo, CNF fragment
reuse, incremental active-entry maintenance) are pure-reuse optimizations:
a warm pipeline must produce verdicts *bit-identical* to a pipeline built
from scratch over the same control-plane state, and the shared-encoding
solver must agree with a fresh-encoding solver on every query.
"""

import random

import pytest

from repro.engine import Engine, EngineOptions
from repro.p4.parser import parse_program
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import DELETE, INSERT, MODIFY, Update
from repro.smt import Solver, terms as T

SOURCE = """
header h_t { bit<8> f; bit<8> g; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; bit<8> n; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action set(bit<8> v) { meta.m = v; }
    action noop() { }
    action set_n(bit<8> v) { meta.n = v; }
    table t1 {
        key = { hdr.h.f: ternary; }
        actions = { set; noop; }
        default_action = noop();
    }
    table t2 {
        key = { meta.m: exact; }
        actions = { set_n; noop; }
        default_action = noop();
    }
    apply {
        t1.apply();
        if (meta.m == 8w3) { t2.apply(); }
        if (meta.n == 8w7) { meta.m = 8w1; }
    }
}
Pipeline(P(), C()) main;
"""


def _scratch_verdicts(updates):
    """Point/table verdicts of a cold pipeline over the same control plane."""
    scratch = Engine(parse_program(SOURCE), EngineOptions(target="none"))
    for update in updates:
        scratch.state.apply_update(update)
    scratch._encode_initial()
    scratch._evaluate_all_points()
    return scratch.point_verdicts, scratch.table_verdicts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warm_verdicts_bit_identical_to_scratch(seed):
    """Random insert/modify/delete streams: warm == cold, exactly (``==``,
    not just ``same_specialization``)."""
    incremental = Engine(parse_program(SOURCE), EngineOptions(target="none"))
    fuzzer = EntryFuzzer(incremental.model, seed=seed)
    rng = random.Random(seed)
    installed: list[Update] = []
    applied: list[Update] = []

    for step in range(30):
        table = rng.choice(["t1", "t2"])
        roll = rng.random()
        live = [u for u in installed if u.table == table]
        if live and roll < 0.2:
            victim = rng.choice(live)
            update = Update(table, DELETE, victim.entry)
            installed.remove(victim)
        elif live and roll < 0.4:
            victim = rng.choice(live)
            entry = fuzzer.entry(table)
            # Same match key, new action data.
            entry = victim.entry.__class__(
                victim.entry.matches, entry.action, entry.args, victim.entry.priority
            )
            update = Update(table, MODIFY, entry)
            installed.remove(victim)
            installed.append(Update(table, INSERT, entry))
        else:
            entry = fuzzer.entry(table)
            if any(u.entry.match_key() == entry.match_key() for u in live):
                continue
            update = Update(table, INSERT, entry)
            installed.append(update)
        incremental.process_update(update)
        applied.append(update)

        if step % 10 == 9:
            point_verdicts, table_verdicts = _scratch_verdicts(applied)
            assert incremental.point_verdicts == point_verdicts
            assert incremental.table_verdicts == table_verdicts

    point_verdicts, table_verdicts = _scratch_verdicts(applied)
    assert incremental.point_verdicts == point_verdicts
    assert incremental.table_verdicts == table_verdicts


def test_flap_cycle_restores_identical_verdicts():
    """Insert → delete → re-insert the same entries: the warm pipeline must
    land on exactly the verdicts of the first insertion (the solver/exec
    caches answer the repeated queries; the answers must not drift)."""
    incremental = Engine(parse_program(SOURCE), EngineOptions(target="none"))
    fuzzer = EntryFuzzer(incremental.model, seed=11)
    entries = fuzzer.unique_entries("t1", 8)
    for entry in entries:
        incremental.process_update(Update("t1", INSERT, entry))
    snapshot_points = dict(incremental.point_verdicts)
    snapshot_tables = dict(incremental.table_verdicts)
    for _ in range(3):
        for entry in entries:
            incremental.process_update(Update("t1", DELETE, entry))
        for entry in entries:
            incremental.process_update(Update("t1", INSERT, entry))
    assert incremental.point_verdicts == snapshot_points
    assert incremental.table_verdicts == snapshot_tables


class TestSharedEncodingSolverAgrees:
    """The fragment-cached solver is query-for-query equivalent to one that
    re-encodes from scratch."""

    def _random_bool_term(self, rng, depth=0):
        x = T.data_var("x", 8)
        y = T.data_var("y", 8)
        leaves = [
            T.eq(x, T.bv_const(rng.randrange(256), 8)),
            T.ult(T.bv_and(x, T.bv_const(rng.randrange(256), 8)), y),
            T.ule(T.add(x, y), T.bv_const(rng.randrange(256), 8)),
            T.eq(T.bv_xor(x, y), T.bv_const(rng.randrange(256), 8)),
        ]
        if depth >= 3 or rng.random() < 0.4:
            return rng.choice(leaves)
        a = self._random_bool_term(rng, depth + 1)
        b = self._random_bool_term(rng, depth + 1)
        return rng.choice(
            [T.bool_and(a, b), T.bool_or(a, b), T.bool_not(a), T.implies(a, b)]
        )

    def test_verdicts_match_fresh_encoding(self):
        rng = random.Random(5)
        shared = Solver(share_encodings=True)
        queries = [self._random_bool_term(rng) for _ in range(25)]
        # Each query twice: the second round runs entirely from the caches.
        for term in queries + queries:
            fresh = Solver(share_encodings=False)
            assert shared.check_sat(term).satisfiable == fresh.check_sat(term).satisfiable
        assert shared.cache_counter.hits > 0
        assert shared.cnf_counter.hits > 0

    def test_model_decodes_against_original_term(self):
        # A model produced through cone replay + local renumbering must
        # still satisfy the term it was found for.
        solver = Solver(share_encodings=True)
        x = T.data_var("x", 8)
        y = T.data_var("y", 8)
        term = T.bool_and(
            T.eq(T.bv_and(x, T.bv_const(0xF0, 8)), T.bv_const(0x30, 8)),
            T.ult(y, x),
        )
        result = solver.check_sat(term)
        assert result.satisfiable
        assert T.evaluate(term, result.model) == 1
