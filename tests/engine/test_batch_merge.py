"""Unit tests for the batch scheduler's cache-delta merge.

The merge step folds each conflict group's slice caches back into the
shared :class:`EngineContext`.  These tests pin the invariants that make
that sound: grafted substitution-memo entries stay keyed on interned
terms, merged verdict caches answer later sequential queries, counters
fold monotonically, and the merged engine is indistinguishable from one
that never batched at all.
"""

import pytest

from repro.core import Flay, FlayOptions
from repro.engine import batch as batch_module
from repro.engine.batch import _verify_merge_accounting, conflict_components
from repro.engine.gate import GateStats
from repro.ir.deps import build_dependency_graph
from repro.p4.parser import parse_program
from repro.p4.printer import print_program
from repro.runtime.fuzzer import EntryFuzzer
from repro.smt import terms as T
from repro.smt.solver import SolverStats

SOURCE = """
header h_t { bit<8> a; bit<8> b; bit<8> c; bit<8> d; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; bit<8> n; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action setm(bit<8> v) { meta.m = v; }
    action setn(bit<8> v) { meta.n = v; }
    action noop() { }
    table ta {
        key = { hdr.h.a: exact; }
        actions = { setm; noop; }
        default_action = noop();
    }
    table tb {
        key = { hdr.h.b: exact; }
        actions = { setn; noop; }
        default_action = noop();
    }
    apply {
        ta.apply();
        tb.apply();
        if (meta.m == 8w3) { hdr.h.c = 8w1; }
        if (meta.n == 8w7) { hdr.h.d = 8w1; }
    }
}
Pipeline(P(), C()) main;
"""


def strict_components(model, program, env=None):
    """The strict partition oracle: the scheduler's taint components,
    merged further along every table-to-table dependency edge."""
    parent = conflict_components(model)

    def find(name):
        while parent[name] != name:
            name = parent[name]
        return name

    for edge in build_dependency_graph(program, env).edges:
        if edge.src in model.tables and edge.dst in model.tables:
            parent[find(edge.dst)] = find(edge.src)
    return {name: find(name) for name in parent}


def two_group_batch(flay, seed=0, per_table=6):
    fuzzer = EntryFuzzer(flay.model, seed=seed)
    return fuzzer.insert_burst("ta", per_table) + fuzzer.insert_burst(
        "tb", per_table
    )


@pytest.fixture()
def flay():
    return Flay(parse_program(SOURCE), FlayOptions(target="none"))


class TestPartitionIndependence:
    def test_independent_tables_get_separate_groups(self, flay):
        report = flay.decide(two_group_batch(flay))
        assert report.group_count == 2
        tables = {g.tables for g in report.groups}
        assert tables == {("C.ta",), ("C.tb",)}

    def test_components_are_cached_on_the_context(self, flay):
        flay.decide(two_group_batch(flay))
        cached = flay.runtime.ctx.batch_components
        assert cached is not None
        flay.decide(two_group_batch(flay, seed=1))
        assert flay.runtime.ctx.batch_components is cached

    def test_strict_mode_only_merges_further(self, flay):
        model = flay.model
        loose = conflict_components(model)
        strict = strict_components(model, flay.program, flay.env)
        loose_groups = {}
        for name, root in loose.items():
            loose_groups.setdefault(root, set()).add(name)
        # Every loose component sits wholly inside one strict component:
        # the dependency graph can over-merge, never split a taint group.
        for members in loose_groups.values():
            assert len({strict[m] for m in members}) == 1


class TestCacheMerge:
    def test_substitution_memo_entries_survive_and_stay_interned(self, flay):
        flay.decide(two_group_batch(flay))
        substitution = flay.runtime.substitution
        # Every grafted memo value must be the interned representative of
        # its structure — rebuilding it through the factory is an identity.
        for term in substitution._memo.values():
            key = (term.op, term.args, term.width, term.payload)
            assert T.DEFAULT_FACTORY._table.get(key) is term

    def test_memo_index_covers_grafted_entries(self, flay):
        flay.decide(two_group_batch(flay))
        substitution = flay.runtime.substitution
        # Entries that depend on a variable must be reachable by walking
        # the parent edges up from that variable's term, or a later
        # set_many could miss invalidating them.  (Closed terms
        # legitimately have no edge leading to them.)
        from tests.smt.variable_deps import variable_dependencies

        reachable: dict = {}
        for term in substitution._memo:
            if not term.is_var:
                continue
            seen = {term}
            stack = [term]
            while stack:
                for parent in substitution._parents.get(stack.pop(), ()):
                    if parent not in seen:
                        seen.add(parent)
                        stack.append(parent)
            reachable[term.name] = seen
        for term in substitution._memo:
            for name in variable_dependencies(term):
                assert term in reachable[name]

    def test_verdict_caches_land_in_shared_dicts(self, flay):
        qe = flay.ctx.query_engine
        before_exec = dict(qe._exec_cache)
        flay.decide(two_group_batch(flay))
        assert isinstance(qe._exec_cache, dict)  # still the plain shared dict
        assert isinstance(qe.solver._results, dict)
        # The batch computed fresh executability queries somewhere.
        assert len(qe._exec_cache) >= len(before_exec)

    def test_counters_fold_monotonically(self, flay):
        before = [c.snapshot() for c in flay.runtime.ctx.cache_counters()]
        flay.decide(two_group_batch(flay))
        for counter, snap in zip(flay.runtime.ctx.cache_counters(), before):
            assert counter.hits >= snap.hits
            assert counter.misses >= snap.misses

    def test_merged_engine_behaves_like_unbatched_engine_afterwards(self, flay):
        """The real invariant: after a merge, sequential updates behave as
        if the batch had been applied sequentially all along."""
        reference = Flay(parse_program(SOURCE), FlayOptions(target="none"))
        batch = two_group_batch(flay)
        flay.decide(batch)
        for update in batch:
            reference.process_update(update)
        tail = EntryFuzzer(flay.model, seed=9).update_stream(
            tables=["ta", "tb"], count=20
        )
        for update in tail:
            a = flay.process_update(update)
            b = reference.process_update(update)
            assert a.forwarded == b.forwarded
            assert a.changed == b.changed
        assert flay.runtime.point_verdicts == reference.runtime.point_verdicts
        assert flay.specialized_source() == print_program(
            reference.specialized_program
        )


class TestDecisionRecord:
    def test_schedule_and_merge_are_on_the_record(self):
        flay = Flay(parse_program(SOURCE), FlayOptions(target="none"))
        batch = two_group_batch(flay)
        grafted = []
        absorb = flay.substitution.absorb
        flay.substitution.absorb = lambda piece: grafted.append(absorb(piece)) or grafted[-1]
        decision = flay.decide(batch)
        assert decision.update_count == len(batch)
        assert decision.coalesced_count == len(batch)  # pure inserts
        assert decision.group_count == len(decision.groups) == 2
        # The merge grafted each slice's memo entries into the shared memo.
        assert len(grafted) == 2 and sum(grafted) > 0


class TestMergeAccounting:
    """The double-counting tripwire: per-slice solver/gate stat deltas are
    absorbed into the shared stats exactly once each, so the per-slice
    sums must equal the shared delta over the merge — off by even one
    means a slice was absorbed twice (or dropped)."""

    def test_tripwire_rejects_solver_double_count(self):
        with pytest.raises(AssertionError, match="miscounted SolverStats.by_sat"):
            _verify_merge_accounting(
                SolverStats(by_sat=14),  # a slice absorbed twice
                SolverStats(by_sat=7),
                GateStats(),
                GateStats(),
            )

    def test_tripwire_rejects_gate_double_count(self):
        with pytest.raises(AssertionError, match="miscounted GateStats"):
            _verify_merge_accounting(
                SolverStats(), SolverStats(), GateStats(screened=6), GateStats(screened=3)
            )

    def test_tripwire_accepts_balanced_accounting(self):
        _verify_merge_accounting(
            SolverStats(by_sat=7, probes=7),
            SolverStats(by_sat=7, probes=7),
            GateStats(screened=4),
            GateStats(screened=4),
        )

    def test_real_batches_balance_the_accounting(self, monkeypatch):
        """A real burst passes the tripwire, which sees the same per-slice
        totals the shared accounting implies."""
        seen = []

        def verify(*deltas):
            seen.append(deltas)
            _verify_merge_accounting(*deltas)

        monkeypatch.setattr(batch_module, "_verify_merge_accounting", verify)
        flay = Flay(parse_program(SOURCE), FlayOptions(target="none"))
        flay.decide(two_group_batch(flay))
        ((merged_solver, slice_solver, merged_gate, slice_gate),) = seen
        assert merged_solver.total == slice_solver.total
        assert merged_gate.screened == slice_gate.screened
        # The batch did real solver/gate work in its slices.
        assert slice_solver.total > 0 or slice_gate.screened > 0
