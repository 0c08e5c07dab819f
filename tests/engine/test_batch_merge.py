"""Unit tests for the batch scheduler's cache-delta merge.

The merge step folds each worker slice's private caches back into the
shared :class:`EngineContext`.  These tests pin the invariants that make
that sound: grafted substitution-memo entries stay keyed on interned
terms, merged verdict caches answer later sequential queries, counters
fold monotonically, and the merged engine is indistinguishable from one
that never batched at all.
"""

import pytest

from repro.core import Flay, FlayOptions
from repro.engine import BatchMerged, BatchScheduled, EventBus
from repro.engine.batch import conflict_components
from repro.p4.parser import parse_program
from repro.p4.printer import print_program
from repro.runtime.fuzzer import EntryFuzzer
from repro.smt import terms as T

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
        report = flay.apply_batch(two_group_batch(flay), workers=2)
        assert report.group_count == 2
        tables = {g.tables for g in report.groups}
        assert tables == {("C.ta",), ("C.tb",)}

    def test_components_are_cached_on_the_context(self, flay):
        flay.apply_batch(two_group_batch(flay), workers=2)
        cached = flay.runtime.ctx.batch_components
        assert cached is not None
        flay.apply_batch(two_group_batch(flay, seed=1), workers=2)
        assert flay.runtime.ctx.batch_components is cached

    def test_strict_mode_only_merges_further(self, flay):
        model = flay.model
        loose = conflict_components(model)
        strict = conflict_components(
            model, flay.program, flay.env, strict=True
        )
        loose_groups = {}
        for name, root in loose.items():
            loose_groups.setdefault(root, set()).add(name)
        # Every loose component sits wholly inside one strict component:
        # the syntactic graph can over-merge, never split a semantic group.
        for members in loose_groups.values():
            assert len({strict[m] for m in members}) == 1


class TestCacheMerge:
    def test_substitution_memo_entries_survive_and_stay_interned(self, flay):
        flay.apply_batch(two_group_batch(flay), workers=2)
        substitution = flay.runtime.substitution
        # Every grafted memo value must be the interned representative of
        # its structure — rebuilding it through the factory is an identity.
        for term in substitution._memo.values():
            key = (term.op, term.args, term.width, term.payload)
            assert T.DEFAULT_FACTORY._table.get(key) is term

    def test_memo_index_covers_grafted_entries(self, flay):
        flay.apply_batch(two_group_batch(flay), workers=2)
        substitution = flay.runtime.substitution
        # Entries that depend on a variable must be reachable by walking
        # the parent edges up from that variable's term, or a later
        # set_many could miss invalidating them.  (Closed terms
        # legitimately have no edge leading to them.)
        from repro.smt.substitute import variable_dependencies

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
        flay.apply_batch(two_group_batch(flay), workers=2)
        assert isinstance(qe._exec_cache, dict)  # still the plain shared dict
        assert isinstance(qe.solver._results, dict)
        # The batch computed fresh executability queries somewhere.
        assert len(qe._exec_cache) >= len(before_exec)

    def test_counters_fold_monotonically(self, flay):
        before = [c.snapshot() for c in flay.runtime.ctx.cache_counters()]
        flay.apply_batch(two_group_batch(flay), workers=2)
        for counter, snap in zip(flay.runtime.ctx.cache_counters(), before):
            assert counter.hits >= snap.hits
            assert counter.misses >= snap.misses

    def test_merged_engine_behaves_like_unbatched_engine_afterwards(self, flay):
        """The real invariant: after a merge, sequential updates behave as
        if the batch had been applied sequentially all along."""
        reference = Flay(parse_program(SOURCE), FlayOptions(target="none"))
        batch = two_group_batch(flay)
        flay.apply_batch(batch, workers=2)
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


class TestEvents:
    def test_schedule_and_merge_events_emitted(self):
        bus = EventBus()
        log = bus.attach_log()
        flay = Flay(parse_program(SOURCE), FlayOptions(target="none"), bus=bus)
        batch = two_group_batch(flay)
        flay.apply_batch(batch, workers=4)
        (scheduled,) = log.of_type(BatchScheduled)
        assert scheduled.update_count == len(batch)
        assert scheduled.coalesced_count == len(batch)  # pure inserts
        assert scheduled.group_count == 2
        assert scheduled.workers == 4
        (merged,) = log.of_type(BatchMerged)
        assert merged.group_count == 2
        assert merged.merged_memo_entries > 0


class TestMergeAccounting:
    """The double-counting tripwire: per-worker solver/gate stat deltas are
    absorbed into the shared stats exactly once each, so the per-worker
    sums must equal the shared delta over the merge — off by even one
    means a slice was absorbed twice (or dropped)."""

    def test_event_rejects_solver_double_count(self):
        with pytest.raises(ValueError, match="double-counted solver"):
            BatchMerged(
                group_count=2,
                merged_memo_entries=0,
                merged_verdict_entries=0,
                elapsed_ms=1.0,
                worker_solver_queries=7,
                merged_solver_queries=14,  # a slice absorbed twice
            )

    def test_event_rejects_gate_double_count(self):
        with pytest.raises(ValueError, match="double-counted gate"):
            BatchMerged(
                group_count=2,
                merged_memo_entries=0,
                merged_verdict_entries=0,
                elapsed_ms=1.0,
                worker_gate_screens=3,
                merged_gate_screens=6,
            )

    def test_event_accepts_balanced_accounting(self):
        merged = BatchMerged(
            group_count=2,
            merged_memo_entries=5,
            merged_verdict_entries=3,
            elapsed_ms=1.0,
            worker_solver_queries=7,
            merged_solver_queries=7,
            worker_gate_screens=4,
            merged_gate_screens=4,
        )
        assert merged.worker_solver_queries == merged.merged_solver_queries

    @pytest.mark.parametrize("workers", [1, 4], ids=["serial", "thread"])
    def test_real_batches_emit_balanced_accounting(self, workers):
        """Inline (one worker) and on the thread pool, the BatchMerged event
        constructs (its __post_init__ would raise on any imbalance) and
        reports the same worker totals the sequential accounting implies."""
        bus = EventBus()
        log = bus.attach_log()
        flay = Flay(parse_program(SOURCE), FlayOptions(target="none"), bus=bus)
        flay.apply_batch(two_group_batch(flay), workers=workers)
        (merged,) = log.of_type(BatchMerged)
        assert merged.worker_solver_queries == merged.merged_solver_queries
        assert merged.worker_gate_screens == merged.merged_gate_screens
        # The batch did real solver/gate work in the workers.
        assert merged.worker_solver_queries > 0 or merged.worker_gate_screens > 0
