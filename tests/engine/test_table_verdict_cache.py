"""Differential safety net for the structural table-verdict memo.

A memoised verdict is byte-identical to the recomputed one, because the
memo key — the table's active-entry digest plus the selector/hit term
identities — spans every input the uncached computation reads.  These
tests pin that against the specification in ``tests/engine/spec.py``
(``_table_verdict_uncached`` on every table, a bare ``QueryEngine`` on
every point, re-derived after every chunk): fuzzer streams, sequential
and batched application, snapshot/restore round-trips, and a Hypothesis
sweep — with a non-vacuity check that the memo actually got hits.

"Uncached" in the test names is that specification.
``FLAY_BATCH_WORKERS`` (CI's ``batch-differential`` axis) sets the worker
count of the batched regime.
"""

import os
import pickle
import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import Flay, FlayOptions
from repro.engine.context import EngineOptions
from repro.engine.engine import Engine
from repro.p4.parser import parse_program
from repro.runtime.fuzzer import EntryFuzzer

from tests.engine.spec import Spec

#: CI matrix axis.
ENV_WORKERS = int(os.environ.get("FLAY_BATCH_WORKERS", "2"))

SOURCE = """
header h_t { bit<8> a; bit<8> b; bit<8> f; bit<8> g; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; bit<8> n; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action set(bit<8> v) { meta.m = v; }
    action setn(bit<8> v) { meta.n = v; }
    action noop() { }
    table ta {
        key = { hdr.h.a: exact; }
        actions = { setn; noop; }
        default_action = noop();
    }
    table t1 {
        key = { hdr.h.f: ternary; }
        actions = { set; noop; }
        default_action = noop();
    }
    table t2 {
        key = { meta.m: exact; }
        actions = { set; noop; }
        default_action = noop();
    }
    apply {
        ta.apply();
        t1.apply();
        if (meta.m == 8w3) { t2.apply(); }
        if (meta.n == 8w7) { hdr.h.g = 8w1; }
    }
}
Pipeline(P(), C()) main;
"""

ALL_TABLES = ["ta", "t1", "t2"]


def make_flay(target):
    return Flay(parse_program(SOURCE), FlayOptions(target=target))


def chunk(stream, seed):
    """Split a stream into random-size batches (1..12), seeded."""
    rng = random.Random(seed * 7919 + 13)
    batches, i = [], 0
    while i < len(stream):
        size = rng.randint(1, 12)
        batches.append(stream[i : i + size])
        i += size
    return batches


def lowered_trace(flay):
    return [
        (lowered.target, lowered.table, lowered.update)
        for lowered in flay.runtime.lowered_updates
    ]


def assert_same_result(a, b):
    assert a.runtime.point_verdicts == b.runtime.point_verdicts
    assert a.runtime.table_verdicts == b.runtime.table_verdicts
    assert a.specialized_source() == b.specialized_source()


def memo_counter(flay):
    return flay.runtime.ctx.query_engine.table_verdict_counter


@pytest.mark.parametrize("target", ("none", "tofino"))
@pytest.mark.parametrize("seed", [0, 7])
def test_sequential_stream_cached_equals_uncached(target, seed):
    flay = make_flay(target)
    spec = Spec(flay)
    stream = EntryFuzzer(flay.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=50, modify_fraction=0.3, delete_fraction=0.2
    )
    for update in stream:
        spec.check_decision(flay.process_update(update), [update])
    assert flay.specialized_source() == spec.specialized_source()
    spec.check_lowered()
    # Non-vacuous: the memo engaged.
    assert memo_counter(flay).hits > 0


@pytest.mark.parametrize("seed", [2])
def test_batched_stream_cached_equals_uncached(seed):
    flay = make_flay("tofino")
    spec = Spec(flay)
    stream = EntryFuzzer(flay.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=40, modify_fraction=0.25, delete_fraction=0.15
    )
    for batch in chunk(stream, seed):
        spec.check_decision(flay.apply_batch(batch, workers=ENV_WORKERS), batch)
    assert flay.specialized_source() == spec.specialized_source()
    spec.check_lowered()
    # Slice counters and memo entries both fold back on merge, so the
    # shared memo accumulates cross-batch hits.
    assert memo_counter(flay).misses > 0
    assert memo_counter(flay).hits > 0


@pytest.mark.parametrize("seed", [3])
def test_output_invariant_across_worker_counts(seed):
    """workers=1, 4: byte-identical, and the specification's verdicts
    after every batch."""
    engines = {w: make_flay("tofino") for w in (1, 4)}
    stream = EntryFuzzer(engines[1].model, seed=seed).update_stream(
        tables=ALL_TABLES, count=50, modify_fraction=0.25, delete_fraction=0.15
    )
    for workers, flay in engines.items():
        spec = Spec(flay)
        for batch in chunk(stream, seed):
            spec.check_decision(flay.apply_batch(batch, workers=workers))
    assert_same_result(engines[1], engines[4])
    assert lowered_trace(engines[1]) == lowered_trace(engines[4])


def test_snapshot_roundtrip_reprimes_the_memo():
    """A restored engine behaves identically to the live one and holds the
    specification's verdicts — and the restore pass actually re-primed
    the memo (the blob cannot carry it: the keys embed term identities)."""

    def drive(engine, seed, count, spec=None):
        for update in EntryFuzzer(engine.model, seed=seed).update_stream(
            tables=ALL_TABLES, count=count
        ):
            decision = engine.process_update(update)
            if spec is not None:
                spec.check_decision(decision)

    live = Engine(source=SOURCE, options=EngineOptions(target="none"))
    drive(live, seed=5, count=25)
    restored = Engine.restore(pickle.loads(pickle.dumps(live.snapshot())))
    assert restored.ctx.query_engine._table_verdict_memo, (
        "restore should re-prime the table-verdict memo"
    )
    spec = Spec(restored)
    assert spec.step() == []  # the restored verdicts are the specification's
    hits = restored.ctx.query_engine.table_verdict_counter.hits
    drive(live, seed=6, count=15)
    drive(restored, seed=6, count=15, spec=spec)
    assert restored.ctx.query_engine.table_verdict_counter.hits > hits
    assert restored.point_verdicts == live.point_verdicts
    assert restored.table_verdicts == live.table_verdicts


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=5, max_value=30),
    modify=st.sampled_from([0.0, 0.2, 0.4]),
    delete=st.sampled_from([0.0, 0.2]),
)
def test_property_cached_equals_uncached(seed, count, modify, delete):
    """Hypothesis sweep over stream shapes: any fuzzer stream, any mix of
    inserts/modifies/deletes, the memo never changes a verdict."""
    flay = make_flay("none")
    spec = Spec(flay)
    stream = EntryFuzzer(flay.model, seed=seed).update_stream(
        tables=ALL_TABLES,
        count=count,
        modify_fraction=modify,
        delete_fraction=delete,
    )
    for update in stream:
        spec.check_decision(flay.process_update(update))
    assert flay.specialized_source() == spec.specialized_source()
