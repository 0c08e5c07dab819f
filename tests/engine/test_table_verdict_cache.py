"""Differential safety net for the structural table-verdict memo.

The memo's contract is pure ablation: a cached verdict is byte-identical
to the recomputed one, because the memo key — the table's active-entry
digest plus the selector/hit term identities — spans every input the
uncached computation reads.  These tests pin that contract the way the
gate's differential suite pins gating: fuzzer streams, sequential and
batched application, snapshot/restore
round-trips, and a Hypothesis sweep — identical output either way, with
a non-vacuity check that the memo actually got hits.

CI runs this module with ``FLAY_TABLE_VERDICT_CACHE`` ∈ {0, 1} ×
``FLAY_BATCH_WORKERS`` ∈ {1, 4}; the env vars parameterize the
worker-count-invariance regime (the explicit cached-vs-uncached tests
construct both engines regardless).
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

#: CI matrix axes.
ENV_WORKERS = int(os.environ.get("FLAY_BATCH_WORKERS", "2"))
ENV_CACHE = os.environ.get("FLAY_TABLE_VERDICT_CACHE", "1") != "0"

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


def make_flay(target, cache):
    return Flay(
        parse_program(SOURCE),
        FlayOptions(target=target, table_verdict_cache=cache),
    )


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


def test_flag_wires_through_to_the_query_engine():
    cached = make_flay("none", True)
    uncached = make_flay("none", False)
    assert cached.runtime.ctx.query_engine.table_verdict_cache is True
    assert uncached.runtime.ctx.query_engine.table_verdict_cache is False


@pytest.mark.parametrize("target", ("none", "tofino"))
@pytest.mark.parametrize("seed", [0, 7])
def test_sequential_stream_cached_equals_uncached(target, seed):
    cached = make_flay(target, True)
    uncached = make_flay(target, False)
    stream = EntryFuzzer(cached.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=50, modify_fraction=0.3, delete_fraction=0.2
    )
    for update in stream:
        a = cached.process_update(update)
        b = uncached.process_update(update)
        assert a.forwarded == b.forwarded
    assert_same_result(cached, uncached)
    assert lowered_trace(cached) == lowered_trace(uncached)
    # Non-vacuous: the memo engaged on one side and stayed idle on the
    # other (the disabled engine must never even count).
    assert memo_counter(cached).hits > 0
    assert memo_counter(uncached).hits == 0
    assert memo_counter(uncached).misses == 0
    assert not uncached.runtime.ctx.query_engine._table_verdict_memo


@pytest.mark.parametrize("seed", [2])
def test_batched_stream_cached_equals_uncached(seed):
    cached = make_flay("tofino", True)
    uncached = make_flay("tofino", False)
    stream = EntryFuzzer(cached.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=40, modify_fraction=0.25, delete_fraction=0.15
    )
    for batch in chunk(stream, seed):
        ra = cached.apply_batch(batch, workers=ENV_WORKERS)
        rb = uncached.apply_batch(batch, workers=ENV_WORKERS)
        assert ra.changed == rb.changed
        assert ra.recompiled == rb.recompiled
    assert_same_result(cached, uncached)
    assert lowered_trace(cached) == lowered_trace(uncached)
    # Slice counters and memo entries both fold back on merge, so the
    # shared memo accumulates cross-batch hits.
    assert memo_counter(cached).misses > 0
    assert memo_counter(cached).hits > 0
    assert memo_counter(uncached).hits == 0
    assert memo_counter(uncached).misses == 0


@pytest.mark.parametrize("seed", [3])
def test_output_invariant_across_worker_counts(seed):
    """workers=1, 4 under the env-selected cache flag (the CI matrix
    crosses this with FLAY_TABLE_VERDICT_CACHE=0/1)."""
    engines = {w: make_flay("tofino", ENV_CACHE) for w in (1, 4)}
    stream = EntryFuzzer(engines[1].model, seed=seed).update_stream(
        tables=ALL_TABLES, count=50, modify_fraction=0.25, delete_fraction=0.15
    )
    for workers, flay in engines.items():
        for batch in chunk(stream, seed):
            flay.apply_batch(batch, workers=workers)
    assert_same_result(engines[1], engines[4])
    assert lowered_trace(engines[1]) == lowered_trace(engines[4])


def test_snapshot_roundtrip_reprimes_the_memo():
    """A restored engine behaves identically to the live one and to an
    uncached engine — and the restore pass actually re-primed the memo
    (the blob cannot carry it: the keys embed term identities)."""

    def drive(engine, seed, count):
        for update in EntryFuzzer(engine.model, seed=seed).update_stream(
            tables=ALL_TABLES, count=count
        ):
            engine.process_update(update)

    live = Engine(source=SOURCE, options=EngineOptions(target="none"))
    drive(live, seed=5, count=25)
    restored = Engine.restore(pickle.loads(pickle.dumps(live.snapshot())))
    assert restored.ctx.query_engine._table_verdict_memo, (
        "restore should re-prime the table-verdict memo"
    )
    uncached = Engine(
        source=SOURCE,
        options=EngineOptions(target="none", table_verdict_cache=False),
    )
    drive(uncached, seed=5, count=25)
    for engine in (live, restored):
        drive(engine, seed=6, count=15)
    drive(uncached, seed=6, count=15)
    assert restored.point_verdicts == live.point_verdicts
    assert restored.table_verdicts == live.table_verdicts
    assert restored.point_verdicts == uncached.point_verdicts
    assert restored.table_verdicts == uncached.table_verdicts


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
    cached = make_flay("none", True)
    uncached = make_flay("none", False)
    stream = EntryFuzzer(cached.model, seed=seed).update_stream(
        tables=ALL_TABLES,
        count=count,
        modify_fraction=modify,
        delete_fraction=delete,
    )
    for update in stream:
        cached.process_update(update)
        uncached.process_update(update)
    assert_same_result(cached, uncached)
