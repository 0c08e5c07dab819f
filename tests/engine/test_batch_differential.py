"""Differential safety net: batched application == one-at-a-time application.

Streams come from the fuzzer, batch sizes and worker counts are drawn per
seed, and every real target backend is exercised.  Two regimes:

* **always** — whatever the stream does (recompiles included), the final
  specialized source, verdicts, and control-plane state of the batched
  engine are identical to the sequential engine's, and a batched engine's
  output is byte-identical across worker counts (1, 2, 4);
* **forwarded** — once the tables are saturated with entries covering
  every action, further inserts change no verdict; there the *lowered
  update stream* sent to the device must also be byte-identical to the
  sequential engine's (same writes, same order).

CI runs this module twice, with ``FLAY_BATCH_WORKERS=1`` and ``=4`` (see
the workflow); locally the env var defaults to 2.
"""

import os
import random

import pytest

from repro.core import Flay, FlayOptions
from repro.p4.parser import parse_program
from repro.p4.printer import print_program
from repro.runtime.fuzzer import EntryFuzzer

TARGETS = ("tofino", "tofino-incremental", "bmv2")

#: CI matrix axis: the worker count used by the mixed-stream regime.
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


def final_state(flay):
    return {
        name: table.entries()
        for name, table in flay.runtime.state.tables.items()
    }


def lowered_trace(flay):
    return [
        (lowered.target, lowered.table, lowered.update)
        for lowered in flay.runtime.lowered_updates
    ]


def assert_same_result(a, b):
    assert a.runtime.point_verdicts == b.runtime.point_verdicts
    assert a.runtime.table_verdicts == b.runtime.table_verdicts
    assert a.specialized_source() == b.specialized_source()
    assert final_state(a) == final_state(b)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_mixed_stream_same_final_output(target, seed):
    """Batched vs sequential over a mixed insert/modify/delete stream:
    identical final program, verdicts, and control-plane state — even when
    the stream forces recompiles along the way."""
    sequential = make_flay(target)
    batched = make_flay(target)
    stream = EntryFuzzer(sequential.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=50, modify_fraction=0.3, delete_fraction=0.2
    )
    for update in stream:
        sequential.process_update(update)
    for batch in chunk(stream, seed):
        batched.apply_batch(batch, workers=ENV_WORKERS)
    assert_same_result(sequential, batched)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("seed", [1, 2])
def test_forwarded_regime_lowered_streams_byte_identical(target, seed):
    """Saturate every action, then burst inserts: nothing respecializes, and
    the batched engine hands the device the exact same write sequence the
    sequential engine does."""
    sequential = make_flay(target)
    batched = make_flay(target)
    fuzzer = EntryFuzzer(sequential.model, seed=seed)
    warmup = []
    for table in ALL_TABLES:
        warmup.extend(fuzzer.representative_updates(table, per_action=3))
    # Same warmup through the same entry point on both engines.
    sequential.process_batch(warmup)
    batched.process_batch(warmup)
    lowered_before = len(sequential.runtime.lowered_updates)

    burst = []
    for table in ALL_TABLES:
        burst.extend(fuzzer.insert_burst(table, 10))
    rng = random.Random(seed)
    rng.shuffle(burst)
    for update in burst:
        decision = sequential.process_update(update)
        assert decision.forwarded, "stream was expected to saturate verdicts"
    for batch in chunk(burst, seed):
        report = batched.apply_batch(batch, workers=ENV_WORKERS)
        assert report.forwarded

    assert sequential.runtime.recompilations == batched.runtime.recompilations
    assert lowered_trace(sequential) == lowered_trace(batched)
    # Every submitted write reached the device, in submission order.
    assert lowered_trace(sequential)[lowered_before:] == [
        (sequential.runtime.device_compiler.name, u.table, u) for u in burst
    ]
    assert_same_result(sequential, batched)


@pytest.mark.parametrize("seed", [3, 8])
def test_output_invariant_across_worker_counts(seed):
    """workers=1, 2, 4 over the same chunked stream: byte-identical source,
    verdicts, state, and lowered writes."""
    engines = {w: make_flay("tofino") for w in (1, 2, 4)}
    stream = EntryFuzzer(engines[1].model, seed=seed).update_stream(
        tables=ALL_TABLES, count=60, modify_fraction=0.25, delete_fraction=0.15
    )
    reports = {w: [] for w in engines}
    for workers, flay in engines.items():
        for batch in chunk(stream, seed):
            reports[workers].append(flay.apply_batch(batch, workers=workers))
    baseline = engines[1]
    for workers, flay in engines.items():
        if workers == 1:
            continue
        assert_same_result(baseline, flay)
        assert lowered_trace(baseline) == lowered_trace(flay)
        for a, b in zip(reports[1], reports[workers]):
            assert a.changed == b.changed
            assert a.recompiled == b.recompiled
            assert a.coalesced_count == b.coalesced_count
            assert a.group_count == b.group_count


def test_multi_group_burst_runs_on_the_pool():
    """The forwarded-regime burst splits into independent conflict groups
    and actually exercises the worker pool (group_count > 1, workers > 1),
    still matching the sequential engine's lowered stream."""
    sequential = make_flay("tofino")
    pooled = make_flay("tofino")
    fuzzer = EntryFuzzer(sequential.model, seed=1)
    warmup = []
    for table in ALL_TABLES:
        warmup.extend(fuzzer.representative_updates(table, per_action=3))
    sequential.process_batch(warmup)
    pooled.process_batch(warmup)
    burst = []
    for table in ALL_TABLES:
        burst.extend(fuzzer.insert_burst(table, 10))
    for update in burst:
        sequential.process_update(update)
    report = pooled.apply_batch(burst, workers=4)
    assert report.group_count > 1  # otherwise the pool was never used
    assert lowered_trace(sequential) == lowered_trace(pooled)
    assert_same_result(sequential, pooled)


def test_workers_zero_auto_detects_cpu_count():
    flay = make_flay("none")
    stream = EntryFuzzer(flay.model, seed=2).update_stream(
        tables=ALL_TABLES, count=8
    )
    report = flay.apply_batch(stream, workers=0)
    assert report.workers == (os.cpu_count() or 1)


def test_value_set_updates_flow_through_batches():
    """Value-set reconfigurations coalesce (last write wins) and land in the
    engine exactly as sequential application would leave them."""
    vs_source = SOURCE.replace(
        "state start { pkt_extract(hdr.h); transition accept; }",
        """value_set<bit<8>>(4) ports;
    state start {
        pkt_extract(hdr.h);
        transition select(hdr.h.a) { ports: accept; default: accept; }
    }""",
    )
    from repro.runtime.semantics import ValueSetUpdate

    sequential = Flay(parse_program(vs_source), FlayOptions(target="none"))
    batched = Flay(parse_program(vs_source), FlayOptions(target="none"))
    fuzzer = EntryFuzzer(sequential.model, seed=4)
    updates = fuzzer.update_stream(tables=["t1"], count=6)
    mixed = [
        ValueSetUpdate("ports", (1, 2)),
        *updates[:3],
        ValueSetUpdate("ports", (7,)),
        *updates[3:],
        ValueSetUpdate("ports", (9, 10, 11)),
    ]
    for update in mixed:
        if isinstance(update, ValueSetUpdate):
            sequential.process_value_set_update(update)
        else:
            sequential.process_update(update)
    batched.apply_batch(mixed, workers=2)
    assert_same_result(sequential, batched)
    assert (
        sequential.runtime.state.value_sets == batched.runtime.state.value_sets
    )
