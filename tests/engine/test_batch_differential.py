"""Differential safety net: batched application == one-at-a-time application.

Streams come from the fuzzer, batch sizes are drawn per seed, and every
real target backend is exercised.  Two regimes:

* **always** — whatever the stream does (recompiles included), the final
  specialized source, verdicts, and control-plane state of the batched
  engine are identical to the sequential engine's, and two batched
  engines fed the same bursts agree byte for byte;
* **forwarded** — once the tables are saturated with entries covering
  every action, further inserts change no verdict; there the *lowered
  update stream* sent to the device must also be byte-identical to the
  sequential engine's (same writes, same order).
"""

import random

import pytest

from repro.core import Flay, FlayOptions
from repro.p4.parser import parse_program
from repro.p4.printer import print_program
from repro.runtime.fuzzer import EntryFuzzer

TARGETS = ("tofino", "bmv2")

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


def lowered_trace(decisions):
    """Every write the decisions sent to the device, in order."""
    return [
        (lowered.target, lowered.table, lowered.update)
        for decision in decisions
        for lowered in decision.lowered
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
        sequential.decide(update)
    for batch in chunk(stream, seed):
        batched.decide(batch)
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
    sequential_decisions = [sequential.process_batch(warmup)]
    batched_decisions = [batched.process_batch(warmup)]

    burst = []
    for table in ALL_TABLES:
        burst.extend(fuzzer.insert_burst(table, 10))
    rng = random.Random(seed)
    rng.shuffle(burst)
    for update in burst:
        decision = sequential.process_update(update)
        assert decision.forwarded, "stream was expected to saturate verdicts"
        sequential_decisions.append(decision)
    for batch in chunk(burst, seed):
        decision = batched.decide(batch)
        assert decision.forwarded
        batched_decisions.append(decision)

    assert sequential.runtime.recompilations == batched.runtime.recompilations
    assert lowered_trace(sequential_decisions) == lowered_trace(batched_decisions)
    # Every submitted write reached the device, in submission order.
    assert lowered_trace(sequential_decisions[1:]) == [
        (sequential.runtime.device_compiler.name, u.table, u) for u in burst
    ]
    assert_same_result(sequential, batched)


@pytest.mark.parametrize("seed", [3, 8])
def test_output_is_deterministic(seed):
    """Two engines fed the same chunked stream: byte-identical source,
    verdicts, state, lowered writes, and decision records."""
    first, second = make_flay("tofino"), make_flay("tofino")
    stream = EntryFuzzer(first.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=60, modify_fraction=0.25, delete_fraction=0.15
    )
    decisions = [
        [flay.decide(batch) for batch in chunk(stream, seed)]
        for flay in (first, second)
    ]
    assert_same_result(first, second)
    assert lowered_trace(decisions[0]) == lowered_trace(decisions[1])
    for a, b in zip(*decisions):
        assert a.changed == b.changed
        assert a.recompiled == b.recompiled
        assert a.coalesced_count == b.coalesced_count
        assert a.group_count == b.group_count


def test_multi_group_burst_matches_sequential():
    """The forwarded-regime burst splits into independent conflict groups
    (group_count > 1) and still hands the device the sequential engine's
    lowered stream."""
    sequential = make_flay("tofino")
    grouped = make_flay("tofino")
    fuzzer = EntryFuzzer(sequential.model, seed=1)
    warmup = []
    for table in ALL_TABLES:
        warmup.extend(fuzzer.representative_updates(table, per_action=3))
    sequential_decisions = [sequential.process_batch(warmup)]
    grouped_decisions = [grouped.process_batch(warmup)]
    burst = []
    for table in ALL_TABLES:
        burst.extend(fuzzer.insert_burst(table, 10))
    for update in burst:
        sequential_decisions.append(sequential.decide(update))
    grouped_decisions.append(grouped.decide(burst))
    assert grouped_decisions[-1].group_count > 1
    assert lowered_trace(sequential_decisions) == lowered_trace(grouped_decisions)
    assert_same_result(sequential, grouped)


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
        sequential.decide(update)
    batched.decide(mixed)
    assert_same_result(sequential, batched)
    assert (
        sequential.runtime.state.value_sets == batched.runtime.state.value_sets
    )
