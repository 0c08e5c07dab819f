"""Differential safety net for the verdict gate: gated == ``--no-fdd-gate``.

The gate's contract is that every tier returns exactly what the ungated
path would return — tiers 1/3 *are* the ungated decision layers, and the
witness tiers only short-circuit facts two concrete models prove.  These
tests pin that contract the same way the batch scheduler's differential
suite pins batching: fuzzer streams, every target backend, sequential
and batched application, and byte-identical output either way.

CI runs this module four times — ``FLAY_FDD_GATE`` ∈ {0, 1} ×
``FLAY_BATCH_WORKERS`` ∈ {1, 4}; the env vars parameterize the
worker-count-invariance regime (the explicit gated-vs-ungated tests
construct both engines regardless).
"""

import os
import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import Flay, FlayOptions
from repro.p4.parser import parse_program
from repro.runtime.entries import ExactMatch, TableEntry, TernaryMatch
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import INSERT, Update

TARGETS = ("tofino", "tofino-incremental", "bmv2")

#: CI matrix axes.
ENV_WORKERS = int(os.environ.get("FLAY_BATCH_WORKERS", "2"))
ENV_GATE = os.environ.get("FLAY_FDD_GATE", "1") != "0"

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
#: The tables whose entries decide an ``if`` guard (ta: n == 7, t1: m == 3).
GUARD_TABLES = ["ta", "t1"]


def make_flay(target, gate):
    return Flay(parse_program(SOURCE), FlayOptions(target=target, fdd_gate=gate))


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
def test_sequential_stream_gated_equals_ungated(target, seed):
    """One-at-a-time application of a mixed stream: verdicts, source,
    state, and the lowered write sequence are identical with the gate on
    and off — and the gate actually engaged (non-vacuous)."""
    gated = make_flay(target, True)
    ungated = make_flay(target, False)
    stream = EntryFuzzer(gated.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=50, modify_fraction=0.3, delete_fraction=0.2
    )
    for update in stream:
        a = gated.process_update(update)
        b = ungated.process_update(update)
        assert a.forwarded == b.forwarded
    assert_same_result(gated, ungated)
    assert lowered_trace(gated) == lowered_trace(ungated)
    assert gated.gate_stats().screened > 0
    assert ungated.gate_stats() is None


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("seed", [2, 9])
def test_batched_stream_gated_equals_ungated(target, seed):
    """The batch scheduler path: the forked/absorbed worker gates leave
    the same output the ungated workers do."""
    gated = make_flay(target, True)
    ungated = make_flay(target, False)
    stream = EntryFuzzer(gated.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=50, modify_fraction=0.25, delete_fraction=0.15
    )
    for batch in chunk(stream, seed):
        ra = gated.apply_batch(batch, workers=ENV_WORKERS)
        rb = ungated.apply_batch(batch, workers=ENV_WORKERS)
        assert ra.changed == rb.changed
        assert ra.recompiled == rb.recompiled
    assert_same_result(gated, ungated)
    assert lowered_trace(gated) == lowered_trace(ungated)


@pytest.mark.parametrize("seed", [3, 8])
def test_output_invariant_across_worker_counts(seed):
    """workers=1, 2, 4 under the env-selected gate flag (the CI matrix
    crosses this with FLAY_FDD_GATE=0/1): byte-identical everything."""
    engines = {w: make_flay("tofino", ENV_GATE) for w in (1, 2, 4)}
    stream = EntryFuzzer(engines[1].model, seed=seed).update_stream(
        tables=ALL_TABLES, count=60, modify_fraction=0.25, delete_fraction=0.15
    )
    for workers, flay in engines.items():
        for batch in chunk(stream, seed):
            flay.apply_batch(batch, workers=workers)
    baseline = engines[1]
    for workers, flay in engines.items():
        if workers == 1:
            continue
        assert_same_result(baseline, flay)
        assert lowered_trace(baseline) == lowered_trace(flay)


def test_witness_replay_regime_stays_identical():
    """The regime the gate accelerates — a warm-up that leaves both `if`
    guards MAYBE, then an insert burst into the two tables that guard
    them, which the gate answers mostly from witness fingerprints — still
    produces byte-identical output."""
    gated = make_flay("tofino", True)
    ungated = make_flay("tofino", False)
    fuzzer = EntryFuzzer(gated.model, seed=4)
    # ``meta.n == 7`` is decided by ta's entries, ``meta.m == 3`` by t1's:
    # one entry each that makes the guard reachable, so both points hold a
    # witness record.  Value points hold none, so a burst that only moves
    # those replays nothing.
    warmup = [
        Update("C.ta", INSERT, TableEntry((ExactMatch(1),), "setn", (7,), 0)),
        Update("C.t1", INSERT, TableEntry((TernaryMatch(1, 0xFF),), "set", (3,), 9)),
    ]
    taken = {(u.table, u.entry.match_key()) for u in warmup}
    for table in ALL_TABLES:
        for update in fuzzer.representative_updates(table, per_action=2):
            if (update.table, update.entry.match_key()) not in taken:
                warmup.append(update)
    gated.process_batch(warmup)
    ungated.process_batch(warmup)
    burst = []
    for table in GUARD_TABLES:
        burst.extend(fuzzer.insert_burst(table, 15))
    before = gated.gate_stats()
    for update in burst:
        a = gated.process_update(update)
        b = ungated.process_update(update)
        assert a.forwarded == b.forwarded
    delta = gated.gate_stats().since(before)
    assert delta.witness_hits > 0, "burst should exercise the replay tier"
    assert_same_result(gated, ungated)
    assert lowered_trace(gated) == lowered_trace(ungated)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=5, max_value=30),
    modify=st.sampled_from([0.0, 0.2, 0.4]),
    delete=st.sampled_from([0.0, 0.2]),
)
def test_property_gated_equals_ungated(seed, count, modify, delete):
    """Hypothesis sweep over stream shapes: any fuzzer stream, any mix of
    inserts/modifies/deletes, the gate never changes a verdict."""
    gated = make_flay("none", True)
    ungated = make_flay("none", False)
    stream = EntryFuzzer(gated.model, seed=seed).update_stream(
        tables=ALL_TABLES,
        count=count,
        modify_fraction=modify,
        delete_fraction=delete,
    )
    for update in stream:
        gated.process_update(update)
        ungated.process_update(update)
    assert_same_result(gated, ungated)
