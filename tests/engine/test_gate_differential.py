"""Differential safety net for the verdict gate: engine == specification.

The gate's contract is that a replay only ever short-circuits a MAYBE
two concrete witnesses prove, and that every other verdict is
``QueryEngine._executability``'s.  These tests pin that contract against
the specification in ``tests/engine/spec.py`` — a bare ``QueryEngine``
over a one-shot substitution of the engine's mapping, re-derived after
every chunk — the same way the batch scheduler's differential suite pins
batching: fuzzer streams, every target backend, sequential and batched
application.

"Ungated" in the test names is that specification: the gate-less query
engine.  ``FLAY_BATCH_WORKERS`` (CI's ``batch-differential`` axis) sets
the worker count of the batched regime.
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

from tests.engine.spec import Spec

TARGETS = ("tofino", "tofino-incremental", "bmv2")

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
#: The tables whose entries decide an ``if`` guard (ta: n == 7, t1: m == 3).
GUARD_TABLES = ["ta", "t1"]


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


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_sequential_stream_gated_equals_ungated(target, seed):
    """One-at-a-time application of a mixed stream: after every update the
    verdicts are the specification's, the decision reports exactly the
    verdicts that moved, the source is what a from-scratch specializer
    prints, and the lowered write sequence is the forwarded updates —
    and the gate actually engaged (non-vacuous)."""
    flay = make_flay(target)
    spec = Spec(flay)
    stream = EntryFuzzer(flay.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=50, modify_fraction=0.3, delete_fraction=0.2
    )
    for update in stream:
        spec.check_decision(flay.process_update(update), [update])
    assert flay.specialized_source() == spec.specialized_source()
    spec.check_lowered()
    assert flay.gate_stats().screened > 0


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("seed", [2, 9])
def test_batched_stream_gated_equals_ungated(target, seed):
    """The batch scheduler path: the forked/absorbed worker gates leave
    the specification's verdicts after every batch."""
    flay = make_flay(target)
    spec = Spec(flay)
    stream = EntryFuzzer(flay.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=50, modify_fraction=0.25, delete_fraction=0.15
    )
    for batch in chunk(stream, seed):
        spec.check_decision(flay.apply_batch(batch, workers=ENV_WORKERS), batch)
    assert flay.specialized_source() == spec.specialized_source()
    spec.check_lowered()


@pytest.mark.parametrize("seed", [3, 8])
def test_output_invariant_across_worker_counts(seed):
    """workers=1, 2, 4: byte-identical everything, and the specification's
    verdicts after every batch."""
    engines = {w: make_flay("tofino") for w in (1, 2, 4)}
    stream = EntryFuzzer(engines[1].model, seed=seed).update_stream(
        tables=ALL_TABLES, count=60, modify_fraction=0.25, delete_fraction=0.15
    )
    for workers, flay in engines.items():
        spec = Spec(flay)
        for batch in chunk(stream, seed):
            spec.check_decision(flay.apply_batch(batch, workers=workers))
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
    holds the specification's verdicts after every update."""
    flay = make_flay("tofino")
    spec = Spec(flay)
    fuzzer = EntryFuzzer(flay.model, seed=4)
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
    spec.check_decision(flay.process_batch(warmup), warmup)
    burst = []
    for table in GUARD_TABLES:
        burst.extend(fuzzer.insert_burst(table, 15))
    before = flay.gate_stats()
    for update in burst:
        spec.check_decision(flay.process_update(update), [update])
    delta = flay.gate_stats().since(before)
    assert delta.witness_hits > 0, "burst should exercise the replay tier"
    assert flay.specialized_source() == spec.specialized_source()
    spec.check_lowered()


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
