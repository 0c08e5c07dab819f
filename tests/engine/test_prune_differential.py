"""Differential safety net for the prune pass: pruned == unpruned.

The pass's contract is *output preservation*: every branch it deletes is
a branch the symbolic executor would short-circuit, and every constant
it folds is one the specializer folds to the same literal — so the
specialized source, the materialized table state, and the lowered write
sequence are byte-identical with pruning on and off.  Program points and
CNF sizes legitimately differ (that's the point of the pass), so unlike
the gate differential these tests never compare point verdicts.  The
unpruned side is the cold pipeline without :class:`PrunePass`
(:func:`tests.engine.spec.without_prune_pass`).

Exceptions count as output too: when the pipeline raises on a given
update, it must raise identically on both sides (error-for-error
equivalence), which the corpus replay exercises.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import Flay, FlayOptions
from repro.p4.parser import parse_program
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from tests.engine.spec import without_prune_pass

TARGETS = ("tofino", "bmv2")

# The gate-differential program, plus a constant-dominated region so the
# prune pass actually engages: an always-true guard around a table apply,
# a dead else branch, and a foldable derived constant.
SOURCE = """
header h_t { bit<8> a; bit<8> b; bit<8> f; bit<8> g; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; bit<8> n; bit<8> p; bit<8> q; }
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
        meta.p = 8w1;
        meta.q = meta.p + 8w1;
        if (meta.p == 8w1) { ta.apply(); } else { hdr.h.g = 8w9; }
        t1.apply();
        if (meta.m == 8w3) { t2.apply(); }
        if (meta.n == meta.q) { hdr.h.g = 8w1; }
    }
}
Pipeline(P(), C()) main;
"""

ALL_TABLES = ["ta", "t1", "t2"]


def make_flay(target, prune, source=SOURCE):
    program = source if not isinstance(source, str) else parse_program(source)
    if prune:
        return Flay(program, FlayOptions(target=target))
    with without_prune_pass():
        return Flay(program, FlayOptions(target=target))


def final_state(flay):
    return {
        name: table.entries()
        for name, table in flay.runtime.state.tables.items()
    }


def lowered_trace(decision):
    """The writes one decision sent to the device, in order."""
    return [
        (lowered.target, lowered.table, lowered.update)
        for lowered in decision.lowered
    ]


def assert_same_output(pruned, unpruned):
    """Byte-identical observable output; verdict/point internals exempt.
    The lowered writes are compared decision by decision, where decided."""
    assert pruned.specialized_source() == unpruned.specialized_source()
    assert final_state(pruned) == final_state(unpruned)


def run_stream(pruned, unpruned, stream):
    """Apply ``stream`` to both engines, demanding error-for-error parity."""
    for update in stream:
        ra = rb = ea = eb = None
        try:
            ra = pruned.process_update(update)
        except Exception as exc:  # noqa: BLE001 — parity is the assertion
            ea = exc
        try:
            rb = unpruned.process_update(update)
        except Exception as exc:  # noqa: BLE001
            eb = exc
        assert repr(ea) == repr(eb), f"exception divergence on {update}"
        if ra is not None:
            assert ra.forwarded == rb.forwarded
            assert lowered_trace(ra) == lowered_trace(rb)


@pytest.mark.parametrize("target", TARGETS)
def test_cold_specialization_identical(target):
    pruned = make_flay(target, True)
    unpruned = make_flay(target, False)
    assert_same_output(pruned, unpruned)
    # Non-vacuity: the pass engaged on this program.
    assert pruned.prune_report is not None and pruned.prune_report.changed
    assert pruned.prune_report.removed_branches >= 1
    assert unpruned.prune_report is None


@pytest.mark.parametrize("effort", ["none", "dce", "full"])
def test_the_pass_runs_at_every_effort_but_none(effort):
    """No option switches the pass off; the effort level does."""
    flay = Flay(parse_program(SOURCE), FlayOptions(target="none", effort=effort))
    assert (flay.prune_report is None) == (effort == "none")


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("seed", [0, 7])
def test_sequential_stream_identical(target, seed):
    pruned = make_flay(target, True)
    unpruned = make_flay(target, False)
    stream = EntryFuzzer(pruned.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=40, modify_fraction=0.3, delete_fraction=0.2
    )
    run_stream(pruned, unpruned, stream)
    assert_same_output(pruned, unpruned)


@pytest.mark.parametrize("name", ["fig3", "scion", "switch"])
def test_corpus_cold_specialization_identical(name):
    program = registry.load(name)
    pruned = make_flay("tofino", True, program)
    unpruned = make_flay("tofino", False, registry.load(name))
    assert pruned.specialized_source() == unpruned.specialized_source()
    if name == "switch":
        # switch carries real dead code (constant if-ladders); the
        # differential must hold while the pass is actually rewriting.
        assert pruned.prune_report.removed_branches >= 1


@pytest.mark.parametrize("name,target", [("scion", "tofino"), ("switch", "tofino")])
def test_corpus_update_replay_identical(name, target):
    pruned = make_flay(target, True, registry.load(name))
    unpruned = make_flay(target, False, registry.load(name))
    tables = sorted(pruned.model.tables)[:6]
    stream = EntryFuzzer(pruned.model, seed=3).update_stream(
        tables=tables, count=30, modify_fraction=0.25, delete_fraction=0.15
    )
    run_stream(pruned, unpruned, stream)
    assert_same_output(pruned, unpruned)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=5, max_value=30),
    modify=st.sampled_from([0.0, 0.2, 0.4]),
    delete=st.sampled_from([0.0, 0.2]),
)
def test_property_pruned_equals_unpruned(seed, count, modify, delete):
    """Hypothesis sweep over stream shapes: any fuzzer stream, any mix of
    inserts/modifies/deletes, pruning never changes observable output."""
    pruned = make_flay("none", True)
    unpruned = make_flay("none", False)
    stream = EntryFuzzer(pruned.model, seed=seed).update_stream(
        tables=ALL_TABLES,
        count=count,
        modify_fraction=modify,
        delete_fraction=delete,
    )
    run_stream(pruned, unpruned, stream)
    assert_same_output(pruned, unpruned)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**12),
    chunk_sizes=st.lists(
        st.integers(min_value=1, max_value=8), min_size=1, max_size=6
    ),
)
def test_property_batched_replay_identical(seed, chunk_sizes):
    """Batched application (the scheduler path) under pruning: identical
    recompile decisions and output for arbitrary batch boundaries."""
    pruned = make_flay("tofino", True)
    unpruned = make_flay("tofino", False)
    stream = EntryFuzzer(pruned.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=25, modify_fraction=0.2, delete_fraction=0.1
    )
    i = 0
    while i < len(stream):
        size = chunk_sizes[i % len(chunk_sizes)]
        batch = stream[i : i + size]
        i += size
        ra = pruned.decide(batch)
        rb = unpruned.decide(batch)
        # Point IDs carry an allocation counter that shifts when pruning
        # removes points, so compare them with the counter stripped.
        normalize = lambda pids: sorted(p.split("#")[0] for p in pids)
        assert normalize(ra.changed) == normalize(rb.changed)
        assert ra.recompiled == rb.recompiled
        assert lowered_trace(ra) == lowered_trace(rb)
    assert_same_output(pruned, unpruned)
