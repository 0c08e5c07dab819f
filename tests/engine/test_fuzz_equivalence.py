"""Fuzzer-driven equivalence: the staged engine == a from-scratch pipeline.

The pass-pipeline refactor must be behavior-preserving: across random
update streams, the warm path's verdicts, specialized source, and
forward/recompile decisions must be bit-identical to (a) a cold pipeline
rebuilt from scratch over the same control-plane state, and (b) a bare
``Engine`` built from the same program and options as the ``Flay``.
"""

import pytest

from repro.core import Flay, FlayOptions
from repro.engine import Engine, EngineOptions
from repro.engine.queries import QueryEngine
from repro.p4.parser import parse_program
from repro.p4.printer import print_program
from repro.runtime.fuzzer import EntryFuzzer
from repro.smt import Solver

from tests.engine.spec import Spec

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
        // A table-written field against a data field: no constant-leaf
        // rule decides this guard, so it reaches the SAT core.
        if (meta.n == hdr.h.g) { meta.m = 8w2; }
    }
}
Pipeline(P(), C()) main;
"""


def _scratch(updates):
    """A cold pipeline over the same control-plane state."""
    engine = Engine(parse_program(SOURCE), EngineOptions(target="none"))
    for update in updates:
        engine.ctx.state.apply_update(update)
    engine._encode_initial()
    engine._evaluate_all_points()
    specialized, _ = engine.ctx.specializer.specialize(
        engine.point_verdicts, engine.table_verdicts
    )
    return engine, specialized


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_warm_stream_matches_cold_rebuild(seed):
    flay = Flay(parse_program(SOURCE), FlayOptions(target="none"))
    fuzzer = EntryFuzzer(flay.model, seed=seed)
    stream = fuzzer.update_stream(tables=["t1", "t2"], count=40)
    applied = []
    for step, update in enumerate(stream):
        flay.process_update(update)
        applied.append(update)
        if step % 13 == 12:
            scratch, specialized = _scratch(applied)
            assert flay.runtime.point_verdicts == scratch.point_verdicts
            assert flay.runtime.table_verdicts == scratch.table_verdicts
            assert flay.specialized_source() == print_program(specialized)
    scratch, specialized = _scratch(applied)
    assert flay.runtime.point_verdicts == scratch.point_verdicts
    assert flay.runtime.table_verdicts == scratch.table_verdicts
    assert flay.specialized_source() == print_program(specialized)


@pytest.mark.parametrize("seed", [7, 8])
def test_facade_and_legacy_runtime_make_identical_decisions(seed):
    """A ``Flay`` and a bare ``Engine``, same stream → identical
    forward/recompile decisions, changed lists, and verdicts."""
    program_a = parse_program(SOURCE)
    program_b = parse_program(SOURCE)
    flay = Flay(program_a, FlayOptions(target="none"))
    legacy = Engine(program_b, EngineOptions(target="none"))
    fuzzer = EntryFuzzer(flay.model, seed=seed)
    stream = fuzzer.update_stream(tables=["t1", "t2"], count=30)
    for update in stream:
        a = flay.process_update(update)
        b = legacy.process_update(update)
        assert a.forwarded == b.forwarded
        assert a.recompiled == b.recompiled
        assert a.changed == b.changed
        assert a.affected_points == b.affected_points
        assert a.overapproximated == b.overapproximated
    assert flay.runtime.point_verdicts == legacy.point_verdicts
    assert flay.runtime.table_verdicts == legacy.table_verdicts
    assert flay.specialized_source() == print_program(legacy.specialized_program)
    assert flay.runtime.forwarded_count == legacy.forwarded_count
    assert flay.runtime.recompiled_count == legacy.recompiled_count


def test_batch_stream_matches_cold_rebuild():
    flay = Flay(parse_program(SOURCE), FlayOptions(target="none"))
    fuzzer = EntryFuzzer(flay.model, seed=21)
    stream = fuzzer.update_stream(tables=["t1", "t2"], count=60)
    # Replay in three batches of 20.
    for start in range(0, 60, 20):
        flay.process_batch(stream[start:start + 20])
    scratch, specialized = _scratch(stream)
    assert flay.runtime.point_verdicts == scratch.point_verdicts
    assert flay.runtime.table_verdicts == scratch.table_verdicts
    assert flay.specialized_source() == print_program(specialized)


@pytest.mark.parametrize("seed", [5, 17])
def test_incremental_session_matches_replay_baseline(seed):
    """The persistent assumption-probing solver session must be invisible:
    across a fuzzed stream, every decision, verdict, and the specialized
    source match the specification (``tests/engine/spec.py``) deciding
    with a solver that encodes and solves every query afresh."""
    flay = Flay(parse_program(SOURCE), FlayOptions(target="none"))
    fresh = Solver(
        share_encodings=False, max_conflicts=QueryEngine.DEFAULT_MAX_CONFLICTS
    )
    spec = Spec(flay, solver=fresh)
    fuzzer = EntryFuzzer(flay.model, seed=seed)
    stream = fuzzer.update_stream(tables=["t1", "t2"], count=40)
    for update in stream:
        spec.check_decision(flay.process_update(update))
    assert flay.specialized_source() == spec.specialized_source()
    # Both reached the SAT layer; the engine, which replays witnesses and
    # re-asks only what changed, never more often than the specification.
    assert 0 < flay.solver_stats().probes <= fresh.stats.probes


def test_update_stream_replays_cleanly():
    """Every MODIFY/DELETE in a fuzzed stream targets a live entry."""
    flay = Flay(parse_program(SOURCE), FlayOptions(target="none"))
    fuzzer = EntryFuzzer(flay.model, seed=33)
    stream = fuzzer.update_stream(tables=["t1"], count=80)
    ops = {u.op for u in stream}
    assert ops == {"insert", "modify", "delete"}
    for update in stream:  # EntryError here would fail the test
        flay.process_update(update)
