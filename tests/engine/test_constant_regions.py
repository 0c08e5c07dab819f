"""Constant regions: the analysis decides them on every path.

A branch whose condition is constant under every control plane is an
executability point the analysis decides ALWAYS or NEVER, and the
specializer keeps only the arm that runs; a value computed from constants
alone is a constant point it folds (at effort ``full``).  No pass rewrites
the program before the analysis, so these decisions hold only if every
path keeps them: the cold build, one update at a time, bursts, a restored
snapshot, and the program the device is handed.

``SOURCE`` guards a table apply with an always-true condition whose
``else`` arm is dead and derives ``meta.q`` from a constant, next to
data-dependent branches the control plane moves.  On the corpus, switch
and dash each carry two constant ``if`` points.  Streams are checked
decision by decision against :class:`tests.engine.spec.Spec`, which
re-derives every verdict from scratch and specializes it afresh.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import Flay, FlayOptions
from repro.engine.queries import ALWAYS, NEVER
from repro.p4.parser import parse_program
from repro.p4.printer import print_program
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.smt.simplify import constant_value, simplify

from tests.engine.spec import Spec
from tests.engine.test_batch_differential import chunk, final_state
from tests.engine.test_incremental_specialize import rollout

TARGETS = ("tofino", "bmv2")

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

#: The always-true guard ``meta.p == 8w1`` and the assignment ``meta.q``.
GUARD = "C::if#3"
DERIVED = "C::assign::meta.q#2"


def make_flay(target="none", effort="full") -> Flay:
    return Flay.from_source(SOURCE, FlayOptions(target=target, effort=effort))


def assert_region_decided(flay) -> None:
    """The guard runs its ``then`` arm, ``meta.q`` is 2, and the dead
    ``else`` arm and the guard itself are gone from the program."""
    verdicts = flay.point_verdicts
    assert verdicts[GUARD].executability == ALWAYS
    assert verdicts[DERIVED].is_constant and verdicts[DERIVED].constant == 2
    source = flay.specialized_source()
    assert "8w9" not in source
    assert "meta.p == 8w1" not in source


def constant_ifs(engine) -> dict:
    """The ``if`` points whose condition simplifies to a constant, with
    the executability that constant implies."""
    out = {}
    for pid, point in engine.model.points.items():
        if point.kind != "if":
            continue
        value = constant_value(simplify(point.expr))
        if value is not None:
            out[pid] = ALWAYS if value else NEVER
    return out


def replay(flay, stream) -> Spec:
    """Decide ``stream`` one update at a time, checking every decision
    against the specification and the region after each."""
    spec = Spec(flay)
    for update in stream:
        spec.check_decision(flay.decide(update), [update])
        assert_region_decided(flay)
    spec.check_lowered()
    return spec


@pytest.mark.parametrize("effort", ["none", "dce", "full"])
def test_the_cold_build_decides_the_region(effort):
    """The verdicts do not depend on the effort; what the specializer
    does with them does: ``none`` prints the program as written, ``dce``
    drops the dead arm and the guard, ``full`` also folds ``meta.q``."""
    flay = make_flay(effort=effort)
    assert flay.point_verdicts[GUARD].executability == ALWAYS
    assert flay.point_verdicts[DERIVED].constant == 2
    source = flay.specialized_source()
    if effort == "none":
        assert source == print_program(parse_program(SOURCE))
        return
    assert_region_decided(flay)
    assert ("meta.q = 8w2;" in source) == (effort == "full")
    assert ("meta.q = meta.p + 8w1;" in source) == (effort == "dce")


@pytest.mark.parametrize("target", TARGETS)
def test_the_device_never_receives_the_dead_arm(target):
    """Every program the target compiles, cold and on each recompile of a
    stream, is the specialized one: no dead arm, no constant guard."""
    flay = make_flay(target)
    compiled = []
    compile_program = flay.device_compiler.compile

    def compile(program):
        compiled.append(print_program(program))
        return compile_program(program)

    flay.device_compiler.compile = compile
    stream = EntryFuzzer(flay.model, seed=2).update_stream(
        tables=ALL_TABLES, count=30, modify_fraction=0.3, delete_fraction=0.2
    )
    decisions = [flay.decide(update) for update in stream]
    assert len(compiled) == sum(d.recompiled for d in decisions) > 0
    for source in compiled:
        assert "8w9" not in source and "meta.p == 8w1" not in source
    assert compiled[-1] == flay.specialized_source()


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("seed", [0, 7])
def test_one_update_at_a_time_keeps_the_region_decided(target, seed):
    flay = make_flay(target)
    stream = EntryFuzzer(flay.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=40, modify_fraction=0.3, delete_fraction=0.2
    )
    replay(flay, stream)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("seed", [0, 7])
def test_bursts_equal_one_update_at_a_time(target, seed):
    """Each burst's decision matches the specification, and the bursts end
    where the sequential replay ends: same verdicts, program and tables."""
    sequential, batched = make_flay(target), make_flay(target)
    stream = EntryFuzzer(sequential.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=40, modify_fraction=0.3, delete_fraction=0.2
    )
    replay(sequential, stream)
    spec = Spec(batched)
    for burst in chunk(stream, seed):
        spec.check_decision(batched.decide(burst), burst)
        assert_region_decided(batched)
    spec.check_lowered()
    assert batched.point_verdicts == sequential.point_verdicts
    assert batched.table_verdicts == sequential.table_verdicts
    assert batched.specialized_source() == sequential.specialized_source()
    assert final_state(batched) == final_state(sequential)


def test_a_restored_engine_keeps_the_region_decided():
    live = make_flay("tofino")
    stream = EntryFuzzer(live.model, seed=4).update_stream(
        tables=ALL_TABLES, count=30, modify_fraction=0.3, delete_fraction=0.2
    )
    for update in stream[:15]:
        live.decide(update)
    restored = Flay.restore(live.snapshot())
    assert_region_decided(restored)
    assert restored.point_verdicts == live.point_verdicts
    assert restored.specialized_source() == live.specialized_source()
    for update in stream[15:]:
        assert restored.decide(update).recompiled == live.decide(update).recompiled
    assert_region_decided(restored)
    assert restored.specialized_source() == live.specialized_source()


@pytest.mark.parametrize("name", ["switch", "dash"])
@pytest.mark.parametrize("effort", ["dce", "full"])
def test_corpus_constant_ifs_hold_their_verdict(name, effort):
    """switch's and dash's two constant ``if`` points are decided by their
    constant cold, through a policy roll-out, and after a restore."""
    entry = registry.get(name)
    flay = Flay.from_source(
        entry.source(),
        FlayOptions(target="none", effort=effort, skip_parser=entry.skip_parser),
    )
    expected = constant_ifs(flay)
    assert len(expected) == 2

    def held(engine):
        return {pid: engine.point_verdicts[pid].executability for pid in expected}

    assert held(flay) == expected
    stream = rollout(flay)
    for update in stream[: len(stream) // 2]:
        flay.decide(update)
        assert held(flay) == expected
    restored = Flay.restore(flay.snapshot())
    assert held(restored) == expected
    assert restored.specialized_source() == flay.specialized_source()


@pytest.mark.parametrize("name", ["scion", "switch"])
def test_corpus_replay_matches_the_specification(name):
    """A fuzzed stream over six of the program's tables, on the device
    target, decided one update at a time: every decision is the
    specification's, and the constant ``if`` points never move."""
    flay = Flay(
        registry.load(name),
        FlayOptions(target="tofino", skip_parser=registry.get(name).skip_parser),
    )
    expected = constant_ifs(flay)
    tables = sorted(flay.model.tables)[:6]
    stream = EntryFuzzer(flay.model, seed=3).update_stream(
        tables=tables, count=30, modify_fraction=0.25, delete_fraction=0.15
    )
    spec = Spec(flay)
    for update in stream:
        spec.check_decision(flay.decide(update), [update])
        assert {pid: flay.point_verdicts[pid].executability for pid in expected} == expected
    spec.check_lowered()


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=5, max_value=30),
    modify=st.sampled_from([0.0, 0.2, 0.4]),
    delete=st.sampled_from([0.0, 0.2]),
)
def test_property_any_stream_keeps_the_region_decided(seed, count, modify, delete):
    flay = make_flay()
    stream = EntryFuzzer(flay.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=count, modify_fraction=modify, delete_fraction=delete
    )
    replay(flay, stream)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**12),
    chunk_sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6),
)
def test_property_any_burst_boundaries_keep_the_region_decided(seed, chunk_sizes):
    """Arbitrary burst boundaries on the device target: each burst's
    decision is the specification's and the region stays decided."""
    flay = make_flay("tofino")
    stream = EntryFuzzer(flay.model, seed=seed).update_stream(
        tables=ALL_TABLES, count=25, modify_fraction=0.2, delete_fraction=0.1
    )
    spec = Spec(flay)
    at = 0
    while at < len(stream):
        burst = stream[at : at + chunk_sizes[at % len(chunk_sizes)]]
        at += len(burst)
        spec.check_decision(flay.decide(burst), burst)
        assert_region_decided(flay)
    spec.check_lowered()
