"""The decision record is the engine's one observation surface.

Every ``Engine.decide`` call returns one :class:`Decision` — what it
decided, what it compiled and what it sent to the device — and the engine
keeps nothing per decision beyond running totals.  These tests read the
cold pipeline from its declared pass sequence and timings, each warm
outcome from its record, and pin that a long insert/delete churn leaves
no trace: after the first cycle no container the engine holds grows, and
the records list exactly the writes the target sent.
"""

import pytest

from repro.core import Flay, FlayOptions
from repro.engine import Engine, EngineOptions
from repro.engine.context import warm_state
from repro.engine.passes import PassManager
from repro.engine.pipeline import restore_passes
from repro.p4.parser import parse_program
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import DELETE, INSERT, Update

from tests.engine.spec import record_sends
from tests.engine.test_warm_inventory import _grown, _unregistered

SOURCE = """
header h_t { bit<8> f; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(inout headers_t hdr, inout meta_t meta) {
    state start { pkt_extract(hdr.h); transition accept; }
}
control C(inout headers_t hdr, inout meta_t meta) {
    action set(bit<8> v) { meta.m = v; }
    action noop() { }
    table t {
        key = { hdr.h.f: ternary; }
        actions = { set; noop; }
        default_action = noop();
    }
    apply { t.apply(); }
}
Pipeline(P(), C()) main;
"""


def _engine(target="none"):
    return Engine(parse_program(SOURCE), EngineOptions(target=target))


def test_cold_pipeline_runs_the_declared_passes_in_order():
    engine = _engine()
    assert engine._cold.describe() == (
        "parse → typecheck → analyze → encode → specialize → lower"
    )
    assert all(p.stage == "cold" for p in engine._cold.passes)
    assert PassManager(restore_passes()).describe() == (
        "parse → typecheck → analyze → restore → specialize → lower"
    )
    ctx = engine.ctx
    assert ctx.program is not None and ctx.env is not None  # parse, typecheck
    assert ctx.model is not None and ctx.point_verdicts  # analyze, encode
    assert ctx.specialized_program is not None  # specialize
    timings = engine.timings
    assert timings.data_plane_analysis_seconds > 0
    assert timings.initial_specialization_seconds >= 0


def test_forwarded_update_returns_its_record_and_cache_activity():
    engine = _engine()
    fuzzer = EntryFuzzer(engine.model, seed=3)
    before = {c.name: c.lookups for c in engine.cache_stats().counters}
    decision = engine.process_update(
        Update("t", INSERT, fuzzer.entry("t", action="noop"))
    )
    assert decision.forwarded != decision.recompiled
    assert decision.update_count == 1 and not decision.burst
    # Warm passes run under the warm stage; the last one re-verdicts, then
    # either recompiles or lowers the forwarded update.
    assert engine._warm.describe() == "apply-updates → decide"
    assert all(p.stage == "warm" for p in engine._warm.passes)
    # The warm run consulted at least one cross-update cache.
    after = {c.name: c.lookups for c in engine.cache_stats().counters}
    assert any(after[name] > before[name] for name in before)


def test_batch_record_reports_update_count():
    engine = _engine()
    fuzzer = EntryFuzzer(engine.model, seed=4)
    decision = engine.process_batch(fuzzer.insert_burst("t", 10, action="set"))
    assert decision.update_count == 10
    assert decision.burst
    assert engine.ctx.decisions == 1


def test_cold_compile_report_and_forward_lowering():
    engine = _engine(target="tofino")
    cold = engine.compile_report
    assert cold is not None and cold.delta is None
    fuzzer = EntryFuzzer(engine.model, seed=5)
    update = Update("t", INSERT, fuzzer.entry("t", action="noop"))
    decision = engine.process_update(update)
    if decision.forwarded:
        (lowered,) = decision.lowered
        assert (lowered.target, lowered.update) == ("tofino", update)
        assert decision.compile_report is None and engine.compile_report is cold
    else:
        assert decision.lowered == ()
        assert engine.compile_report is decision.compile_report is not cold


def test_decisions_add_only_to_the_running_totals():
    engine = _engine()
    fuzzer = EntryFuzzer(engine.model, seed=6)
    decisions = [engine.process_update(Update("t", INSERT, fuzzer.entry("t")))]
    decisions.append(engine.process_batch(fuzzer.insert_burst("t", 3)))
    assert engine.ctx.decisions == 2
    assert engine.forwarded_count == sum(d.forwarded for d in decisions)
    assert engine.recompiled_count == sum(d.recompiled for d in decisions)
    assert engine.mean_update_ms() == pytest.approx(
        sum(d.elapsed_ms for d in decisions) / 2
    )


def test_a_failed_decision_adds_nothing_to_the_totals():
    """A device compile that raises ends the decision: it is counted
    neither as a decision nor as a recompilation."""
    engine = _engine(target="tofino")
    fuzzer = EntryFuzzer(engine.model, seed=8)
    target = engine.ctx.target
    compile_program = target.compile

    def fail(program):
        raise RuntimeError("the device compiler is down")

    target.compile = fail
    with pytest.raises(RuntimeError):
        engine.process_update(Update("t", INSERT, fuzzer.entry("t", action="set")))
    assert (engine.ctx.decisions, engine.recompilations) == (0, 0)
    assert (engine.forwarded_count, engine.mean_update_ms()) == (0, 0.0)
    target.compile = compile_program
    decision = engine.process_update(Update("t", INSERT, fuzzer.entry("t")))
    assert engine.ctx.decisions == 1
    assert engine.recompiled_count == int(decision.recompiled)


def test_facade_summary_reads_the_totals():
    flay = Flay(parse_program(SOURCE), FlayOptions(target="none"))
    assert "updates processed: 0 (forwarded 0, recompiled 0)" in flay.summary()
    decision = flay.decide(Update("t", INSERT, EntryFuzzer(flay.model, seed=7).entry("t")))
    forwarded, recompiled = int(decision.forwarded), int(decision.recompiled)
    assert (
        f"updates processed: 1 (forwarded {forwarded}, recompiled {recompiled})"
        in flay.summary()
    )


# ---------------------------------------------------------------------------
# A decision leaves no trace in the engine
# ---------------------------------------------------------------------------

CYCLES = 200

#: Per program, an entry whose insert/delete cycle forwards and one whose
#: cycle recompiles twice (the program gains and loses an action).
#: ``None`` picks the program's first table and any action.
CHURN = {
    "scion": {
        "forwards": (None, None),
        "recompiles": ("ScionIngress.ipv4_forward", "deliver_local_v4"),
    },
    "switch": {
        "forwards": (None, None),
        "recompiles": ("SwitchIngress.ipv4_acl", "acl_deny_action"),
    },
}


def _row_sizes(engine) -> dict:
    return {row.path: len(container) for row, container in warm_state(engine.ctx)}


@pytest.mark.parametrize("mode", ["updates", "burst"])
@pytest.mark.parametrize("churn", ["forwards", "recompiles"])
@pytest.mark.parametrize("name", sorted(CHURN))
def test_a_decision_leaves_no_trace(name, churn, mode):
    engine = Engine(
        source=registry.get(name).source(), options=EngineOptions(target="tofino")
    )
    table, action = CHURN[name][churn]
    table = table or sorted(engine.model.tables)[0]
    entry = EntryFuzzer(engine.model, seed=1).entry(table, action=action)
    cycle = [Update(table, INSERT, entry), Update(table, DELETE, entry)]
    items = cycle if mode == "updates" else [cycle]
    sent = record_sends(engine)
    decisions = [engine.decide(item) for item in items]
    assert all(d.recompiled for d in decisions) == (
        churn == "recompiles" and mode == "updates"
    )
    rows, reachable = _row_sizes(engine), _unregistered(engine.ctx)
    for _ in range(CYCLES - 1):
        decisions.extend(engine.decide(item) for item in items)
    # Every warm row keeps its size, and no other container the context
    # reaches has grown.
    assert _row_sizes(engine) == rows
    assert _grown(reachable, _unregistered(engine.ctx)) == []
    assert engine.ctx.decisions == len(decisions) == CYCLES * len(items)
    # The records list exactly the writes the target sent, in order: every
    # submitted update of every forward, and nothing of a recompile.
    assert [write for d in decisions for write in d.lowered] == sent
    forwarded = [
        update
        for decision, item in zip(decisions, items * CYCLES)
        if decision.forwarded
        for update in (item if mode == "burst" else [item])
    ]
    assert [write.update for write in sent] == forwarded
