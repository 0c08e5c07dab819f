"""The engine's event stream: pass timings, cache activity, update outcomes."""

from repro.core import Flay, FlayOptions
from repro.engine import (
    CacheActivity,
    Engine,
    EngineOptions,
    EventBus,
    PassFinished,
    PassStarted,
    TargetCompiled,
    UpdateLowered,
    UpdateProcessed,
)
from repro.p4.parser import parse_program
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import INSERT, Update

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


def _engine(bus=None, target="none"):
    return Engine(
        parse_program(SOURCE), EngineOptions(target=target), bus=bus
    )


def test_cold_pipeline_emits_pass_events_in_order():
    bus = EventBus()
    log = bus.attach_log()
    _engine(bus=bus)
    started = [e.pass_name for e in log.of_type(PassStarted)]
    finished = [e.pass_name for e in log.of_type(PassFinished)]
    expected = [
        "parse", "typecheck", "prune", "analyze", "encode", "specialize", "lower",
    ]
    assert started == expected
    assert finished == expected
    assert all(e.stage == "cold" for e in log.of_type(PassStarted))
    assert all(e.elapsed_ms >= 0 for e in log.of_type(PassFinished))


def test_forwarded_update_emits_outcome_and_cache_activity():
    bus = EventBus()
    log = bus.attach_log()
    engine = _engine(bus=bus)
    fuzzer = EntryFuzzer(engine.model, seed=3)
    log.clear()
    decision = engine.process_update(
        Update("t", INSERT, fuzzer.entry("t", action="noop"))
    )
    outcomes = log.of_type(UpdateProcessed)
    assert len(outcomes) == 1
    assert outcomes[0].kind == "update"
    assert outcomes[0].forwarded == decision.forwarded
    assert outcomes[0].recompiled == decision.recompiled
    assert outcomes[0].update_count == 1
    # Warm passes run under the warm stage; the last one either recompiles
    # or lowers the forwarded update.
    warm_passes = [e for e in log.of_type(PassStarted) if e.stage == "warm"]
    assert [e.pass_name for e in warm_passes] == [
        "apply-updates",
        "reverdict-points",
        "reverdict-tables",
        "respecialize",
    ]
    # The warm run consulted at least one cross-update cache.
    assert log.of_type(CacheActivity)


def test_batch_outcome_reports_update_count():
    bus = EventBus()
    log = bus.attach_log()
    engine = _engine(bus=bus)
    fuzzer = EntryFuzzer(engine.model, seed=4)
    log.clear()
    engine.process_batch(fuzzer.insert_burst("t", 10, action="set"))
    outcomes = log.of_type(UpdateProcessed)
    assert len(outcomes) == 1
    assert outcomes[0].kind == "batch"
    assert outcomes[0].update_count == 10


def test_target_events_cold_compile_and_forward_lowering():
    bus = EventBus()
    log = bus.attach_log()
    engine = _engine(bus=bus, target="tofino")
    assert log.count(TargetCompiled) == 1
    assert log.of_type(TargetCompiled)[0].target == "tofino"
    fuzzer = EntryFuzzer(engine.model, seed=5)
    decision = engine.process_update(
        Update("t", INSERT, fuzzer.entry("t", action="noop"))
    )
    if decision.forwarded:
        lowered = log.of_type(UpdateLowered)
        assert lowered and lowered[0].target == "tofino"
        assert engine.lowered_updates


def test_silent_bus_stays_inactive():
    engine = _engine()
    assert not engine.events.active
    fuzzer = EntryFuzzer(engine.model, seed=6)
    engine.process_update(Update("t", INSERT, fuzzer.entry("t")))
    # Subscribing later starts the stream without reconstructing anything.
    log = engine.events.attach_log()
    assert engine.events.active
    engine.process_update(Update("t", INSERT, fuzzer.entry("t")))
    assert log.count(UpdateProcessed) == 1


def test_facade_accepts_bus_and_log_summarizes():
    bus = EventBus()
    log = bus.attach_log()
    flay = Flay(parse_program(SOURCE), FlayOptions(target="none"), bus=bus)
    assert flay.events is bus
    assert len(log) > 0
    summary = log.summary()
    assert "PassStarted" in summary and "PassFinished" in summary
