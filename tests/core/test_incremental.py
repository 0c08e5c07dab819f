"""Tests for the control-plane-triggered incremental pipeline."""

import pytest

from repro.core import Flay, FlayOptions
from repro.engine import Engine, EngineOptions
from repro.p4.parser import parse_program
from repro.runtime.entries import ExactMatch, TableEntry, TernaryMatch
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import DELETE, INSERT, Update

SOURCE = """
header h_t { bit<8> f; }
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
    apply { t1.apply(); t2.apply(); }
}
Pipeline(P(), C()) main;
"""


def entry(value, mask, action="set", args=(1,), priority=1):
    return TableEntry((TernaryMatch(value, mask),), action, args, priority)


def _engine(program):
    return Engine(program, EngineOptions(target="none"))


@pytest.fixture()
def runtime():
    return _engine(parse_program(SOURCE))


class TestDecisions:
    def test_first_entry_triggers_recompile(self, runtime):
        decision = runtime.process_update(Update("t1", INSERT, entry(1, 0xFF)))
        assert decision.recompiled and not decision.forwarded
        assert decision.affected_points > 0

    def test_semantics_preserving_entry_forwarded(self, runtime):
        runtime.process_update(Update("t1", INSERT, entry(1, 0xFF, args=(1,))))
        runtime.process_update(Update("t1", INSERT, entry(2, 0xFF, args=(2,), priority=2)))
        # A third exact-style entry changes no verdict: forward.
        decision = runtime.process_update(
            Update("t1", INSERT, entry(3, 0xFF, args=(3,), priority=3))
        )
        assert decision.forwarded and not decision.recompiled

    def test_delete_back_to_empty_recompiles(self, runtime):
        e = entry(1, 0xFF)
        runtime.process_update(Update("t1", INSERT, e))
        decision = runtime.process_update(Update("t1", DELETE, e))
        assert decision.recompiled

    def test_update_to_other_table_does_not_check_unrelated_points(self, runtime):
        d1 = runtime.process_update(Update("t1", INSERT, entry(1, 0xFF)))
        exact = TableEntry((ExactMatch(1),), "set_n", (5,))
        d2 = runtime.process_update(Update("t2", INSERT, exact))
        # t2's taint set must not include points before t2's apply.
        assert d2.affected_points <= d1.affected_points + 3

    def test_forwarded_and_recompiled_counters(self, runtime):
        runtime.process_update(Update("t1", INSERT, entry(1, 0xFF)))
        runtime.process_update(Update("t1", INSERT, entry(2, 0xFF, priority=2)))
        runtime.process_update(Update("t1", INSERT, entry(3, 0xFF, priority=3)))
        assert runtime.recompiled_count + runtime.forwarded_count == 3

    def test_decision_describe(self, runtime):
        decision = runtime.process_update(Update("t1", INSERT, entry(1, 0xFF)))
        assert "RECOMPILE" in decision.describe()


class TestBatch:
    def test_batch_single_decision(self, runtime):
        fuzzer = EntryFuzzer(runtime.model, seed=1)
        updates = fuzzer.insert_burst("t1", 50, action="set")
        decision = runtime.process_batch(updates)
        assert decision.update_count == 50
        # At most one respecialization for the whole burst.
        assert runtime.recompilations <= 2

    def test_batch_of_noops_forwarded(self, runtime):
        runtime.process_update(Update("t1", INSERT, entry(1, 0xFF, args=(1,))))
        runtime.process_update(Update("t1", INSERT, entry(2, 0xFF, args=(2,), priority=2)))
        before = runtime.recompilations
        updates = [
            Update("t1", INSERT, entry(10 + i, 0xFF, args=(i,), priority=10 + i))
            for i in range(20)
        ]
        decision = runtime.process_batch(updates)
        assert not decision.recompiled
        assert runtime.recompilations == before

    def test_batch_describe(self, runtime):
        decision = runtime.process_batch([Update("t1", INSERT, entry(1, 0xFF))])
        assert "batch of 1" in decision.describe()

    def test_process_batch_is_counted(self, runtime):
        """A burst through ``process_batch`` is one decision, like one
        through ``apply_batch``: the counts and the mean include it."""
        first = runtime.process_batch([Update("t1", INSERT, entry(1, 0xFF))])
        assert first.recompiled and not first.forwarded
        assert runtime.ctx.decisions == 1
        assert (runtime.forwarded_count, runtime.recompiled_count) == (0, 1)
        second = runtime.process_batch(
            [Update("t1", INSERT, entry(2, 0xFF, priority=2))]
        )
        assert second.forwarded and not second.recompiled
        assert runtime.ctx.decisions == 2
        assert (runtime.forwarded_count, runtime.recompiled_count) == (1, 1)
        assert runtime.mean_update_ms() == pytest.approx(
            (first.elapsed_ms + second.elapsed_ms) / 2
        )


class TestIncrementalMatchesScratch:
    def test_incremental_equals_from_scratch(self):
        """After any update sequence, the incrementally maintained verdicts
        equal the verdicts of a fresh engine over the same control plane —
        the core correctness property of the incremental pipeline."""
        program = parse_program(SOURCE)
        incremental = _engine(program)
        updates = [
            Update("t1", INSERT, entry(1, 0xFF, args=(4,))),
            Update("t1", INSERT, entry(2, 0x0F, args=(5,), priority=2)),
            Update("t2", INSERT, TableEntry((ExactMatch(4),), "set_n", (6,))),
            Update("t1", DELETE, entry(1, 0xFF, args=(4,))),
        ]
        for update in updates:
            incremental.process_update(update)

        scratch = _engine(parse_program(SOURCE))
        for update in updates:
            scratch.state.apply_update(update)
        # Recompute everything from scratch.
        scratch._encode_initial()
        scratch._evaluate_all_points()

        for pid, verdict in incremental.point_verdicts.items():
            assert verdict.same_specialization(scratch.point_verdicts[pid]), pid
        for name, verdict in incremental.table_verdicts.items():
            assert verdict.same_specialization(scratch.table_verdicts[name]), name


class TestFlayFacade:
    def test_flay_is_the_engine(self):
        flay = Flay.from_source(SOURCE, FlayOptions(target="none"))
        assert isinstance(flay, Engine)
        assert flay.runtime is flay
        flay.process_update(Update("t1", INSERT, entry(1, 0xFF)))
        restored = Flay.restore(flay.snapshot())
        assert type(restored) is Flay
        assert restored.specialized_source() == flay.specialized_source()

    def test_from_source_and_summary(self):
        flay = Flay.from_source(SOURCE, FlayOptions(target="none"))
        flay.process_update(Update("t1", INSERT, entry(1, 0xFF)))
        summary = flay.summary()
        assert "updates processed: 1" in summary
        assert flay.mean_update_ms() > 0

    def test_device_compiler_invoked_on_recompile(self):
        flay = Flay.from_source(SOURCE, FlayOptions(target="tofino"))
        cold = flay.compile_report
        decision = flay.process_update(Update("t1", INSERT, entry(1, 0xFF)))
        assert decision.recompiled
        assert cold is not None and decision.compile_report is not None
        assert flay.compile_report is decision.compile_report is not cold

    def test_device_compiler_not_invoked_on_forward(self):
        flay = Flay.from_source(SOURCE, FlayOptions(target="tofino"))
        flay.process_update(Update("t1", INSERT, entry(1, 0xFF)))
        flay.process_update(Update("t1", INSERT, entry(2, 0xFF, priority=2)))
        before = flay.compile_report
        decision = flay.process_update(Update("t1", INSERT, entry(3, 0xFF, priority=3)))
        assert decision.forwarded
        assert decision.compile_report is None
        assert flay.compile_report is before

    def test_timings_recorded(self):
        flay = Flay.from_source(SOURCE, FlayOptions(target="none"))
        assert flay.timings.data_plane_analysis_seconds > 0
        assert flay.timings.parse_seconds > 0
