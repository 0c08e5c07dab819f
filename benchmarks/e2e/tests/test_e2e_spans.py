"""Self-time arithmetic and wrapper hygiene of ``harness.tracing``."""

import threading

import pytest

from harness import tracing
from harness.layers import span_metrics
from harness.tracing import DECISION_SPAN, Span, Tracer, WrapPointMissing, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(DECISION_SPAN, 0.0, 10.0, None, 0, thread=0),
        Span("engine.point_verdict", 1.0, 7.0, 0, 0, thread=0),
        Span("smt.substitute", 2.0, 4.0, 1, 0, thread=0),
        Span("smt.solver", 4.5, 6.5, 1, 0, thread=0),
        Span("targets.lower", 8.0, 9.0, 0, 0, thread=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 2.0, 1.0])
    # Every second of the root is accounted for exactly once.
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_cross_thread_spans_keep_their_own_time():
    # A worker-thread span overlaps the main thread's schedule span in
    # wall time but is not its child: neither subtracts from the other.
    spans = [
        Span(DECISION_SPAN, 0.0, 10.0, None, 3, thread=0),
        Span("engine.batch_schedule", 1.0, 9.0, 0, 3, thread=0),
        Span("engine.batch_group", 2.0, 8.0, None, 3, thread=1),
        Span("engine.point_verdict", 3.0, 5.0, 2, 3, thread=1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 8.0, 4.0, 2.0])
    values = span_metrics(spans)
    assert values["engine.batch_schedule_ms"] == pytest.approx(8000.0)
    assert values["engine.batch_group_ms"] == pytest.approx(4000.0)
    assert values["engine.point_verdict_calls"] == 1
    assert values["core.unattributed_share"] == pytest.approx(0.2)


def test_a_parent_on_another_thread_is_rejected():
    spans = [
        Span("a", 0.0, 2.0, None, 0, thread=0),
        Span("b", 0.5, 1.0, 0, 0, thread=1),
    ]
    with pytest.raises(ValueError):
        self_times(spans)


def test_setup_spans_only_feed_the_cold_metrics():
    spans = [
        Span("analysis.symexec", 0.0, 2.0, None, None, thread=0),
        Span("engine.point_verdict", 0.5, 1.5, 0, None, thread=0),
    ]
    values = span_metrics(spans)
    assert values["analysis.symexec_ms"] == pytest.approx(2000.0)  # inclusive
    assert values["engine.point_verdict_ms"] == 0.0
    assert values["engine.point_verdict_calls"] == 0


def test_tracer_records_nesting_and_threads():
    tracer = Tracer()

    def leaf():
        return 7

    traced_leaf = tracer.root(leaf, "smt.solver")

    def outer():
        return traced_leaf() + traced_leaf()

    traced_outer = tracer.root(outer)
    tracer.decision_id = 5
    assert traced_outer() == 14
    worker = threading.Thread(target=traced_leaf)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    spans = tracer.spans()
    assert [s.name for s in spans] == [DECISION_SPAN, "smt.solver", "smt.solver", "smt.solver"]
    assert [s.parent for s in spans] == [None, 0, 0, None]
    assert [s.thread for s in spans] == [0, 0, 0, 1]
    assert {s.decision_id for s in spans} == {5}


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.root(boom, "smt.solver")()
    (span,) = tracer.spans()
    assert span.end >= span.start


def test_wrappers_are_fully_removed():
    resolved = [tracing._resolve(module, path) for module, path, _ in tracing.WRAP_POINTS]
    originals = [vars(owner)[name] for owner, name in resolved]
    with Tracer():
        wrapped = [vars(owner)[name] for owner, name in resolved]
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
    assert all(vars(owner)[name] is o for (owner, name), o in zip(resolved, originals))


def test_wrappers_are_removed_after_a_traced_engine_run():
    from repro.core import Flay, FlayOptions
    from repro.programs import registry
    from repro.smt.solver import Solver

    original = vars(Solver)["check_sat"]
    with Tracer() as tracer:
        Flay.from_source(registry.get("fig3").source(), FlayOptions(target="none"))
    assert vars(Solver)["check_sat"] is original
    assert {"p4.frontend", "analysis.symexec"} <= {s.name for s in tracer.spans()}


def test_a_renamed_wrap_point_fails_loudly(monkeypatch):
    monkeypatch.setattr(
        tracing,
        "WRAP_POINTS",
        tracing.WRAP_POINTS + (("repro.smt.solver", "Solver.check_satisfiable", "smt.solver"),),
    )
    tracer = Tracer()
    with pytest.raises(WrapPointMissing):
        tracer.install()
    tracer.remove()
    # Nothing was wrapped before the missing point was noticed.
    from repro.smt.solver import Solver

    assert not hasattr(vars(Solver)["check_sat"], "__wrapped__")
