"""A warm decision visits only the points whose pulled term moved.

``DeltaSubstitution`` records every memoised node whose result moved, and
the point sweep visits the points rooted at one of them, plus the pending
points a changed symbol taints.  That rests on one invariant: every
installed point verdict was decided from the point's current memo term,
or the point is pending.  On all seven zoo programs, after each event
that installs verdicts some other way than a plain sweep — a store
adoption, a snapshot restore, a burst, and a decision that raises inside
the point sweep and is rolled back — every point and table verdict
equals the specification's (``tests/engine/spec.py``: a bare
``QueryEngine`` deciding every point from scratch), and so do the next
decisions'.  And a tainted point whose term did not move is never
screened, pulled or decided.
"""

import pickle

import pytest

from repro.engine.context import EngineOptions
from repro.engine.engine import Engine
from repro.engine.gate import VerdictGate
from repro.engine.queries import QueryEngine
from repro.fleet.store import SharedStore
from repro.programs import registry
from repro.runtime.fuzzer import EntryFuzzer
from repro.smt.substitute import DeltaSubstitution

from tests.engine.spec import Spec

ZOO = ("scion", "switch", "middleblock", "dash", "beaucoup", "accturbo", "dta")
OPTIONS = EngineOptions(target="none")


def engine_for(name, **kwargs) -> Engine:
    return Engine(source=registry.get(name).source(), options=OPTIONS, **kwargs)


def stream(engine, seed: int, count: int) -> list:
    return EntryFuzzer(engine.model, seed=seed).update_stream(count=count)


def holds_the_specification(engine, updates) -> Spec:
    """Assert ``engine``'s verdicts are the specification's now and after
    each of ``updates``, decided one at a time."""
    spec = Spec(engine)
    spec.step()
    for update in updates:
        spec.check_decision(engine.decide(update), [update])
    return spec


@pytest.mark.parametrize("name", ZOO)
def test_a_store_adopter_holds_the_specification_verdicts(name):
    """The adopter installs the donor's initial verdicts without pulling a
    root, so no push can reach those points: they wait, pending, for the
    first sweep a changed symbol taints them in."""
    store = SharedStore()
    engine_for(name, store=store)
    adopter = engine_for(name, store=store)
    assert adopter.ctx.store_hit
    assert adopter.ctx.query_engine._pending
    holds_the_specification(adopter, stream(adopter, seed=11, count=6))


@pytest.mark.parametrize("adopted", [False, True], ids=["built", "adopted"])
@pytest.mark.parametrize("name", ZOO)
def test_a_restored_engine_holds_the_specification_verdicts(name, adopted):
    """Snapshot an engine that built its cold state, or a store adopter
    whose untainted points still hold unpulled donated verdicts: the
    restore re-derives which points are pending from the carried memo."""
    store = SharedStore() if adopted else None
    if adopted:
        engine_for(name, store=store)
    live = engine_for(name, store=store)
    for update in stream(live, seed=5, count=8):
        live.decide(update)
    restored = Engine.restore(pickle.loads(pickle.dumps(live.snapshot())))
    assert restored.point_verdicts == live.point_verdicts
    holds_the_specification(restored, stream(restored, seed=6, count=5))


@pytest.mark.parametrize("name", ZOO)
def test_a_burst_holds_the_specification_verdicts(name):
    engine = engine_for(name)
    spec = Spec(engine)
    burst = stream(engine, seed=7, count=12)
    spec.check_decision(engine.decide(burst), burst)
    for update in stream(engine, seed=8, count=4):
        spec.check_decision(engine.decide(update), [update])


class SweepFailure(RuntimeError):
    pass


@pytest.mark.parametrize("name", ZOO)
def test_a_sweep_that_raises_is_rolled_back_to_the_specification(name, monkeypatch):
    """``point_verdict`` raises for the second point one decision visits:
    the first point's verdict is decided but not installed, and the moved
    nodes stay for the rollback's sweep."""
    engine = engine_for(name)
    spec = Spec(engine)
    armed = {"calls": 0, "raised": False}
    point_verdict = QueryEngine.point_verdict

    def fail_once(self, point, substitution, memo=None):
        if self is engine.ctx.query_engine and armed["calls"] is not None:
            armed["calls"] += 1
            if armed["calls"] == 2:
                armed["calls"] = None
                armed["raised"] = True
                raise SweepFailure(point.pid)
        return point_verdict(self, point, substitution, memo)

    monkeypatch.setattr(QueryEngine, "point_verdict", fail_once)
    for update in stream(engine, seed=9, count=40):
        if armed["raised"]:
            spec.check_decision(engine.decide(update), [update])
            continue
        armed["calls"] = 0
        try:
            decision = engine.decide(update)
        except SweepFailure:
            assert engine.ctx.warm is None
            assert not engine.ctx.substitution.moved
            spec.step()  # the rolled-back control plane's verdicts
            # The stream goes on from the control plane it assumed.
            spec.check_decision(engine.decide(update), [update])
        else:
            spec.check_decision(decision, [update])
    assert armed["raised"]


@pytest.mark.parametrize("name", ZOO)
def test_a_tainted_point_whose_term_did_not_move_is_not_visited(name, monkeypatch):
    engine = engine_for(name)
    points, substitution = engine.model.points, engine.substitution
    recording = [False]
    screened: list = []
    pulled: list = []
    decided: list = []
    screen, apply, point_verdict = (
        VerdictGate.screen,
        DeltaSubstitution.apply,
        QueryEngine.point_verdict,
    )

    def spy_screen(self, point):
        if recording[0]:
            screened.append(point.pid)
        return screen(self, point)

    def spy_apply(self, term):
        if recording[0]:
            pulled.append(id(term))
        return apply(self, term)

    def spy_point_verdict(self, point, substitution, memo=None):
        if recording[0] and self is engine.ctx.query_engine:
            decided.append(point.pid)
        return point_verdict(self, point, substitution, memo)

    monkeypatch.setattr(VerdictGate, "screen", spy_screen)
    monkeypatch.setattr(DeltaSubstitution, "apply", spy_apply)
    monkeypatch.setattr(QueryEngine, "point_verdict", spy_point_verdict)
    still = visited = 0
    for update in stream(engine, seed=12, count=30):
        table = engine.model.table(update.table)
        tainted = engine.model.points_for_control_vars(table.control_var_names())
        before = {pid: substitution.apply(points[pid].expr) for pid in tainted}
        del screened[:], pulled[:], decided[:]
        recording[0] = True
        engine.decide(update)
        recording[0] = False
        unmoved = {
            pid
            for pid in tainted - engine.ctx.query_engine._pending
            if substitution.apply(points[pid].expr) is before[pid]
        }
        assert not unmoved & set(screened)
        assert not unmoved & set(decided)
        assert not {id(points[pid].expr) for pid in unmoved} & set(pulled)
        still += len(unmoved)
        visited += len(decided)
    assert still and visited  # both kinds of point occurred
