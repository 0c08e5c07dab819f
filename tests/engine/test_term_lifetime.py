"""A term lives only as long as something holds it.

:meth:`~repro.smt.terms.TermFactory.collect` frees every interned term
nothing else references, after every registered owner (each
``QueryEngine`` and ``Solver``) has forgotten its ``generation`` rows —
the ``id``-keyed memos that would alias a freed term's address, and the
term-keyed ones that would keep dead terms alive.  The engine collects
only between decisions.  These tests pin:

* (a) decisions and verdicts with a collection forced after every
  decision, sequential and batched, on all seven zoo programs — against
  the specification of ``tests/engine/spec.py``, whose own
  ``QueryEngine`` lives outside any engine across the collections;
* (b) a dropped engine's terms leave the table, and the engine that
  stays decides exactly what it decides alone;
* (c) no collection inside a burst's conflict groups, and a due one at
  the next decision;
* (d) no memo of a bare ``QueryEngine`` or ``Solver`` answers for a
  freed term whose address a new term took;
* (e) over 20 000 precise ACL updates the intern table and every
  ``generation`` row stay within a constant factor of their size after
  the preload.
"""

import gc
import random
import threading
import weakref

import pytest

from repro.core import Flay, FlayOptions
from repro.engine import batch as batch_module
from repro.engine.context import GENERATION, warm_state
from repro.engine.queries import MAYBE, NEVER, QueryEngine
from repro.programs import registry
from repro.runtime.entries import TableEntry, TernaryMatch
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import DELETE, INSERT, Update
from repro.smt import terms as T
from repro.smt.simplify import simplify
from repro.smt.solver import Solver

from tests.engine.spec import Spec

ZOO = ("scion", "switch", "middleblock", "dash", "beaucoup", "accturbo", "dta")

FACTORY = T.DEFAULT_FACTORY


def flip_stream(model, seed, tables=12):
    """The first entry per action of ``tables`` tables, then their deletes,
    each half shuffled: nearly every update moves a verdict."""
    fuzzer = EntryFuzzer(model, seed=seed)
    shape = random.Random(seed)
    names = sorted(model.tables)
    shape.shuffle(names)
    inserts = [
        update
        for table in sorted(names[:tables])
        for update in fuzzer.representative_updates(table, per_action=1)
    ]
    shape.shuffle(inserts)
    deletes = [Update(update.table, DELETE, update.entry) for update in inserts]
    shape.shuffle(deletes)
    return inserts + deletes


def force_due(monkeypatch):
    """Make the next ``collect_if_due`` collect."""
    monkeypatch.setattr(FACTORY, "_collect_at", 0)


# ---------------------------------------------------------------------------
# (a) Forced-collection differential
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ZOO)
def test_sequential_decisions_survive_a_collection_after_each(name):
    engine = Flay(registry.load(name), FlayOptions(target="tofino"))
    spec = Spec(engine)
    freed = 0
    for update in flip_stream(engine.model, seed=3):
        decision = engine.process_update(update)
        freed += FACTORY.collect()
        spec.check_decision(decision, [update])
    assert freed > 0
    assert engine.specialized_source() == spec.specialized_source()
    spec.check_lowered()


@pytest.mark.parametrize("name", ZOO)
def test_batched_decisions_survive_a_collection_after_each(name):
    engine = Flay(registry.load(name), FlayOptions(target="tofino"))
    spec = Spec(engine)
    stream = flip_stream(engine.model, seed=4)
    freed = 0
    for start in range(0, len(stream), 5):
        burst = stream[start:start + 5]
        report = engine.decide(burst)
        freed += FACTORY.collect()
        spec.check_decision(report, burst)
    assert freed > 0
    assert engine.specialized_source() == spec.specialized_source()
    spec.check_lowered()


# ---------------------------------------------------------------------------
# (b) Two engines, one dropped mid-stream
# ---------------------------------------------------------------------------


def _outcome(decision):
    """What a decision decided, and the writes it sent to the device."""
    lowered = [(l.table, l.update) for l in decision.lowered]
    return decision.recompiled, sorted(decision.changed), lowered


def test_a_dropped_engine_leaves_the_table_and_the_other_decides_alone():
    program = registry.load("middleblock")
    options = FlayOptions(target="bmv2")
    dropped = Flay(program, options)
    kept = Flay(program, options)
    doomed = EntryFuzzer(dropped.model, seed=8).update_stream(count=30)
    stream = EntryFuzzer(kept.model, seed=9).update_stream(count=60)
    decided = []
    for mine, theirs in zip(stream, doomed):
        decided.append(_outcome(kept.process_update(mine)))
        dropped.process_update(theirs)
    held = {id(term) for term in kept.mapping.values()}
    chains = [
        weakref.ref(term)
        for term in dropped.mapping.values()
        if term.op == T.OP_ITE and id(term) not in held
    ]
    assert chains, "the dropped engine should hold entry chains of its own"
    del dropped
    gc.collect()
    size = len(FACTORY._table)
    FACTORY.collect()
    assert all(ref() is None for ref in chains)
    assert len(FACTORY._table) <= size - len(chains)
    for update in stream[len(doomed):]:
        decided.append(_outcome(kept.process_update(update)))

    alone = Flay(program, options)
    assert [_outcome(alone.process_update(update)) for update in stream] == decided
    assert kept.specialized_source() == alone.specialized_source()


# ---------------------------------------------------------------------------
# (c) Batches
# ---------------------------------------------------------------------------


def test_no_collection_inside_a_batch_and_a_due_one_at_the_next_decision(
    monkeypatch,
):
    """Every group makes a collection due as it starts; none runs until
    the next decision."""
    engine = Flay(registry.load("switch"), FlayOptions(target="none"))
    collections = []  # the thread of each collection
    groups = []  # (generation at the start, at the end) of each group
    collect = T.TermFactory.collect
    run_group = batch_module.run_group

    def spy_collect(factory):
        collections.append(threading.current_thread())
        return collect(factory)

    def spy_run_group(ctx, group, piece):
        start = FACTORY.generation
        FACTORY._collect_at = 0
        try:
            return run_group(ctx, group, piece)
        finally:
            groups.append((start, FACTORY.generation))

    monkeypatch.setattr(T.TermFactory, "collect", spy_collect)
    monkeypatch.setattr(batch_module, "run_group", spy_run_group)
    stream = EntryFuzzer(engine.model, seed=12).update_stream(count=40)
    for start in range(0, 40, 10):
        force_due(monkeypatch)
        before, ran = FACTORY.generation, len(groups)
        engine.decide(stream[start:start + 9])
        # The due collection ran once, before the first group ran ...
        assert FACTORY.generation == before + 1
        assert all(
            (first, last) == (before + 1, before + 1) for first, last in groups[ran:]
        )
        # ... and the one the groups made due runs at the next decision.
        engine.process_update(stream[start + 9])
        assert FACTORY.generation == before + 2
    assert len(groups) > 4, "the bursts should split into several groups"
    assert all(thread is threading.main_thread() for thread in collections)


def test_a_live_worker_slice_forgets_only_its_overlays():
    """A collection while a slice is still referenced empties the slice's
    overlays; the shared memos it layers over and the point verdicts the
    engine decided are the shared engine's to forget, or to keep."""
    engine = Flay(registry.load("switch"), FlayOptions(target="none"))
    for update in EntryFuzzer(engine.model, seed=13).update_stream(count=10):
        engine.process_update(update)
    ctx = engine.ctx
    piece = batch_module.WorkerSlice(ctx)
    qe = piece.query_engine
    qe._simplify_memo[-1] = T.TRUE
    qe._exec_cache[T.TRUE] = MAYBE
    qe.solver._results[T.FALSE] = None
    decided = dict(ctx.query_engine._decided)
    FACTORY.collect()
    assert not qe._simplify_memo.delta and not qe._exec_cache.delta
    assert not qe.solver._results.delta
    assert ctx.query_engine._decided == decided


# ---------------------------------------------------------------------------
# (d) Aliasing
# ---------------------------------------------------------------------------


def test_no_memo_answers_for_a_freed_term():
    """Each round builds a guard ``lo < x < hi`` of one shape, decides it
    through a bare query engine and solver that live across every
    collection, and drops it before the next collection.  Satisfiable and
    unsatisfiable rounds alternate at random, so a memo that kept an entry
    for a freed guard's address would hand a later guard the wrong
    answer."""
    qe = QueryEngine(Flay(registry.load("fig3"), FlayOptions(target="none")).model)
    solver = Solver()
    rng = random.Random(17)
    seen: set = set()
    reused = 0
    for _ in range(120):
        lo, hi = rng.randrange(200), rng.randrange(200)
        x = T.data_var("alias_probe", 8)
        guard = T.bool_and(T.ult(T.bv_const(lo, 8), x), T.ult(x, T.bv_const(hi, 8)))
        satisfiable = lo + 1 < hi
        assert solver.check_sat(guard).satisfiable == satisfiable
        assert qe._executability(guard).verdict == (MAYBE if satisfiable else NEVER)
        assert simplify(guard, qe.simplify_memo) is simplify(guard)
        reused += id(guard) in seen
        seen.add(id(guard))
        del x, guard
        FACTORY.collect()
    assert reused > 0, "no address was reused: the test exercised no aliasing"


# ---------------------------------------------------------------------------
# (e) Soak
# ---------------------------------------------------------------------------

ACL = "SwitchIngress.ipv4_acl"
ACL_LOW, ACL_HIGH = 16, 32
PRELOAD, SOAK = 1_000, 20_000
#: Between two collections the table grows to COLLECT_GROWTH times what
#: survived; the factor leaves room for that and for the memos refilling.
BOUND = 2 * T.COLLECT_GROWTH


class AclChurn:
    """Inserts, deletes and modifies on one ternary ACL held at
    ``ACL_LOW``-``ACL_HIGH`` live entries.  Every key is an exact value or
    a wildcard, as in real ACLs."""

    def __init__(self, model, seed):
        self.info = model.table(ACL)
        self.rng = random.Random(seed)
        self.live: dict = {}

    def _entry(self):
        rng = self.rng
        matches = []
        for key in self.info.keys:
            mask = (1 << key.width) - 1 if rng.random() < 0.5 else 0
            matches.append(TernaryMatch(rng.randrange(1 << key.width) & mask, mask))
        action = rng.choice(self.info.action_order)
        args = tuple(
            rng.randrange(1 << p.width) for p in self.info.action_params.get(action, [])
        )
        return TableEntry(tuple(matches), action, args, rng.randrange(1, 1 << 16))

    def step(self) -> Update:
        size, roll = len(self.live), self.rng.random()
        if size >= ACL_HIGH or (size > ACL_LOW and roll < 0.5):
            key = list(self.live)[self.rng.randrange(size)]
            return Update(self.info.name, DELETE, self.live.pop(key))
        entry = self._entry()
        while entry.match_key() in self.live:
            entry = self._entry()
        self.live[entry.match_key()] = entry
        return Update(self.info.name, INSERT, entry)


def _sizes(engine) -> dict:
    sizes = {"term_factory._table": len(FACTORY._table)}
    for row, container in warm_state(engine.ctx):
        if row.lifetime == GENERATION:
            sizes[row.path] = len(container)
    return sizes


def test_soak_holds_the_table_and_every_generation_row():
    engine = Flay(registry.load("switch"), FlayOptions(target="none"))
    assert all(key.match_kind == "ternary" for key in engine.model.table(ACL).keys)
    churn = AclChurn(engine.model, seed=21)
    preload: dict = {}
    peak: dict = {}
    generation = FACTORY.generation
    for index in range(PRELOAD + SOAK):
        engine.process_update(churn.step())
        seen = preload if index < PRELOAD else peak
        for path, size in _sizes(engine).items():
            seen[path] = max(seen.get(path, 0), size)
    assert FACTORY.generation - generation > 10, "the soak should collect"
    grown = {
        path: (preload[path], size)
        for path, size in peak.items()
        if size > BOUND * max(preload[path], 64)
    }
    assert grown == {}, f"grew past {BOUND}x the preload size: {grown}"
