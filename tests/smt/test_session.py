"""Tests for the persistent assumption-probing solver session.

The properties that matter: a session probe must agree with a fresh
one-shot solve of the same term (incrementality is invisible to answers),
models must decode against the original term, and the fork/export/absorb
cycle used by the batch scheduler must be conservative.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.metrics import CacheCounter
from repro.smt import terms as T
from repro.smt.cnf import FragmentBitBlaster
from repro.smt.sat import SatSolver
from repro.smt.session import SolverSession
from repro.smt.solver import Solver


def fresh_verdict(term) -> bool:
    """Ground truth: a throw-away non-incremental solver."""
    return Solver(share_encodings=False).check_sat(term).satisfiable


def make_session() -> SolverSession:
    return SolverSession(FragmentBitBlaster(CacheCounter("cnf")))


def random_term(rng: random.Random, depth: int = 3):
    """A random boolean term over a small shared variable pool."""
    x = T.data_var("x", 8)
    y = T.data_var("y", 8)
    z = T.data_var("z", 8)

    def bv(d):
        if d == 0 or rng.random() < 0.3:
            return rng.choice(
                [x, y, z, T.bv_const(rng.randrange(256), 8)]
            )
        op = rng.choice([T.add, T.sub, T.bv_and, T.bv_or, T.bv_xor, T.mul])
        return op(bv(d - 1), bv(d - 1))

    def boolean(d):
        if d == 0:
            cmp = rng.choice([T.eq, T.ne, T.ult, T.ule])
            return cmp(bv(depth), bv(depth))
        op = rng.choice(["and", "or", "not", "leaf"])
        if op == "and":
            return T.bool_and(boolean(d - 1), boolean(d - 1))
        if op == "or":
            return T.bool_or(boolean(d - 1), boolean(d - 1))
        if op == "not":
            return T.bool_not(boolean(d - 1))
        cmp = rng.choice([T.eq, T.ne, T.ult, T.ule])
        return cmp(bv(depth), bv(depth))

    return boolean(depth)


class TestProbe:
    def test_probe_matches_fresh_solver(self):
        session = make_session()
        x = T.data_var("x", 8)
        sat_term = T.eq(x, T.bv_const(7, 8))
        unsat_term = T.bool_and(
            T.eq(x, T.bv_const(1, 8)), T.eq(x, T.bv_const(2, 8))
        )
        assert session.probe(sat_term) is True
        assert session.probe(unsat_term) is False
        # Answers are stable on re-probe (learned clauses notwithstanding).
        assert session.probe(sat_term) is True
        assert session.probe(unsat_term) is False

    def test_model_satisfies_term(self):
        session = make_session()
        x = T.data_var("x", 8)
        y = T.data_var("y", 8)
        term = T.bool_and(
            T.eq(T.add(x, y), T.bv_const(10, 8)), T.ult(x, T.bv_const(4, 8))
        )
        assert session.probe(term) is True
        values = session.model_values(term)
        assert T.evaluate(term, values) == 1

    def test_earlier_queries_do_not_constrain_later_ones(self):
        # Asserting x == 1 in one probe must not leak into the next: the
        # activation guard keeps each root conditional.
        session = make_session()
        x = T.data_var("x", 8)
        assert session.probe(T.eq(x, T.bv_const(1, 8))) is True
        assert session.probe(T.eq(x, T.bv_const(2, 8))) is True
        assert (
            session.probe(
                T.bool_and(
                    T.eq(x, T.bv_const(1, 8)), T.eq(x, T.bv_const(2, 8))
                )
            )
            is False
        )
        assert session.probe(T.eq(x, T.bv_const(1, 8))) is True

    def test_fragments_loaded_once(self):
        session = make_session()
        x = T.data_var("x", 8)
        base = T.add(x, T.bv_const(1, 8))
        session.probe(T.eq(base, T.bv_const(3, 8)))
        loaded = session.loaded_fragments
        # Second query over the same subterm reuses its loaded cone.
        session.probe(T.ne(base, T.bv_const(3, 8)))
        assert session.loaded_fragments > loaded  # new root only
        before = session.loaded_fragments
        session.probe(T.eq(base, T.bv_const(3, 8)))  # fully repeated
        assert session.loaded_fragments == before

    def test_many_random_terms_agree_with_fresh(self):
        rng = random.Random(7)
        session = make_session()
        for _ in range(40):
            term = random_term(rng, depth=2)
            assert session.probe(term) == fresh_verdict(term), T.to_string(term)


class TestForkAbsorb:
    def test_fork_probe_agrees(self):
        parent = make_session()
        x = T.data_var("x", 8)
        parent.probe(T.eq(x, T.bv_const(1, 8)))
        fork = parent.fork(parent.encoder.fork(CacheCounter("cnf-fork")))
        term = T.bool_and(
            T.ult(x, T.bv_const(9, 8)), T.ne(x, T.bv_const(3, 8))
        )
        assert fork.probe(term) == fresh_verdict(term)
        # Parent still answers correctly afterwards.
        assert parent.probe(term) == fresh_verdict(term)

    def test_absorb_learned_clauses_is_conservative(self):
        rng = random.Random(21)
        parent = make_session()
        warmup = [random_term(rng, depth=2) for _ in range(10)]
        for term in warmup:
            parent.probe(term)
        fork = parent.fork(parent.encoder.fork(CacheCounter("cnf-fork")))
        fork_terms = [random_term(rng, depth=2) for _ in range(10)]
        expected = {term: fresh_verdict(term) for term in fork_terms}
        for term in fork_terms:
            assert fork.probe(term) == expected[term]
        imported = parent.absorb(fork)
        assert imported >= 0
        # The merged parent still answers every query correctly.
        for term in warmup + fork_terms:
            assert parent.probe(term) == fresh_verdict(term)

    def test_absorb_rejects_foreign_fork(self):
        a = make_session()
        b = make_session()
        x = T.data_var("x", 8)
        b.probe(T.eq(x, T.bv_const(1, 8)))
        assert a.absorb(b) == 0


def count_forks(monkeypatch) -> list:
    """Record every ``SatSolver.fork`` / ``_rebuild_watches`` call — the
    copy and the watch rebuild an eager slice fork paid per burst."""
    calls: list = []
    for name in ("fork", "_rebuild_watches"):
        original = getattr(SatSolver, name)

        def counted(self, _name=name, _original=original):
            calls.append(_name)
            return _original(self)

        monkeypatch.setattr(SatSolver, name, counted)
    return calls


def scion_burst():
    """A warmed scion engine plus a forwards-only insert burst over the
    main route table and two tables from other conflict components."""
    from repro.core import Flay, FlayOptions
    from repro.programs import registry
    from repro.runtime.fuzzer import EntryFuzzer
    from repro.runtime.semantics import INSERT, Update

    flay = Flay(registry.load("scion"), FlayOptions(target="none"))
    fuzzer = EntryFuzzer(flay.model, seed=7)
    warmup, burst = [], []
    for table in (
        "ScionIngress.ipv4_forward",
        "ScionIngress.bfd_sessions",
        "ScionEgress.mtu_table",
    ):
        seen: set = set()

        def fresh(count, action=None):
            updates = []
            while len(updates) < count:
                entry = fuzzer.entry(table, action=action)
                if entry.match_key() not in seen:
                    seen.add(entry.match_key())
                    updates.append(Update(table, INSERT, entry))
            return updates

        for action in flay.model.table(table).action_order:
            warmup.extend(fresh(2, action))
        burst.extend(fresh(8))
    flay.process_batch(warmup)
    return flay, burst


def exported(twin: Solver) -> list:
    """Learned clauses a twin would hand back (none if it never probed)."""
    return twin.session.export_learned() if twin.session is not None else []


def check_all(solver: Solver, terms) -> list:
    return [
        (result.satisfiable, result.model)
        for result in map(solver.check_sat, terms)
    ]


class TestSolverFacadeFork:
    def test_fork_slice_and_absorb(self, monkeypatch):
        rng = random.Random(3)
        shared = Solver()
        terms = [random_term(rng, depth=2) for _ in range(8)]
        expected = {term: fresh_verdict(term) for term in terms}
        for term in terms[:4]:
            assert shared.check_sat(term).satisfiable == expected[term]
        calls = count_forks(monkeypatch)
        fork = shared.fork_slice()
        idle = shared.fork_slice()
        # A twin that never reaches bit-blasting never copies the session:
        # folding it back moves stats only.
        assert idle.check_sat(T.bool_const(True)).satisfiable
        clauses = (shared.session.sat.num_clauses, shared.session.sat.num_learned)
        assert shared.absorb_fork(idle) == 0
        assert idle.session is None
        assert clauses == (
            shared.session.sat.num_clauses,
            shared.session.sat.num_learned,
        )
        assert calls == []
        for term in terms[4:]:
            assert fork.check_sat(term).satisfiable == expected[term]
        # ... and one that does, copies it once, on its first probe.
        assert calls == ["fork", "_rebuild_watches"]
        before = shared.stats.probes
        shared.absorb_fork(fork)
        assert shared.stats.probes == before + fork.stats.probes
        for term in terms:
            assert shared.check_sat(term).satisfiable == expected[term]

    @pytest.mark.parametrize("workers", [1, 4], ids=["serial-1", "thread-4"])
    def test_forwarding_burst_never_forks_the_session(self, monkeypatch, workers):
        flay, burst = scion_burst()
        solver = flay.runtime.ctx.query_engine.solver
        probes = solver.stats.probes
        clauses = (solver.session.sat.num_clauses, solver.session.sat.num_learned)

        def refuse(self):
            raise AssertionError("a forwarding burst forked the CDCL session")

        monkeypatch.setattr(SatSolver, "fork", refuse)
        monkeypatch.setattr(SatSolver, "_rebuild_watches", refuse)
        report = flay.apply_batch(burst, workers=workers)
        assert report.forwarded and report.group_count == 3
        assert solver.stats.probes == probes
        assert clauses == (
            solver.session.sat.num_clauses,
            solver.session.sat.num_learned,
        )

    @given(seed=st.integers(0, 2**32 - 1), nth=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_lazy_twin_equals_eager_twin(self, seed, nth):
        # Materialising on the n-th query must be invisible: same verdicts,
        # models, and exported learned clauses as a twin forked at
        # fork_slice() time.  Both parents replay the same warmup, so their
        # sessions (and hence their forks) are identical by determinism.
        rng = random.Random(seed)
        warmup = [random_term(rng, depth=2) for _ in range(4)]
        # ``nth`` queries the simplifier decides, then ones that may probe.
        queries = [T.bool_const(i % 2 == 0) for i in range(nth)]
        queries += [random_term(rng, depth=2) for _ in range(6)]
        twins = []
        for eager in (False, True):
            parent = Solver()
            check_all(parent, warmup)
            twin = parent.fork_slice()
            if eager:
                twin._materialize_fork()
            twins.append((parent, twin))
        (lazy_parent, lazy), (eager_parent, eager) = twins
        assert lazy.session is None and eager.session is not None
        assert check_all(lazy, queries) == check_all(eager, queries)
        assert exported(lazy) == exported(eager)
        assert lazy.stats.search == eager.stats.search
        assert lazy_parent.absorb_fork(lazy) == eager_parent.absorb_fork(eager)

    def test_concurrent_materialisation_agrees_with_serial(self):
        # More twins than cores, all released at once with a short switch
        # interval: every one forks the same parent session on its first
        # probe, under the parent's lock.
        rng = random.Random(17)
        warmup = [random_term(rng, depth=2) for _ in range(6)]
        streams = [[random_term(rng, depth=2) for _ in range(6)] for _ in range(6)]

        def parent_with_twins():
            parent = Solver()
            check_all(parent, warmup)
            return parent, [parent.fork_slice() for _ in streams]

        _, serial_twins = parent_with_twins()
        serial = [check_all(t, s) for t, s in zip(serial_twins, streams)]

        parent, twins = parent_with_twins()
        barrier = threading.Barrier(len(twins))
        results: list = [None] * len(twins)

        def work(index):
            barrier.wait(timeout=30)
            results[index] = check_all(twins[index], streams[index])

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(len(twins))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial
        assert [exported(t) for t in twins] == [exported(t) for t in serial_twins]
        assert parent.session.sat._decision_level() == 0
        for twin in twins:
            assert twin.session is not None
            parent.absorb_fork(twin)
        for term in warmup + [term for stream in streams for term in stream]:
            assert parent.check_sat(term).satisfiable == fresh_verdict(term)

    def test_replay_baseline_agrees_with_session(self):
        rng = random.Random(11)
        incremental = Solver()
        replay = Solver(share_encodings=False)  # fresh encoding + solver per query
        for _ in range(25):
            term = random_term(rng, depth=2)
            assert (
                incremental.check_sat(term).satisfiable
                == replay.check_sat(term).satisfiable
            ), T.to_string(term)


@st.composite
def term_strategy(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_term(random.Random(seed), depth=2)


@given(terms=st.lists(term_strategy(), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_session_stream_agrees_with_fresh_solves(terms):
    # The incremental-solving core property: probing a stream of queries
    # against one persistent session gives the same verdicts as solving
    # each query in a fresh solver.
    session = make_session()
    for term in terms:
        assert session.probe(term) == fresh_verdict(term)
