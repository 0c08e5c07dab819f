"""Cold vs warm update processing — the cross-update evaluation cache.

An update stream that revisits control-plane states (route flaps, ACL
churn) re-derives the same substituted expressions and satisfiability
queries over and over.  The cache stack (delta substitution, solver
verdict memo, CNF fragment reuse, incremental active-entry maintenance)
answers the repeats without recomputation.  This bench drives a flap
workload through a warm pipeline and checks that every layer is actually
absorbing work, then replays the solver's query log to show the verdict
memo answering at a 100% hit rate.
"""

import time

from conftest import heading, make_flay
from repro.engine import EventBus, UpdateProcessed
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.semantics import DELETE, INSERT, Update

TABLE = "MiddleblockIngress.port_profile0_conf"
ENTRIES = 12
FLAPS = 3


def test_flap_workload_cache_hits(benchmark, corpus_programs):
    bus = EventBus()
    log = bus.attach_log()
    flay = make_flay(corpus_programs["middleblock"], bus=bus)
    fuzzer = EntryFuzzer(flay.model, seed=3)
    entries = fuzzer.unique_entries(TABLE, ENTRIES)

    # Cold pass: first time any of these states is seen.
    start = time.perf_counter()
    for entry in entries:
        flay.process_update(Update(TABLE, INSERT, entry))
    cold_ms = (time.perf_counter() - start) * 1000

    def flap_cycle():
        for entry in entries:
            flay.process_update(Update(TABLE, DELETE, entry))
        for entry in entries:
            flay.process_update(Update(TABLE, INSERT, entry))

    benchmark.pedantic(flap_cycle, rounds=FLAPS, iterations=1)
    warm_ms = cold_ms and (flay.runtime.mean_update_ms() * 2 * ENTRIES)

    stats = flay.cache_stats()
    gate = flay.gate_stats()
    outcomes = log.of_type(UpdateProcessed)
    forwarded = sum(1 for o in outcomes if o.forwarded)
    heading("Update cache: flap workload (middleblock port profile)")
    print(stats.describe())
    print(
        "verdict layers: "
        f"witness {gate.witness_hits}, cached {gate.exec_cache_hits}, "
        f"cdcl {gate.solver_fallbacks}"
    )
    print(
        f"cold install: {cold_ms:.1f} ms for {ENTRIES} updates; "
        f"mean warm flap cycle ≈ {warm_ms:.1f} ms"
    )
    print(f"outcomes: {forwarded}/{len(outcomes)} forwarded")
    benchmark.extra_info["cold_install_ms"] = round(cold_ms, 2)
    benchmark.extra_info["layer_fdd_witness_replays"] = gate.witness_hits
    benchmark.extra_info["layer_cdcl_probes"] = gate.solver_fallbacks

    # The engine reported every update on the event bus.
    assert len(outcomes) == ENTRIES + FLAPS * 2 * ENTRIES

    # Every cache layer must be absorbing repeated work.
    assert stats.get("substitution").hits > 0
    assert stats.get("active-entries").hits > 0
    assert stats.get("cnf-fragments").hits > 0
    # The executability layer *is* the solver verdict memo seen by the
    # pipeline: repeated guards never reach the solver again.
    assert stats.get("executability").hits > 0


def test_solver_verdict_memo_replay(corpus_programs):
    """Re-issuing every satisfiability query the pipeline ever asked is
    answered entirely from the solver's verdict memo (hit rate 1.0)."""
    flay = make_flay(corpus_programs["middleblock"])
    fuzzer = EntryFuzzer(flay.model, seed=3)
    for entry in fuzzer.unique_entries(TABLE, ENTRIES):
        flay.process_update(Update(TABLE, INSERT, entry))

    solver = flay.ctx.query_engine.solver
    answered = list(solver._results)
    assert answered, "workload never reached the solver"
    baseline = solver.cache_counter.snapshot()
    for term in answered:
        solver.check_sat(term)
    replay = solver.cache_counter.since(baseline)
    heading("Solver verdict memo: query-log replay")
    print(replay.describe())
    assert replay.hits == len(answered)
    assert replay.misses == 0
    assert replay.hit_rate == 1.0
