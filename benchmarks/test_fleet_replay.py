"""Fleet-scale replay: recompile-storm latency, warm failover.

Eight simulated switches run the ``scion`` program (the solver-heavy
corpus member) with divergent table configurations under one
highly-correlated churn trace: every burst is a recompile storm sweeping
most of the fleet.  Measured:

* **storm p50/p99** — per-burst apply latency percentiles during the
  storm, shared-store fleet (the differential against the isolated
  fleet is asserted, not timed: identical per-switch lowered output);
* **cold vs restored warm-up** — rebuilding a failed switch the only
  way possible without snapshots (cold pipeline + replay of its entire
  update history) versus restoring the warm state from its snapshot
  blob; an empty cold build is recorded alongside for scale.

Set ``FLEET_BENCH_JSON=/path/out.json`` to dump the measured numbers
(CI uploads that file as an artifact; ``tools/check_bench.py``
validates the committed copy against the floors below).
"""

import json
import os
import pickle
import time

from conftest import heading
from repro.engine.context import EngineOptions
from repro.engine.engine import Engine
from repro.fleet import FleetSimulator
from repro.programs import registry

SWITCHES = 8
SEED = 9
# Tracked acceptance floor (validated offline against BENCH_9.json).
RESTORE_SPEEDUP_FLOOR = 3.0  # failover beats cold rebuild + full replay

FLEET_KW = dict(
    switches=SWITCHES,
    seed=SEED,
    duration=90.0,
    mean_interval=12.0,
    correlation=0.9,  # storms: most bursts sweep most of the fleet
    updates_per_burst=4,
    divergent_prefix=4,
)


def build_and_run(source, shared):
    options = EngineOptions(target="none")
    sim = FleetSimulator(source, options=options, shared_store=shared, **FLEET_KW)
    start = time.perf_counter()
    report = sim.run()
    elapsed = time.perf_counter() - start
    return sim, report, elapsed * 1000


def test_fleet_replay_storms_and_failover(benchmark):
    source = registry.get("scion").source()
    timings = {
        "switches": SWITCHES,
        "seed": SEED,
        "correlation": FLEET_KW["correlation"],
        "restore_speedup_vs_cold_floor": RESTORE_SPEEDUP_FLOOR,
    }

    heading("Fleet replay: 8 scion switches, correlated recompile storms")
    shared_sim, shared_report, shared_ms = build_and_run(source, shared=True)
    isolated_sim, isolated_report, isolated_ms = build_and_run(
        source, shared=False
    )

    # Soundness first: sharing must not change a single lowered byte.
    assert shared_report.lowered_traces() == isolated_report.lowered_traces()
    assert (
        shared_report.specialized_sources()
        == isolated_report.specialized_sources()
    )

    timings["store_hits"] = shared_report.store_hits
    timings["bursts"] = shared_report.bursts
    timings["updates"] = shared_report.summary["updates"]
    timings["storm_p50_ms"] = shared_report.latency_quantile(0.5)
    timings["storm_p99_ms"] = shared_report.latency_quantile(0.99)
    timings["storm_p50_ms_isolated"] = isolated_report.latency_quantile(0.5)
    timings["storm_p99_ms_isolated"] = isolated_report.latency_quantile(0.99)
    timings["shared_replay_ms"] = shared_ms
    timings["isolated_replay_ms"] = isolated_ms

    print(f"bursts: {shared_report.bursts} arrivals, "
          f"{timings['updates']} updates across {SWITCHES} switches")
    print(f"  storm latency (shared):   p50 {timings['storm_p50_ms']:7.2f} ms, "
          f"p99 {timings['storm_p99_ms']:7.2f} ms")
    print(f"  storm latency (isolated): p50 {timings['storm_p50_ms_isolated']:7.2f} ms, "
          f"p99 {timings['storm_p99_ms_isolated']:7.2f} ms")

    # Failover: snapshot the busiest switch, then compare a cold build
    # against restoring its full warm state from the pickled blob.
    busiest = max(
        range(SWITCHES), key=lambda s: shared_report.switches[s].updates
    )
    result = shared_report.switches[busiest]
    blob = pickle.dumps(shared_sim.engines[busiest].snapshot())
    timings["snapshot_bytes"] = len(blob)

    start = time.perf_counter()
    cold = Engine(source=source, options=EngineOptions(target="none"))
    cold_ms = (time.perf_counter() - start) * 1000
    assert cold.specialized_program is not None

    # The no-snapshot failover path: cold pipeline, then replay the
    # switch's entire deterministic update history (regenerated from
    # the fleet seeds) to reach the same warm state.
    from repro.runtime.fuzzer import EntryFuzzer

    start = time.perf_counter()
    replica = Engine(source=source, options=EngineOptions(target="none"))
    prefix_fuzzer = EntryFuzzer(
        replica.model, seed=shared_sim._switch_seed(busiest, 1)
    )
    for update in prefix_fuzzer.update_stream(
        count=FLEET_KW["divergent_prefix"] + busiest
    ):
        replica.process_update(update)
    burst_fuzzer = EntryFuzzer(
        replica.model, seed=shared_sim._switch_seed(busiest, 2)
    )
    for _ in range(result.bursts):
        for update in burst_fuzzer.update_stream(
            count=FLEET_KW["updates_per_burst"]
        ):
            replica.process_update(update)
    cold_replay_ms = (time.perf_counter() - start) * 1000

    # Standalone restore (fresh host, no store): pays the program-pure
    # passes again, but never replays the update history.
    start = time.perf_counter()
    restored_standalone = Engine.restore(pickle.loads(blob))
    restore_standalone_ms = (time.perf_counter() - start) * 1000

    # Fleet failover restore: the replacement host already runs other
    # switches of this program, so the shared store supplies the parsed
    # AST and model — only the warm-state splice remains.
    start = time.perf_counter()
    restored = Engine.restore(pickle.loads(blob), store=shared_sim.store)
    restore_ms = (time.perf_counter() - start) * 1000

    live = shared_sim.engines[busiest]
    assert restored.point_verdicts == live.point_verdicts
    assert restored_standalone.point_verdicts == live.point_verdicts
    assert replica.point_verdicts == live.point_verdicts
    restore_speedup = (
        cold_replay_ms / restore_ms if restore_ms else float("inf")
    )
    timings["cold_build_ms"] = cold_ms
    timings["cold_replay_ms"] = cold_replay_ms
    timings["restore_standalone_ms"] = restore_standalone_ms
    timings["restore_ms"] = restore_ms
    timings["restore_speedup_vs_cold"] = restore_speedup

    print(f"  failover (switch {busiest}, {result.updates} updates warm): "
          f"cold+replay {cold_replay_ms:.1f} ms vs restore {restore_ms:.1f} ms "
          f"-> {restore_speedup:.2f}x")
    print(f"  (standalone restore {restore_standalone_ms:.1f} ms, "
          f"empty cold build {cold_ms:.1f} ms)")
    print(f"acceptance: restore speedup {restore_speedup:.2f}x "
          f"(bar: >= {RESTORE_SPEEDUP_FLOOR}x)")

    # Register the shared-fleet replay with pytest-benchmark.
    def shared_run():
        build_and_run(source, shared=True)

    benchmark.pedantic(shared_run, rounds=1, iterations=1)
    benchmark.extra_info["storm_p99_ms"] = round(timings["storm_p99_ms"], 2)
    benchmark.extra_info["restore_speedup_vs_cold"] = round(restore_speedup, 2)

    out_path = os.environ.get("FLEET_BENCH_JSON")
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(timings, handle, indent=2, sort_keys=True)
        print(f"wrote {out_path}")

    assert restore_speedup >= RESTORE_SPEEDUP_FLOOR
