"""The verdict gate on a disjoint insert stream: gated vs ungated verdicts.

The common control-plane update lands in key space disjoint from every
tainted path and changes no verdict.  The ungated engine still pulls the
point's term and, where it moved, pays a CDCL probe pair per
executability point; the gate answers the same queries from witness
fingerprints — one first-match row scan per dependency table.  This
bench measures exactly that regime on the ``switch`` program: saturate
the tables so their dependent points go MAYBE (the probe pairs that
decide them leave the witnesses behind), then time the verdict phase of
a disjoint-heavy insert stream with the gate on and off.  A scion stream
rides along as the control: its tables taint value points only, which
never enter the gate, so gated and ungated run the same code there.

What the gate can claim since the ungated path became incremental
(PR 22) and value points left the gate (PR 23):

* switch — the gated verdict phase beats the ungated one, with ≥ 80% of
  the *executability* screens solver-free;
* scion — gated is within noise of ungated (nothing is gated);
* by count, on both programs — the gated warm-up issues no more
  ``check_sat`` calls than the ungated one (its wall time is printed).

Set ``GATE_BENCH_JSON=/path/out.json`` to dump the measured numbers and
per-layer gate counters (CI uploads that file as an artifact).
"""

import json
import os
import time

from conftest import heading, make_flay
from repro.runtime.fuzzer import EntryFuzzer

# Tracked acceptance floors (validated again offline by
# ``tools/check_bench.py`` against the committed BENCH_6.json).
SWITCH_SPEEDUP_FLOOR = 1.0
SWITCH_SOLVER_FREE_FLOOR = 0.8
# Scion's stream taints value points only; they bypass the gate (asserted
# by count: zero screens), so the two engines run the same code and differ
# by timer noise.  The floor is the width of that noise on a ~4 ms phase,
# not a claim.
SCION_SPEEDUP_FLOOR = 0.5

SWITCH_TABLES = [
    "SwitchIngress.nat_table",
    "SwitchIngress.ipv4_multicast",
    "SwitchIngress.ipv6_multicast",
]
SCION_TABLES = [f"ScionEgress.rewrite_mac_if{i}" for i in range(4)]
WARMUP_SEED = 5
STREAM_SEED = 17
STREAM_COUNT = 200


def instrument_verdicts(flay):
    """Shadow ``point_verdict`` with a timing wrapper; returns the box.

    The verdict phase is where the gate lives — batching the measurement
    there keeps table maintenance, lowering, and printing (identical in
    both configurations) out of the comparison.
    """
    qe = flay.runtime.ctx.query_engine
    box = {"seconds": 0.0, "calls": 0}
    original = qe.point_verdict

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            box["seconds"] += time.perf_counter() - start
            box["calls"] += 1

    qe.point_verdict = timed
    return box


def warmup_updates(flay, seed=WARMUP_SEED):
    """One representative entry per action of every table: dependent
    points go MAYBE and the gate harvests their witnesses."""
    fuzzer = EntryFuzzer(flay.model, seed=seed)
    updates = []
    for table in sorted(flay.model.tables):
        updates.extend(fuzzer.representative_updates(table, per_action=1))
    return updates


def disjoint_stream(flay, tables, seed=STREAM_SEED, count=STREAM_COUNT):
    """Insert-only churn over random (disjoint-heavy) match keys."""
    return EntryFuzzer(flay.model, seed=seed).update_stream(
        tables=tables, count=count, modify_fraction=0.0, delete_fraction=0.0
    )


def run_config(program, tables, gated):
    """One engine through warm-up and the measured stream.

    The gate-stat deltas are split at the warmup/measured boundary:
    witness harvesting happens while warmup saturates the tables (the
    measured disjoint stream then *replays*), so folding both phases
    into one delta would hide where the records come from.
    """
    flay = make_flay(program, fdd_gate=gated)
    start = flay.gate_stats() if gated else None
    began = time.perf_counter()
    for update in warmup_updates(flay):
        flay.process_update(update)
    warmup_s = time.perf_counter() - began
    warmup_calls = flay.solver_stats().total
    warm = flay.gate_stats().since(start) if gated else None
    stream = disjoint_stream(flay, tables)
    box = instrument_verdicts(flay)
    before = flay.gate_stats() if gated else None
    for update in stream:
        flay.process_update(update)
    delta = flay.gate_stats().since(before) if gated else None
    return {
        "verdict_ms": box["seconds"] * 1000,
        "calls": box["calls"],
        "warmup_s": warmup_s,
        "warmup_solver_calls": warmup_calls,
        "warm": warm,
        "delta": delta,
        "flay": flay,
    }


def layer_counts(delta):
    """Per-layer resolution counts: how many verdict queries each tier
    of the stack absorbed (the ISSUE's interval / FDD / CDCL split)."""
    return {
        "fdd_witness_replays": delta.witness_hits + delta.witness_evals,
        "interval_screen": delta.interval_decided,
        "exec_cache": delta.exec_cache_hits,
        "cdcl_probes": delta.solver_fallbacks,
    }


def bench_program(name, program, tables, timings):
    # One run each, gated first.  Interned terms carry process-wide
    # caches (size, variables), so a second pass over the same stream
    # would find every term already seen and measure neither engine as
    # deployed; and with the gated engine first, the terms both pull are
    # new to *it* — the order that can only understate the gate.
    gated = run_config(program, tables, True)
    ungated = run_config(program, tables, False)
    # The ablation contract, checked on the bench workload itself.
    assert gated["flay"].specialized_source() == ungated["flay"].specialized_source()
    assert (
        gated["flay"].runtime.point_verdicts == ungated["flay"].runtime.point_verdicts
    )
    # The gate may only save solver work (counts repeat exactly).
    assert gated["warmup_solver_calls"] <= ungated["warmup_solver_calls"]

    warm, delta = gated["warm"], gated["delta"]
    gated_ms, ungated_ms = gated["verdict_ms"], ungated["verdict_ms"]
    speedup = ungated_ms / gated_ms if gated_ms else float("inf")
    # A stream that screens nothing (scion) has nothing that could have
    # reached the solver: trivially solver-free.
    solver_free_rate = delta.solver_free / delta.screened if delta.screened else 1.0
    timings[f"{name}_gated_verdict_ms"] = gated_ms
    timings[f"{name}_ungated_verdict_ms"] = ungated_ms
    timings[f"{name}_verdict_speedup"] = speedup
    timings[f"{name}_verdict_calls_gated"] = gated["calls"]
    timings[f"{name}_verdict_calls_ungated"] = ungated["calls"]
    timings[f"{name}_screens"] = delta.screened
    timings[f"{name}_solver_free_rate"] = solver_free_rate
    timings[f"{name}_warmup_solver_calls_gated"] = gated["warmup_solver_calls"]
    timings[f"{name}_warmup_solver_calls_ungated"] = ungated["warmup_solver_calls"]
    timings[f"{name}_warmup_s_gated"] = gated["warmup_s"]
    timings[f"{name}_warmup_s_ungated"] = ungated["warmup_s"]
    # Harvest counters, split by phase: warmup is where tables saturate
    # and the probe pairs leave their witnesses; the measured stream
    # reports its own (usually small) top-up.
    timings[f"{name}_witness_harvested_warmup"] = warm.harvested
    timings[f"{name}_witness_harvested"] = delta.harvested
    # Structural table-verdict memo traffic during the measured stream.
    timings[f"{name}_table_verdict_hits"] = delta.table_verdict_hits
    timings[f"{name}_table_verdict_misses"] = delta.table_verdict_misses
    for layer, count in layer_counts(delta).items():
        timings[f"{name}_layer_{layer}"] = count

    print(f"{name}: {STREAM_COUNT} disjoint-heavy inserts into {len(tables)} tables")
    print(f"  ungated verdict phase: {ungated_ms:8.1f} ms ({ungated['calls']} queries)")
    print(f"  gated verdict phase:   {gated_ms:8.1f} ms ({gated['calls']} queries)")
    print(f"  speedup:               {speedup:8.2f}x")
    print(
        f"  layers: witness {timings[f'{name}_layer_fdd_witness_replays']}, "
        f"interval {timings[f'{name}_layer_interval_screen']}, "
        f"cached {timings[f'{name}_layer_exec_cache']}, "
        f"cdcl {timings[f'{name}_layer_cdcl_probes']}"
    )
    print(
        f"  solver-free: {delta.solver_free}/{delta.screened} executability screens "
        f"({100 * solver_free_rate:.1f}%)"
    )
    print(
        f"  warm-up: gated {gated['warmup_solver_calls']} check_sat calls in "
        f"{gated['warmup_s']:.2f} s, ungated {ungated['warmup_solver_calls']} in "
        f"{ungated['warmup_s']:.2f} s"
    )
    print(
        f"  harvests: warmup {warm.harvested}, measured {delta.harvested}; "
        f"table verdicts {delta.table_verdict_hits} memo hits / "
        f"{delta.table_verdict_misses} misses"
    )
    return speedup, solver_free_rate


def test_gate_speedup_on_disjoint_stream(benchmark, corpus_programs):
    timings = {
        "stream_count": STREAM_COUNT,
        "warmup_seed": WARMUP_SEED,
        "stream_seed": STREAM_SEED,
        "switch_verdict_speedup_floor": SWITCH_SPEEDUP_FLOOR,
        "switch_solver_free_rate_floor": SWITCH_SOLVER_FREE_FLOOR,
        "scion_verdict_speedup_floor": SCION_SPEEDUP_FLOOR,
    }

    heading("FDD verdict gate: gated vs ungated warm verdict phase")
    switch_speedup, switch_rate = bench_program(
        "switch", corpus_programs["switch"], SWITCH_TABLES, timings
    )
    scion_speedup, _ = bench_program(
        "scion", corpus_programs["scion"], SCION_TABLES, timings
    )
    assert timings["switch_screens"] > 0
    assert timings["scion_screens"] == 0
    print(
        f"acceptance: switch speedup {switch_speedup:.2f}x "
        f"(bar: >= {SWITCH_SPEEDUP_FLOOR}x), "
        f"solver-free {100 * switch_rate:.1f}% (bar: >= 80%); "
        f"scion {scion_speedup:.2f}x (bar: >= {SCION_SPEEDUP_FLOOR}x, nothing gated)"
    )

    # Register the gated switch verdict phase with pytest-benchmark.
    def gated_run():
        run_config(corpus_programs["switch"], SWITCH_TABLES, True)

    benchmark.pedantic(gated_run, rounds=1, iterations=1)
    benchmark.extra_info["switch_verdict_speedup"] = round(switch_speedup, 2)
    benchmark.extra_info["scion_verdict_speedup"] = round(scion_speedup, 2)
    benchmark.extra_info["scion_verdict_speedup_floor"] = SCION_SPEEDUP_FLOOR

    out_path = os.environ.get("GATE_BENCH_JSON")
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(timings, handle, indent=2, sort_keys=True)
        print(f"wrote {out_path}")

    assert switch_speedup >= SWITCH_SPEEDUP_FLOOR
    assert switch_rate >= SWITCH_SOLVER_FREE_FLOOR
    # Nothing on the scion stream is gated (see SCION_SPEEDUP_FLOOR).
    assert scion_speedup >= SCION_SPEEDUP_FLOOR
