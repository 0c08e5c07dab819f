"""The closed loop: set up each program, time every decision, check outputs.

One client, one update (or burst) in flight, one process.  The engine is
built with default ``FlayOptions`` (plus the program's target and
``skip_parser``, as in ``benchmarks/test_table2_analysis_times.py``) and no
event bus.  A *decision* is one call to ``process_update`` or
``apply_batch(burst, workers=0)``, timed here from call to return.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from harness import checks, layers, tracing
from harness.workloads import (
    PERCENTILE_GROUPS,
    TARGETS,
    WORKLOADS,
    build_plan,
    decisions_per_program,
    derive_seed,
    plan_digest,
)
from repro.core import Flay, FlayOptions
from repro.programs import registry

#: Machine-speed reference.  The shared machines this runs on change speed
#: by up to 2x over minutes and by +-30% within a second (a fixed Python
#: loop took 134-384 ms), far more than any regression bound.  So a small
#: fixed kernel is timed between decisions, ``REFERENCE_SAMPLES`` times per
#: program, and every *time* metric of the untraced run is divided by
#: (median reference time / ``REFERENCE_MS``): it reads as the time on a
#: machine where the kernel takes ``REFERENCE_MS``, the value on the machine
#: the bounds were calibrated on.  Raw times are printed next to it.
REFERENCE_MS = 0.5
REFERENCE_SAMPLES = 64
#: Reference samples taken before and after a program's setup.
SETUP_REFERENCE_SAMPLES = 8


def reference_ms() -> float:
    """Time one run of the reference kernel: dict stores, lookups and
    integer arithmetic, the engine's own mix."""
    start = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(4000):
        table[i & 63] = total
        total += table.get((i * 7) & 63, 0) + i
    return (time.perf_counter() - start) * 1000


#: Largest share of a traced decision's wall time that may fall outside
#: every wrapped layer before the trace is refused (per update, per burst).
MAX_UNATTRIBUTED, MAX_UNATTRIBUTED_BURST = 0.05, 0.10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(values: list, q: float, strict: bool = True) -> float:
    """Nearest-rank percentile, refused unless at least ten samples lie
    beyond it (so p95 needs 200 samples, p99 needs 1000).  Only a
    ``--smoke`` run, whose numbers are not measurements, is not strict."""
    needed = math.ceil(10 / (1 - q))
    if strict and len(values) < needed:
        raise TooFewSamples(f"p{q * 100:g} needs {needed} samples, got {len(values)}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def geometric_mean(values: list) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def percentile_or_zero(values: list, q: float) -> float:
    """For per-program rows, where 0 reads "too few samples to report"."""
    try:
        return percentile(values, q)
    except TooFewSamples:
        return 0.0


@dataclass
class ProgramRun:
    program: str
    #: Cold pipeline plus initial config and preload, as measured.
    setup_s: float = 0.0
    #: Median reference-kernel time over ``REFERENCE_MS``, around setup and
    #: during the measured phase: how much slower than nominal the machine ran.
    setup_slowdown: float = 1.0
    slowdown: float = 1.0
    points: int = 0
    tables: int = 0
    input_sha256: str = ""
    latencies_ms: list = field(default_factory=list)
    recompiled: list = field(default_factory=list)  # bool per decision
    outcomes: list = field(default_factory=list)  # digest line per decision
    failures: list = field(default_factory=list)
    updates: int = 0
    overapprox_updates: int = 0
    affected_points: int = 0
    submitted: int = 0  # burst_batch: updates as submitted ...
    coalesced: int = 0  # ... and after coalescing
    groups: int = 0
    cache: dict = field(default_factory=dict)  # counter -> (hits, misses)
    solver_probes: int = 0
    solver_conflicts: int = 0
    gate: dict = field(default_factory=dict)
    jobs: list = field(default_factory=list)


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    programs: list
    check_results: list
    metrics: dict  # name -> (value, unit)
    failures: list
    attempted: int
    input_sha256: str
    decision_digest: str
    spans: Optional[list] = None

    @property
    def failed(self) -> int:
        return len(self.failures)


def _decide(flay: Flay, item):
    if isinstance(item, tuple):
        return flay.apply_batch(list(item), workers=0)
    return flay.process_update(item)


def _counters(flay: Flay) -> tuple:
    cache = {c.name: (c.hits, c.misses) for c in flay.cache_stats().counters}
    return cache, flay.solver_stats().snapshot(), flay.gate_stats()


def _run_program(
    workload: str,
    program: str,
    seed: int,
    count: int,
    tracer: Optional[tracing.Tracer],
    first_decision_id: int,
) -> ProgramRun:
    entry = registry.get(program)
    options = FlayOptions(target=TARGETS[program], skip_parser=entry.skip_parser)
    run = ProgramRun(program)
    clock = time.perf_counter

    reference = [reference_ms() for _ in range(SETUP_REFERENCE_SAMPLES)]
    start = clock()
    flay = Flay.from_source(entry.source(), options)
    run.setup_s = clock() - start
    run.points, run.tables = flay.model.point_count, len(flay.model.tables)

    plan = build_plan(workload, program, flay.model, seed, count)
    run.input_sha256 = plan_digest(plan)

    start = clock()
    for update in plan.config:
        flay.process_update(update)
    if plan.preload:
        flay.process_batch(plan.preload)
    run.setup_s += clock() - start
    reference += [reference_ms() for _ in range(SETUP_REFERENCE_SAMPLES)]
    run.setup_slowdown = statistics.median(reference) / REFERENCE_MS

    decide = tracer.root(_decide) if tracer else _decide
    assignments = flay.runtime.table_assignments
    packet_seed = derive_seed(seed, workload, program, "packets")
    midpoint = len(plan.stream) // 2
    reference_every = max(1, len(plan.stream) // REFERENCE_SAMPLES)
    reference = []
    # What setup built is long-lived: take it out of the collector's reach,
    # as a controller would after loading its program, so that a full
    # collection in the measured phase costs tens of milliseconds, not the
    # 200 ms that made one sub-millisecond forward in a thousand miss the
    # budget at random.
    gc.collect()
    gc.freeze()
    cache_before, solver_before, gate_before = _counters(flay)
    for index, item in enumerate(plan.stream):
        if index == midpoint:
            run.jobs.append(checks.snapshot(flay, program, "mid", packet_seed))
        if index % reference_every == 0:
            reference.append(reference_ms())
        if tracer:
            tracer.decision_id = first_decision_id + index
        updates = item if isinstance(item, tuple) else (item,)
        start = clock()
        try:
            decision = decide(flay, item)
        except Exception:  # the engine failed a valid update: count it, go on
            run.latencies_ms.append((clock() - start) * 1000)
            run.recompiled.append(False)
            run.outcomes.append("failed")
            run.failures.append(
                f"{program}: decision {index} raised\n{traceback.format_exc()}"
            )
            continue
        run.latencies_ms.append((clock() - start) * 1000)
        run.recompiled.append(decision.recompiled)
        run.outcomes.append(f"{int(decision.recompiled)}:{decision.changed}")
        run.updates += len(updates)
        run.affected_points += decision.affected_points
        run.overapprox_updates += sum(
            assignments[update.table].overapproximated for update in updates
        )
        if isinstance(item, tuple):
            run.submitted += decision.update_count
            run.coalesced += decision.coalesced_count
            run.groups += decision.group_count
    gc.unfreeze()
    run.slowdown = statistics.median(reference) / REFERENCE_MS
    if tracer:
        tracer.decision_id = None
    cache_after, solver_after, gate_after = _counters(flay)
    run.cache = {
        name: (hits - cache_before[name][0], misses - cache_before[name][1])
        for name, (hits, misses) in cache_after.items()
    }
    solver = solver_after.since(solver_before)
    run.solver_probes, run.solver_conflicts = solver.probes, solver.search.conflicts
    run.gate = vars(gate_after.since(gate_before))
    run.jobs.append(checks.snapshot(flay, program, "end", packet_seed + 1))
    return run


def _run_checks(jobs: list) -> list:
    """Rebuild-and-compare in fresh processes, so the oracle's memory and
    interned terms never touch the measured engine.  One
    ``harness.check_worker`` child per core, each started here and waited
    for here, on every way out."""
    workers = max(1, min(len(jobs), os.cpu_count() or 1))
    slices = [jobs[index::workers] for index in range(workers)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    children: list = []
    results: list = [None] * len(jobs)
    try:
        for _ in slices:
            children.append(
                subprocess.Popen(
                    [sys.executable, "-m", "harness.check_worker"],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    env=env,
                )
            )
        # A worker reads all of its jobs before it starts on the first and
        # writes its results only after the last, so neither pipe can fill
        # while this side is busy with another child.
        for child, part in zip(children, slices):
            pickle.dump(part, child.stdin)
            child.stdin.close()
        for index, child in enumerate(children):
            output = child.stdout.read()
            if child.wait() != 0:
                raise RuntimeError(f"check worker {index} exited with {child.returncode}")
            results[index::workers] = pickle.loads(output)
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            for pipe in (child.stdin, child.stdout):
                with contextlib.suppress(OSError):
                    pipe.close()
    return results


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, smoke: bool = False
) -> RunResult:
    spec = WORKLOADS[workload]
    counts = decisions_per_program(spec, seconds, smoke)
    tracer = tracing.Tracer() if traced else None
    runs: list[ProgramRun] = []
    with tracer or contextlib.nullcontext():
        for program in spec.programs:
            done = sum(len(r.latencies_ms) for r in runs)
            runs.append(_run_program(workload, program, seed, counts[program], tracer, done))
            gc.collect()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_results = _run_checks([job for run in runs for job in run.jobs])

    decisions = sum(len(run.latencies_ms) for run in runs)
    if not smoke and decisions < spec.floor:
        raise RuntimeError(f"{workload}: {decisions} decisions, floor is {spec.floor}")
    failures = [line for run in runs for line in run.failures]
    failures += [line for result in check_results for line in result.failures]
    attempted = decisions + sum(result.attempted for result in check_results)
    digest = hashlib.sha256()
    inputs = hashlib.sha256()
    for run in runs:
        inputs.update(run.input_sha256.encode())
        for line in run.outcomes:
            digest.update(f"{run.program}|{line}\n".encode())

    spans = tracer.spans() if tracer else None
    if traced:
        metrics = _layer_metrics(spec, runs, spans)
        limit = MAX_UNATTRIBUTED_BURST if spec.burst else MAX_UNATTRIBUTED
        share = metrics["core.unattributed_share"][0]
        if share > limit:
            failures.append(
                f"trace: {share:.3f} of decision wall time is outside every "
                f"wrapped layer (limit {limit})"
            )
            attempted += 1
    else:
        metrics = _end_to_end_metrics(
            spec, runs, peak_rss_mb, len(failures) / attempted, strict=not smoke
        )
    return RunResult(
        workload=workload,
        seed=seed,
        traced=traced,
        programs=runs,
        check_results=check_results,
        metrics=metrics,
        failures=failures,
        attempted=attempted,
        input_sha256=inputs.hexdigest(),
        decision_digest=digest.hexdigest(),
        spans=spans,
    )


def _end_to_end_metrics(spec, runs, peak_rss_mb, failed_share, strict) -> dict:
    decisions = sum(len(run.latencies_ms) for run in runs)
    over = sum(  # a failed decision missed the budget however fast it failed
        1
        for run in runs
        for ms, outcome in zip(run.latencies_ms, run.outcomes)
        if outcome == "failed" or ms > spec.budget_ms
    )
    # Times are divided by the program's own slowdown (see REFERENCE_MS).
    # A zoo-level percentile is the geometric mean of the percentile groups'
    # own percentiles.  Pooling all latencies instead puts p50 on the knee
    # between the fast programs and the slow ones, where it swings with
    # whichever side machine noise pushed (measured: ±25% on burst_batch).
    grouped = [
        [ms / run.slowdown for run in runs if run.program in group for ms in run.latencies_ms]
        for group in PERCENTILE_GROUPS
    ]
    p50, p95 = (
        geometric_mean([percentile(pooled, q, strict) for pooled in grouped if pooled])
        for q in (0.50, 0.95)
    )
    wall_s = sum(sum(run.latencies_ms) / run.slowdown for run in runs) / 1000
    return {
        "setup_s": (sum(run.setup_s / run.setup_slowdown for run in runs), "s"),
        "decision_p50_ms": (p50, "ms"),
        "decision_p95_ms": (p95, "ms"),
        # The budget is wall-clock: this one is not scaled.
        "within_budget_share": (1 - over / decisions, "share"),
        "updates_per_s": (sum(run.updates for run in runs) / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_share": (1 - failed_share, "share"),
    }


def _layer_metrics(spec, runs, spans) -> dict:
    values = layers.span_metrics(spans)
    latencies = [ms for run in runs for ms in run.latencies_ms]
    recompiled = [
        ms for run in runs for ms, flag in zip(run.latencies_ms, run.recompiled) if flag
    ]
    forwarded = [
        ms for run in runs for ms, flag in zip(run.latencies_ms, run.recompiled) if not flag
    ]
    gate = {key: sum(run.gate[key] for run in runs) for key in runs[0].gate}

    def cache_ratio(name: str) -> float:
        hits = sum(run.cache[name][0] for run in runs)
        return layers.ratio(hits, hits + sum(run.cache[name][1] for run in runs))

    solver_free = (
        gate["witness_hits"]
        + gate["exec_cache_hits"]
        + gate["interval_decided"]
        + gate["witness_evals"]
    )
    submitted = sum(run.submitted for run in runs)
    bursts = len(latencies) if spec.burst else 0
    values.update(
        {
            "analysis.points": sum(run.points for run in runs),
            "analysis.tables": sum(run.tables for run in runs),
            "engine.gate_screens": gate["screened"],
            "engine.gate_witness_hits": gate["witness_hits"],
            "engine.gate_solver_fallbacks": gate["solver_fallbacks"],
            "engine.gate_harvested": gate["harvested"],
            "engine.gate_solver_free_ratio": layers.ratio(solver_free, gate["screened"]),
            "smt.fdd_fast_inserts": gate["fdd_fast_inserts"],
            "smt.fdd_rebuilds": gate["fdd_rebuilds"],
            "smt.substitute_hit_ratio": cache_ratio("substitution"),
            "engine.points_per_decision": layers.ratio(
                sum(run.affected_points for run in runs), len(latencies)
            ),
            "engine.exec_cache_hit_ratio": cache_ratio("executability"),
            "smt.solver_probes": sum(run.solver_probes for run in runs),
            "smt.solver_conflicts": sum(run.solver_conflicts for run in runs),
            "smt.solver_memo_hit_ratio": cache_ratio("solver-memo"),
            "smt.cnf_fragment_hit_ratio": cache_ratio("cnf-fragments"),
            "engine.recompile_share": layers.ratio(len(recompiled), len(latencies)),
            "engine.recompile_p50_ms": percentile_or_zero(recompiled, 0.5),
            "runtime.overapprox_share": layers.ratio(
                sum(run.overapprox_updates for run in runs),
                sum(run.updates for run in runs),
            ),
            "engine.table_verdict_hit_ratio": cache_ratio("table-verdict"),
            "runtime.active_entries_hit_ratio": cache_ratio("active-entries"),
            "engine.forward_p50_ms": percentile_or_zero(forwarded, 0.5),
            "engine.batch_folded_ratio": layers.ratio(
                submitted - sum(run.coalesced for run in runs), submitted
            ),
            "engine.batch_groups_per_burst": layers.ratio(
                sum(run.groups for run in runs), bursts
            ),
        }
    )
    # Traced wall over the wall the same decisions would have taken without
    # the wrappers, estimated from the span count and the cost of one
    # wrapper on a no-op; ``repeat.py`` reports the ratio measured directly.
    wall_s = sum(latencies) / 1000
    measured_spans = sum(1 for span in spans if span.decision_id is not None)
    bare_s = max(wall_s - measured_spans * tracing.span_cost(), wall_s / 10)
    values["core.trace_overhead_ratio"] = wall_s / bare_s
    by_program = {run.program: run for run in runs}
    for program in layers.PROGRAMS:
        run = by_program.get(program)
        prefix = f"program.{program}"
        lat = run.latencies_ms if run else []
        values[f"{prefix}.decision_p50_ms"] = percentile_or_zero(lat, 0.5)
        values[f"{prefix}.decision_p95_ms"] = percentile_or_zero(lat, 0.95)
        values[f"{prefix}.setup_s"] = run.setup_s if run else 0.0
    return {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
