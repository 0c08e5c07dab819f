"""Per-layer metrics of the traced run, named by module.

``*_ms`` is a layer's self time summed over the measured phase (over setup
for the cold-pipeline layers), ``*_calls`` the number of entries into its
wrapped entry points.  Ratios and counts are deltas of the engine's own
``cache_stats()``, ``solver_stats()`` and ``gate_stats()`` over the measured
phase.  Which end-to-end metric each group should move, and on which
workload, is tabulated in ``README.md``.
"""

from __future__ import annotations

from harness.tracing import DECISION_SPAN, WRAP_POINTS, self_times
from harness.workloads import SKETCHES, TABLE2

PROGRAMS = TABLE2 + SKETCHES

#: (metric, unit, better).  ``BENCHMARK.json``'s ``per_layer`` is this list.
PER_LAYER = (
    # cold pipeline (setup phase)
    ("p4.frontend_ms", "ms", "lower"),
    ("analysis.prune_ms", "ms", "lower"),
    ("analysis.symexec_ms", "ms", "lower"),
    ("analysis.points", "count", "lower"),
    ("analysis.tables", "count", "lower"),
    ("engine.encode_cold_ms", "ms", "lower"),
    # verdict gate
    ("engine.gate_screen_ms", "ms", "lower"),
    ("engine.gate_decide_ms", "ms", "lower"),
    ("engine.gate_decide_constant_ms", "ms", "lower"),
    ("engine.gate_screens", "count", "lower"),
    ("engine.gate_witness_hits", "count", "higher"),
    ("engine.gate_solver_fallbacks", "count", "lower"),
    ("engine.gate_harvested", "count", "higher"),
    ("engine.gate_solver_free_ratio", "ratio", "higher"),
    ("smt.fdd_fast_inserts", "count", "higher"),
    ("smt.fdd_rebuilds", "count", "lower"),
    ("smt.fdd_rebuild_ms", "ms", "lower"),
    # substitution and point verdicts
    ("smt.substitute_ms", "ms", "lower"),
    ("smt.substitute_calls", "count", "lower"),
    ("smt.substitute_hit_ratio", "ratio", "higher"),
    ("engine.point_verdict_ms", "ms", "lower"),
    ("engine.point_verdict_calls", "count", "lower"),
    ("engine.points_per_decision", "count", "lower"),
    ("engine.exec_cache_hit_ratio", "ratio", "higher"),
    # solver
    ("smt.solver_ms", "ms", "lower"),
    ("smt.solver_calls", "count", "lower"),
    ("smt.solver_probes", "count", "lower"),
    ("smt.solver_conflicts", "count", "lower"),
    ("smt.solver_memo_hit_ratio", "ratio", "higher"),
    ("smt.cnf_fragment_hit_ratio", "ratio", "higher"),
    # respecialization and device compile
    ("engine.specialize_ms", "ms", "lower"),
    ("engine.specialize_calls", "count", "lower"),
    ("targets.compile_ms", "ms", "lower"),
    ("targets.compile_calls", "count", "lower"),
    ("engine.recompile_share", "share", "lower"),
    ("engine.recompile_p50_ms", "ms", "lower"),
    # precise encoding and table verdicts
    ("runtime.encode_table_ms", "ms", "lower"),
    ("runtime.encode_table_calls", "count", "lower"),
    ("runtime.overapprox_share", "share", "higher"),
    ("engine.table_verdict_ms", "ms", "lower"),
    ("engine.table_verdict_calls", "count", "lower"),
    ("engine.table_verdict_hit_ratio", "ratio", "higher"),
    # state application and forwarding
    ("runtime.apply_update_ms", "ms", "lower"),
    ("runtime.apply_update_calls", "count", "lower"),
    ("runtime.active_entries_hit_ratio", "ratio", "higher"),
    ("targets.lower_ms", "ms", "lower"),
    ("targets.lower_calls", "count", "lower"),
    ("engine.forward_p50_ms", "ms", "lower"),
    ("engine.warm_pass_ms", "ms", "lower"),
    # batch scheduler
    ("engine.batch_coalesce_ms", "ms", "lower"),
    ("engine.batch_partition_ms", "ms", "lower"),
    ("engine.batch_schedule_ms", "ms", "lower"),
    ("engine.batch_fork_ms", "ms", "lower"),
    ("engine.batch_group_ms", "ms", "lower"),
    ("engine.batch_merge_ms", "ms", "lower"),
    ("engine.batch_folded_ratio", "ratio", "higher"),
    ("engine.batch_groups_per_burst", "count", "higher"),
    # harness health
    ("core.unattributed_share", "share", "lower"),
    ("core.trace_overhead_ratio", "ratio", "lower"),
) + tuple(
    (f"program.{program}.{metric}", unit, "lower")
    for program in PROGRAMS
    for metric, unit in (("decision_p50_ms", "ms"), ("decision_p95_ms", "ms"), ("setup_s", "s"))
)

#: Spans of the cold-pipeline passes: metric ``<span>_ms`` is the pass's whole
#: duration during setup (the passes do not nest, and the warm layers they
#: call are theirs).  Every other span of ``WRAP_POINTS`` feeds ``<span>_ms``
#: with its self time over the measured phase, and ``<span>_calls``, where
#: ``PER_LAYER`` lists one, with its count.
_COLD = {"p4.frontend", "analysis.prune", "analysis.symexec", "engine.encode_cold"}
_SPANS = {span for _, _, span in WRAP_POINTS}
_CALLS = {f"{span}_calls" for span in _SPANS} & {name for name, _, _ in PER_LAYER}


def span_metrics(spans: list) -> dict:
    """Self-time sums and call counts per layer, plus the share of the
    decisions' wall time that no wrapped layer accounts for."""
    values: dict = {f"{span}_ms": 0.0 for span in _SPANS}
    values.update(dict.fromkeys(_CALLS, 0))
    own = self_times(spans)
    decision_wall = decision_self = 0.0
    for span, self_s in zip(spans, own):
        if span.name == DECISION_SPAN:
            decision_wall += span.duration
            decision_self += self_s
        elif span.name not in _SPANS:
            continue
        elif span.decision_id is None:
            if span.name in _COLD:
                values[f"{span.name}_ms"] += span.duration * 1000
        elif span.name not in _COLD:
            values[f"{span.name}_ms"] += self_s * 1000
            if f"{span.name}_calls" in values:
                values[f"{span.name}_calls"] += 1
    values["core.unattributed_share"] = decision_self / decision_wall if decision_wall else 0.0
    return values


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0
