"""The shared state every pipeline pass reads and writes.

One :class:`EngineContext` owns it — the hash-consing table, the
long-lived :class:`~repro.smt.substitute.DeltaSubstitution`, the
verdict/CNF caches, the timing and cache metrics, the target backend, and
the event bus — and passes are plain functions over the context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.engine.events import EventBus
from repro.runtime.semantics import DEFAULT_OVERAPPROX_THRESHOLD


@dataclass(frozen=True)
class EngineOptions:
    """Configuration knobs, mirroring the prototype's command line.

    Exported as ``FlayOptions`` from :mod:`repro.core` (the public name);
    the definition lives here so the engine does not import its subclass.
    """

    skip_parser: bool = False  # §4.2: skip parser analysis for big programs
    overapprox_threshold: Optional[int] = DEFAULT_OVERAPPROX_THRESHOLD
    use_solver: bool = True  # allow SAT fallback for executability queries
    prune_parser_tail: bool = True
    # Abstract-interpretation prune pass between typecheck and analysis:
    # folds ground constants and deletes statically-dead branches before
    # symexec/encoding ever see them.  Specialized output is byte-identical
    # either way (``--no-prune`` ablation); pruning only shrinks the cold
    # pipeline's work.  Follows the ``effort`` preset (off at "none").
    prune: bool = True
    target: str = "tofino"  # any registered backend name, or "none"
    effort: str = "full"  # none | dce | full — specialization quality knob


@dataclass
class EngineTimings:
    """The Table 2 measurement surface (exported as ``FlayTimings``)."""

    parse_seconds: float = 0.0
    prune_seconds: float = 0.0
    data_plane_analysis_seconds: float = 0.0
    initial_specialization_seconds: float = 0.0
    update_ms: list = field(default_factory=list)

    def mean_update_ms(self) -> float:
        return sum(self.update_ms) / len(self.update_ms) if self.update_ms else 0.0

    def max_update_ms(self) -> float:
        return max(self.update_ms, default=0.0)


@dataclass
class EngineContext:
    """Everything the pipeline stages share.

    Cold passes populate the fields top to bottom; the warm path mutates
    the control-plane state, verdicts, and specialization result.  The
    ``warm`` field holds per-run scratch (a ``WarmState``) while a warm
    pipeline executes.
    """

    options: EngineOptions
    bus: EventBus
    # Front end.
    source: Optional[str] = None
    program: Optional[object] = None  # ast.Program
    env: Optional[object] = None  # TypeEnv
    # Prune-pass outcome (an analysis.dataflow.prune.PruneReport, or None
    # when the pass is disabled).
    prune_report: Optional[object] = None
    # Analysis products.
    model: Optional[object] = None  # DataPlaneModel
    state: Optional[object] = None  # ControlPlaneState
    query_engine: Optional[object] = None  # QueryEngine (verdict/CNF caches)
    gate: Optional[object] = None  # VerdictGate (lookup rows + witness records)
    specializer: Optional[object] = None  # Specializer
    # The interning table every id()-keyed memo relies on.
    term_factory: Optional[object] = None  # TermFactory
    # Control-plane encoding state (survives across updates).
    substitution: Optional[object] = None  # DeltaSubstitution
    mapping: dict = field(default_factory=dict)  # control symbol → term
    table_assignments: dict = field(default_factory=dict)
    # Current verdicts.
    point_verdicts: dict = field(default_factory=dict)
    table_verdicts: dict = field(default_factory=dict)
    # Specialization result.
    specialized_program: Optional[object] = None
    report: Optional[object] = None  # SpecializationReport
    # Target backend (a repro.targets.base.Target, or None).
    target: Optional[object] = None
    compile_reports: list = field(default_factory=list)
    lowered_updates: list = field(default_factory=list)
    # Conflict components for the batch scheduler (entity → component
    # root), computed lazily from the model and dependency graph on the
    # first ``apply_batch`` — both are fixed per program, so this never
    # invalidates.
    batch_components: Optional[dict] = None
    # Fleet shared store (a repro.fleet.store.SharedStore, or None when the
    # engine runs standalone).  ``store_hit`` records whether the cold
    # pipeline adopted a donated entry instead of computing its own.
    store: Optional[object] = None
    store_hit: bool = False
    # Warm-state snapshot being restored (a snapshot blob dict); consumed
    # by the RestorePass and cleared afterwards.
    restore_blob: Optional[dict] = None
    # Bookkeeping.
    timings: EngineTimings = field(default_factory=EngineTimings)
    update_log: list = field(default_factory=list)
    recompilations: int = 0
    # Per-warm-run scratch (a pipeline.WarmState while a warm run executes).
    warm: Optional[object] = None

    def cache_counters(self) -> list:
        """Every cross-update cache layer's counter, in report order."""
        return [
            self.substitution.counter,
            self.query_engine.exec_counter,
            self.query_engine.table_verdict_counter,
            self.query_engine.solver.cache_counter,
            self.query_engine.solver.cnf_counter,
            self.state.active_counter,
        ]
