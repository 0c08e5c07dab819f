"""The shared state every pipeline pass reads and writes.

One :class:`EngineContext` owns it — the hash-consing table, the
long-lived :class:`~repro.smt.substitute.DeltaSubstitution`, the
verdict caches, the timing and cache metrics, and the target backend —
and passes are plain functions over the context.

:data:`WARM_STATE` is the one inventory of what the engine keeps from
one update to the next; the snapshot, the restore and the fleet store
iterate it instead of naming attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from repro.ir.metrics import CacheCounter
from repro.runtime.semantics import DEFAULT_OVERAPPROX_THRESHOLD


@dataclass(frozen=True)
class EngineOptions:
    """Configuration knobs, mirroring the prototype's command line.

    Exported as ``FlayOptions`` from :mod:`repro.core` (the public name);
    the definition lives here so the engine does not import its subclass.
    """

    skip_parser: bool = False  # §4.2: skip parser analysis for big programs
    overapprox_threshold: Optional[int] = DEFAULT_OVERAPPROX_THRESHOLD
    target: str = "tofino"  # any registered backend name, or "none"
    # §6 specialization quality: none | dce | full.  It also gates
    # parser-tail pruning (on at "full").
    effort: str = "full"


@dataclass
class EngineTimings:
    """The Table 2 measurement surface (exported as ``FlayTimings``)."""

    parse_seconds: float = 0.0
    data_plane_analysis_seconds: float = 0.0
    initial_specialization_seconds: float = 0.0


@dataclass
class EngineContext:
    """Everything the pipeline stages share.

    Cold passes populate the fields top to bottom; the warm path mutates
    the control-plane state, verdicts, and specialization result.  The
    ``warm`` field holds per-run scratch (a ``WarmState``) while a warm
    pipeline executes.
    """

    options: EngineOptions
    # Front end.
    source: Optional[str] = None
    program: Optional[object] = None  # ast.Program
    env: Optional[object] = None  # TypeEnv
    # Analysis products.
    model: Optional[object] = None  # DataPlaneModel
    state: Optional[object] = None  # ControlPlaneState
    query_engine: Optional[object] = None  # QueryEngine (verdict caches)
    gate: Optional[object] = None  # VerdictGate (lookup rows + witness records)
    specializer: Optional[object] = None  # Specializer
    # The interning table; a collection between decisions frees the terms
    # nothing holds (every id()-keyed memo's owner forgets it first).
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
    # The report of the last device compile (cold or warm), or None.
    compile_report: Optional[object] = None
    # Conflict components for the batch scheduler (entity → component
    # root), computed lazily from the model's taint index on the first
    # burst — it is fixed per program, so this never invalidates.
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
    # Running totals over every warm decision; the engine keeps no
    # per-decision history (each decision is its returned record).
    recompilations: int = 0
    decisions: int = 0
    decision_ms: float = 0.0
    # Per-warm-run scratch (a pipeline.WarmState while a warm run executes).
    warm: Optional[object] = None

    def cache_counters(self) -> list:
        """Every cross-update cache layer's counter, in report order."""
        return [
            self.substitution.counter,
            self.query_engine.exec_counter,
            self.query_engine.table_verdict_counter,
            self.query_engine.solver.cache_counter,
            # Always zero: the solver keeps no CNF between queries, but
            # the end-to-end benchmark harness still reads this name.
            CacheCounter("cnf-fragments"),
            self.state.active_counter,
        ]


# ---------------------------------------------------------------------------
# The warm-state inventory
# ---------------------------------------------------------------------------

#: Key kinds.  ``id``: the ``id()`` of an interned term, valid in this
#: process until the term is collected.  ``node``: the ``id()`` of an AST
#: node of the engine's own program, which the program holds for the
#: engine's life.  ``term``: an interned term itself.  ``value``: a plain
#: value (a pid, a table name, a digest).
KEY_ID, KEY_NODE, KEY_TERM, KEY_VALUE = "id", "node", "term", "value"

#: Carry rules.  ``shared``: a pure function of the term — the fleet store
#: shares it and a restore unions the blob's entries into it.
#: ``carried``: the snapshot installs it.  ``rebuilt``: a restore
#: re-derives it.  ``local``: it starts empty in every engine.
SHARED, CARRIED, REBUILT, LOCAL = "shared", "carried", "rebuilt", "local"

#: Lifetimes.  ``generation``: its owner's ``forget()`` empties it at every
#: term collection (:meth:`~repro.smt.terms.TermFactory.collect`) — an
#: ``id`` key would alias a freed term's address, a term key would keep a
#: dead term alive.  ``engine``: a collection leaves it as it is; the terms
#: it holds are live, so the intern table keeps them.
GENERATION, ENGINE = "generation", "engine"


def _follow(obj, names):
    for name in names:
        if obj is None:
            return None
        obj = getattr(obj, name)
    return obj


class WarmRow(NamedTuple):
    """One structure the engine keeps across updates."""

    path: str  # attribute path from the EngineContext
    key: str
    carry: str
    lifetime: str

    def resolve(self, ctx: "EngineContext"):
        """The container, or None when an owner on the path is None
        (no target, no batch yet); raises ``AttributeError`` when the
        path names an attribute that does not exist."""
        return _follow(ctx, self.path.split("."))

    def install(self, ctx: "EngineContext", container) -> None:
        """Make ``container`` the structure at this row's path."""
        *owner, name = self.path.split(".")
        setattr(_follow(ctx, owner), name, container)


WARM_STATE: tuple = (
    # The intern table.  A collection sweeps the terms nothing else holds;
    # decoding a snapshot re-interns every term it carries.
    WarmRow("term_factory._table", KEY_TERM, REBUILT, ENGINE),
    # The control plane: the snapshot stores the live entries and value
    # sets, and a restore replays them.  Each TableState also holds its
    # `!any` mapping once the table is overapproximated; a replay that
    # passes the threshold builds it again.
    WarmRow("state.tables", KEY_VALUE, REBUILT, ENGINE),
    WarmRow("state.value_sets", KEY_VALUE, REBUILT, ENGINE),
    # Re-encoded from the replayed control plane (pure encodings).
    WarmRow("mapping", KEY_TERM, REBUILT, ENGINE),
    WarmRow("table_assignments", KEY_VALUE, REBUILT, ENGINE),
    WarmRow("substitution._mapping", KEY_TERM, CARRIED, ENGINE),
    WarmRow("substitution._memo", KEY_TERM, CARRIED, ENGINE),
    # Re-derived from the memo keys' own argument lists.
    WarmRow("substitution._parents", KEY_TERM, REBUILT, ENGINE),
    WarmRow("substitution._heights", KEY_TERM, REBUILT, ENGINE),
    # Shared with the substitution.
    WarmRow("query_engine._simplify_memo", KEY_ID, LOCAL, GENERATION),
    WarmRow("query_engine._exec_cache", KEY_TERM, SHARED, GENERATION),
    WarmRow("query_engine._decided", KEY_VALUE, CARRIED, ENGINE),
    # Its keys embed term ids; a restore re-primes it with one pass.
    WarmRow("query_engine._table_verdict_memo", KEY_ID, REBUILT, GENERATION),
    # One verdict per overapproximated table, built on its first use.
    WarmRow("query_engine._overapproximated", KEY_VALUE, LOCAL, ENGINE),
    WarmRow("query_engine._values_memo", KEY_ID, LOCAL, GENERATION),
    WarmRow("query_engine._tree_sizes", KEY_TERM, LOCAL, GENERATION),
    WarmRow("query_engine.solver._results", KEY_TERM, SHARED, GENERATION),
    WarmRow("query_engine.solver._simplify_memo", KEY_ID, LOCAL, GENERATION),
    WarmRow("query_engine.solver._interval_memo", KEY_ID, LOCAL, GENERATION),
    WarmRow("gate._records", KEY_VALUE, CARRIED, ENGINE),
    WarmRow("point_verdicts", KEY_VALUE, CARRIED, ENGINE),
    WarmRow("table_verdicts", KEY_VALUE, CARRIED, ENGINE),
    # Computed from the model on the first burst.
    WarmRow("batch_components", KEY_VALUE, REBUILT, ENGINE),
    WarmRow("specializer._memo", KEY_NODE, LOCAL, ENGINE),
    WarmRow("specializer._node_verdicts", KEY_NODE, LOCAL, ENGINE),
)


def generation_attributes(owner: str) -> tuple:
    """The attribute names of the ``generation`` rows held directly by
    the object at path ``owner`` — what that object's ``forget()``
    empties."""
    prefix = owner + "."
    return tuple(
        row.path[len(prefix):]
        for row in WARM_STATE
        if row.lifetime == GENERATION
        and row.path.startswith(prefix)
        and "." not in row.path[len(prefix):]
    )


def warm_state(ctx: EngineContext, *carry: str) -> Iterator[tuple]:
    """``(row, container)`` for every row present in ``ctx``, in table
    order; only the rows with one of the ``carry`` rules when any are
    given."""
    for row in WARM_STATE:
        if carry and row.carry not in carry:
            continue
        container = row.resolve(ctx)
        if container is not None:
            yield row, container
