"""Typed engine events and the bus that carries them.

Everything the engine wants to tell the outside world — pass start/end,
cache hit/miss activity, update forwarded vs. recompiled, target compiles
— is published as a frozen dataclass on an :class:`EventBus`.  The CLI's
``--stats`` flag, the benchmarks, and the CI smoke job subscribe an
:class:`EventLog` instead of reaching into pipeline internals.

The bus is deliberately cheap when nobody listens: hot paths guard event
construction on :attr:`EventBus.active`, so a subscriber-free pipeline
pays one attribute check per would-be event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Type


@dataclass(frozen=True)
class Event:
    """Base class of every engine event."""


@dataclass(frozen=True)
class PassStarted(Event):
    """A pipeline pass began executing."""

    pass_name: str
    stage: str  # "cold" | "warm"


@dataclass(frozen=True)
class PassFinished(Event):
    """A pipeline pass finished executing."""

    pass_name: str
    stage: str
    elapsed_ms: float


@dataclass(frozen=True)
class CacheActivity(Event):
    """Hit/miss/invalidation delta of one cache layer over one warm run."""

    cache: str
    hits: int
    misses: int
    invalidations: int


@dataclass(frozen=True)
class UpdateProcessed(Event):
    """Outcome of one warm run (single update, value-set update, or batch).

    ``affected_points`` counts the points visited — those tainted by a
    control symbol whose assignment changed; 0 is the normal forward.  How
    many of them were re-decided is on the decision record.
    """

    kind: str  # "update" | "value_set" | "batch"
    forwarded: bool
    recompiled: bool
    update_count: int
    affected_points: int
    changed: int
    elapsed_ms: float


@dataclass(frozen=True)
class UpdateLowered(Event):
    """A forwarded update was handed to the target backend untouched."""

    target: str
    table: Optional[str]


@dataclass(frozen=True)
class TargetCompiled(Event):
    """The target backend (re)compiled a specialized program."""

    target: str
    modeled_seconds: float


@dataclass(frozen=True)
class BatchScheduled(Event):
    """The batch scheduler coalesced and partitioned a burst of updates."""

    update_count: int  # updates as submitted
    coalesced_count: int  # net updates after coalescing
    group_count: int  # independent conflict groups
    workers: int  # worker-pool width requested


@dataclass(frozen=True)
class BatchMerged(Event):
    """Worker cache deltas were folded back into the shared context.

    The ``worker_*``/``merged_*`` pairs are the merge's double-counting
    tripwire: per-worker stat deltas are absorbed into the shared
    solver/gate exactly once each, so the sums must match the shared
    deltas — the event refuses to construct otherwise.
    """

    group_count: int
    merged_memo_entries: int  # substitution memo entries grafted
    merged_verdict_entries: int  # solver/executability cache entries grafted
    elapsed_ms: float
    imported_learned_clauses: int = 0  # CDCL clauses folded into the session
    worker_solver_queries: int = 0  # sum of per-worker SolverStats.total
    merged_solver_queries: int = 0  # shared SolverStats.total delta over the merge
    worker_gate_screens: int = 0  # sum of per-worker GateStats.screened
    merged_gate_screens: int = 0  # shared GateStats.screened delta over the merge

    def __post_init__(self) -> None:
        if self.worker_solver_queries != self.merged_solver_queries:
            raise ValueError(
                "batch merge double-counted solver stats: workers sum to "
                f"{self.worker_solver_queries} queries, merged delta is "
                f"{self.merged_solver_queries}"
            )
        if self.worker_gate_screens != self.merged_gate_screens:
            raise ValueError(
                "batch merge double-counted gate stats: workers sum to "
                f"{self.worker_gate_screens} screens, merged delta is "
                f"{self.merged_gate_screens}"
            )


@dataclass(frozen=True)
class GateActivity(Event):
    """Verdict-gate activity over one warm run (delta counters).

    ``screened`` is the number of queries offered to the gate — the
    tainted executability points, the only ones that could have reached
    the solver; ``witness_hits`` were resolved pre-substitution from witness
    fingerprints, ``exec_cache_hits`` from the executability cache over
    the recomputed term, and ``solver_fallbacks`` reached the CDCL probe
    pair.  ``fdd_rebuilds`` counts lazy re-packs of table lookup rows
    during the run.
    """

    screened: int
    witness_hits: int
    exec_cache_hits: int
    solver_fallbacks: int
    harvested: int
    fdd_rebuilds: int


@dataclass(frozen=True)
class SolverActivity(Event):
    """SAT-core search effort spent over one warm run (delta counters)."""

    probes: int  # queries that reached the SAT core
    decisions: int
    conflicts: int
    propagations: int
    learned: int  # clauses learned
    restarts: int
    probe_us: float  # wall time inside the SAT core, µs


@dataclass(frozen=True)
class StoreActivity(Event):
    """One engine's cold pipeline consulted the fleet shared store."""

    key: str  # content hash of (source, cold-relevant options)
    hit: bool  # adopted a donated entry vs. computed and donated
    shared_fragments: int  # encoder CNF fragments visible after attach


@dataclass(frozen=True)
class SnapshotRestored(Event):
    """An engine rebuilt its warm state from a snapshot blob."""

    memo_entries: int  # substitution memo entries restored
    learned_clauses: int  # session clause-database size restored
    witness_records: int  # gate witness fingerprints restored
    replayed_roots: int  # encoder roots replayed (0 = attached shared)


@dataclass(frozen=True)
class FleetSwitchReplayed(Event):
    """One switch finished consuming one churn burst in a fleet replay."""

    switch: int
    burst_id: int
    update_count: int
    recompiled: bool
    elapsed_ms: float


class EventBus:
    """A synchronous fan-out bus for engine events."""

    def __init__(self) -> None:
        self._subscribers: list[Callable[[Event], None]] = []

    @property
    def active(self) -> bool:
        """True when at least one subscriber listens (guard for hot paths)."""
        return bool(self._subscribers)

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        self._subscribers.remove(callback)

    def emit(self, event: Event) -> None:
        for callback in self._subscribers:
            callback(event)

    def attach_log(self) -> "EventLog":
        """Subscribe and return a fresh :class:`EventLog`."""
        log = EventLog()
        self.subscribe(log)
        return log


class EventLog:
    """A recording subscriber: keeps every event, queryable by type."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def of_type(self, event_type: Type[Event]) -> list[Event]:
        return [e for e in self.events if isinstance(e, event_type)]

    def count(self, event_type: Type[Event]) -> int:
        return sum(1 for e in self.events if isinstance(e, event_type))

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def clear(self) -> None:
        self.events.clear()

    def summary(self) -> str:
        """One line per event type with its count, for the CLI."""
        counts: dict[str, int] = {}
        for event in self.events:
            name = type(event).__name__
            counts[name] = counts.get(name, 0) + 1
        if not counts:
            return "no events"
        return ", ".join(f"{name}: {n}" for name, n in sorted(counts.items()))
