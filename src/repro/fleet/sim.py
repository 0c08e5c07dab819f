"""The discrete-event fleet replay harness.

``FleetSimulator`` drives N simulated switches — one
:class:`~repro.engine.engine.Engine` each, all running the same program
with divergent table configurations — through a cross-switch correlated
churn trace (:func:`repro.runtime.trace.fleet_trace`).  Every burst
arrival becomes one ``apply_batch`` call on the owning switch's engine;
with a :class:`~repro.fleet.store.SharedStore` attached, switches 2..N
adopt the first switch's cold artifacts and term-pure warm caches
instead of recomputing them.

Everything is deterministic by construction: the trace is seeded and
platform-stable, per-switch workloads come from per-switch seeded
:class:`~repro.runtime.fuzzer.EntryFuzzer` streams, and the event loop
is single-threaded — so two simulators built from the same arguments
(one shared, one isolated) replay byte-identical per-switch update
sequences, which is what makes the shared-store differential
meaningful.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.context import EngineOptions
from repro.engine.engine import Engine
from repro.engine.events import EventBus, FleetSwitchReplayed
from repro.engine.registry import ContextRegistry
from repro.fleet.store import SharedStore
from repro.p4.printer import print_program
from repro.runtime.fuzzer import EntryFuzzer
from repro.runtime.trace import fleet_trace


@dataclass
class SwitchResult:
    """One switch's observable outcome of a fleet replay."""

    switch: int
    #: ``(target, table, update)`` per lowered write, submission order —
    #: the byte-comparable trace the differential suite checks.
    lowered: list
    specialized_source: str
    burst_latencies_ms: list
    recompilations: int
    updates: int
    bursts: int


@dataclass
class FleetReport:
    """Fleet-wide outcome: per-switch results plus sharing telemetry."""

    switches: list
    shared: bool
    events: int
    bursts: int
    store_entries: int = 0
    store_hits: int = 0
    store_donations: int = 0
    summary: dict = field(default_factory=dict)

    def latency_quantile(self, quantile: float) -> float:
        """Cross-switch per-burst latency percentile, in ms."""
        latencies = sorted(
            ms for result in self.switches for ms in result.burst_latencies_ms
        )
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, int(quantile * len(latencies)))
        return latencies[index]

    def lowered_traces(self) -> dict:
        return {result.switch: result.lowered for result in self.switches}

    def specialized_sources(self) -> dict:
        return {result.switch: result.specialized_source for result in self.switches}


class FleetSimulator:
    """N engines, one correlated trace, optional shared store."""

    def __init__(
        self,
        source: str,
        switches: int = 8,
        options: Optional[EngineOptions] = None,
        shared_store: bool = True,
        seed: int = 0,
        duration: float = 120.0,
        mean_interval: float = 10.0,
        correlation: float = 0.7,
        updates_per_burst: int = 6,
        divergent_prefix: int = 10,
        workers: int = 1,
        bus: Optional[EventBus] = None,
    ) -> None:
        if switches <= 0:
            raise ValueError("fleet needs at least one switch")
        self.source = source
        self.options = options if options is not None else EngineOptions()
        self.switches = switches
        self.seed = seed
        self.updates_per_burst = updates_per_burst
        self.workers = workers
        self.store = SharedStore() if shared_store else None
        self.bus = bus if bus is not None else EventBus()
        self.registry = ContextRegistry()
        self.trace = fleet_trace(
            switches,
            duration=duration,
            mean_interval=mean_interval,
            correlation=correlation,
            seed=seed,
        )
        self.engines: list[Engine] = []
        self._burst_fuzzers: list[EntryFuzzer] = []
        self._latencies: list[list] = [[] for _ in range(switches)]
        self._updates: list[int] = [0] * switches
        self._bursts: list[int] = [0] * switches
        self._ran = False
        for switch in range(switches):
            engine = Engine(
                source=source, options=self.options, store=self.store, bus=self.bus
            )
            self.engines.append(engine)
            self.registry.register(f"switch-{switch}", engine)
        # Divergent per-switch configurations: each switch pre-applies a
        # different-length seeded mixed stream, so no two control planes
        # (and no two sets of warm queries) are identical.
        model = self.engines[0].model
        for switch, engine in enumerate(self.engines):
            fuzzer = EntryFuzzer(model, seed=self._switch_seed(switch, 1))
            prefix = fuzzer.update_stream(count=divergent_prefix + switch)
            if prefix:
                engine.apply_batch(prefix, workers=workers)
            self._updates[switch] += len(prefix)
            self._burst_fuzzers.append(
                EntryFuzzer(model, seed=self._switch_seed(switch, 2))
            )

    def _switch_seed(self, switch: int, stream: int) -> int:
        # Plain integer arithmetic: int seeds are platform-stable under
        # random.Random, unlike tuple hashes (see runtime.trace._rng).
        return (self.seed * 1_000_003 + stream * 7_919 + switch) & 0x7FFFFFFF

    # -- the event loop --------------------------------------------------------

    def run(self) -> FleetReport:
        """Consume the whole trace, in time order; one batch per arrival."""
        if self._ran:
            raise RuntimeError("a FleetSimulator replays its trace once")
        self._ran = True
        for event in self.trace:
            switch = event.switch
            engine = self.engines[switch]
            updates = self._burst_fuzzers[switch].update_stream(
                count=self.updates_per_burst
            )
            start = time.perf_counter()
            report = engine.apply_batch(updates, workers=self.workers)
            elapsed_ms = (time.perf_counter() - start) * 1000
            self._latencies[switch].append(elapsed_ms)
            self._updates[switch] += len(updates)
            self._bursts[switch] += 1
            if self.bus.active:
                self.bus.emit(
                    FleetSwitchReplayed(
                        switch=switch,
                        burst_id=event.burst_id,
                        update_count=len(updates),
                        recompiled=report.recompiled,
                        elapsed_ms=elapsed_ms,
                    )
                )
        return self.report()

    # -- results ---------------------------------------------------------------

    def report(self) -> FleetReport:
        results = [
            SwitchResult(
                switch=switch,
                lowered=[
                    (l.target, l.table, l.update)
                    for l in engine.lowered_updates
                ],
                specialized_source=print_program(engine.specialized_program),
                burst_latencies_ms=list(self._latencies[switch]),
                recompilations=engine.recompilations,
                updates=self._updates[switch],
                bursts=self._bursts[switch],
            )
            for switch, engine in enumerate(self.engines)
        ]
        return FleetReport(
            switches=results,
            shared=self.store is not None,
            events=len(self.trace),
            bursts=sum(self._bursts),
            store_entries=len(self.store) if self.store is not None else 0,
            store_hits=self.store.hits if self.store is not None else 0,
            store_donations=self.store.donations if self.store is not None else 0,
            summary=self.registry.summary(),
        )

    # -- snapshot / restore ----------------------------------------------------

    def save_snapshots(self, directory: str) -> list[str]:
        """Write every switch's warm state under ``directory``.

        One pickle per switch plus a JSON manifest; restore any of them
        with :meth:`restore_switch` for instant failover or migration.
        """
        os.makedirs(directory, exist_ok=True)
        paths: list[str] = []
        for switch, engine in enumerate(self.engines):
            path = os.path.join(directory, f"switch-{switch}.snapshot.pkl")
            with open(path, "wb") as handle:
                pickle.dump(
                    engine.snapshot(), handle, protocol=pickle.HIGHEST_PROTOCOL
                )
            paths.append(path)
        manifest = {
            "format": 1,
            "switches": self.switches,
            "seed": self.seed,
            "store_key": (
                SharedStore.key_for(self.source, self.options)
            ),
            "snapshots": [os.path.basename(path) for path in paths],
        }
        with open(os.path.join(directory, "manifest.json"), "w") as handle:
            json.dump(manifest, handle, indent=2)
        return paths

    @staticmethod
    def restore_switch(path: str, store=None, bus=None) -> Engine:
        """Rebuild one switch's engine from a snapshot file."""
        with open(path, "rb") as handle:
            blob = pickle.load(handle)
        return Engine.restore(blob, store=store, bus=bus)

    def replace_switch(self, switch: int, engine: Engine) -> None:
        """Swap a switch's engine (restored replica takes over the shard)."""
        self.engines[switch] = engine
        self.registry.replace(f"switch-{switch}", engine)


__all__ = [
    "FleetReport",
    "FleetSimulator",
    "SwitchResult",
]
