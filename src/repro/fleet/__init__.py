"""Fleet-scale replay: many simulated switches over one shared store.

The paper's premise is that control-plane churn arrives continuously at
*every* switch in a network; this package replays that setting.  A
:class:`~repro.fleet.sim.FleetSimulator` drives N engines through a
correlated churn trace (:func:`repro.runtime.trace.fleet_trace`), a
:class:`~repro.fleet.store.SharedStore` deduplicates the cold artifacts
and term-pure warm memos switches running the same program would
otherwise each rebuild, and warm-state snapshots
(:mod:`repro.engine.snapshot`) move a switch's accumulated knowledge to
disk and back for failover and shard migration.
"""

from repro.fleet.sim import FleetReport, FleetSimulator, SwitchResult
from repro.fleet.store import SharedStore, StoreEntry

__all__ = [
    "FleetReport",
    "FleetSimulator",
    "SharedStore",
    "StoreEntry",
    "SwitchResult",
]
