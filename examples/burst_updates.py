#!/usr/bin/env python3
"""Control-plane churn at realistic rates (Fig. 1) against the middleblock.

Generates an hour-long synthetic control-plane trace — occasional policy
changes, routing updates arriving in bursts of hundreds — and replays it
through Flay's incremental runtime, reporting how many updates were
forwarded untouched vs how many forced a recompile, and how the
overapproximation threshold keeps the big ACL cheap.

Run:  python examples/burst_updates.py
"""

from collections import Counter

from repro.core import Flay, FlayOptions
from repro.programs import middleblock, registry
from repro.runtime import EntryFuzzer
from repro.runtime.trace import ROUTE_CHANGE, control_plane_trace


def banner(title: str) -> None:
    print()
    print("#" * 70)
    print(f"# {title}")
    print("#" * 70)


def main() -> None:
    banner("Loading Google's middleblock model")
    flay = Flay.from_source(
        registry.get("middleblock").source(), FlayOptions(target="bmv2")
    )
    print(f"{flay.model.point_count} program points, "
          f"{len(flay.model.tables)} tables")

    # Baseline config: routes + ACL entries exercising every action.
    fuzzer = EntryFuzzer(flay.model, seed=17)
    config = []
    for table in (
        "MiddleblockIngress.ipv4_route",
        "MiddleblockIngress.acl_ingress",
        middleblock.PRE_INGRESS_ACL,
    ):
        config.extend(fuzzer.representative_updates(table))
    flay.decide(config)
    print(f"baseline config installed "
          f"({flay.runtime.state.update_count} entries)")

    banner("Replaying one hour of synthetic control-plane activity")
    events = control_plane_trace(duration=3600.0, route_burst_size=120, seed=3)
    by_kind = Counter(e.kind for e in events)
    print({kind: count for kind, count in by_kind.items()})

    # Group routing events into their bursts (the realistic arrival unit).
    bursts: dict[tuple, list] = {}
    for event in events:
        if event.kind == ROUTE_CHANGE:
            bursts.setdefault(event.burst_id, []).append(event)

    route_updates = iter(
        fuzzer.insert_burst("MiddleblockIngress.ipv4_route", sum(by_kind.values()))
    )

    total_ms = 0.0
    recompiles = 0
    forwarded = 0
    for burst_id, burst_events in sorted(bursts.items()):
        batch = [next(route_updates) for _ in burst_events]
        decision = flay.decide(batch)
        total_ms += decision.elapsed_ms
        if decision.recompiled:
            recompiles += 1
        else:
            forwarded += len(batch)

    banner("Results")
    print(f"route bursts replayed:   {len(bursts)}")
    print(f"updates forwarded:       {forwarded}")
    print(f"bursts forcing recompile: {recompiles}")
    print(f"total decision time:     {total_ms:.0f} ms for "
          f"{sum(len(b) for b in bursts.values())} updates")
    print(f"mean batch decision:     {total_ms / max(1, len(bursts)):.1f} ms")
    print()
    print("The big routing table crosses the overapproximation threshold")
    print("early; from then on, bursts cost well under a millisecond per")
    print("update — the shim never becomes the controller-device bottleneck.")


if __name__ == "__main__":
    main()
