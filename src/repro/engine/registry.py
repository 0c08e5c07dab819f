"""A registry of live engine contexts: the fleet's switch roster.

One engine per simulated switch is the fleet harness's working set; the
registry gives that set a name-addressable surface (telemetry, snapshot
targeting, failover) without the simulator reaching into engine
internals.  Deliberately dumb: registration order is preserved, names
are unique, and the only aggregate it computes is the cross-switch
telemetry summary the CLI prints.
"""

from __future__ import annotations

from typing import Iterator, Optional


class ContextRegistry:
    """Named :class:`~repro.engine.engine.Engine` instances, in order."""

    def __init__(self) -> None:
        self._engines: dict[str, object] = {}

    def register(self, name: str, engine) -> None:
        if name in self._engines:
            raise ValueError(f"engine {name!r} is already registered")
        self._engines[name] = engine

    def unregister(self, name: str) -> None:
        """Drop one engine (shard migration / failover replacement)."""
        del self._engines[name]

    def replace(self, name: str, engine) -> None:
        """Swap the engine behind a name (restore-from-snapshot failover)."""
        if name not in self._engines:
            raise KeyError(f"engine {name!r} is not registered")
        self._engines[name] = engine

    def get(self, name: str) -> Optional[object]:
        return self._engines.get(name)

    def names(self) -> list[str]:
        return list(self._engines)

    def __len__(self) -> int:
        return len(self._engines)

    def __contains__(self, name: str) -> bool:
        return name in self._engines

    def __iter__(self) -> Iterator[tuple[str, object]]:
        return iter(self._engines.items())

    # -- aggregate telemetry ---------------------------------------------------

    def summary(self) -> dict:
        """Cross-switch roll-up of the per-engine decision totals."""
        contexts = [e.ctx for e in self._engines.values()]
        decisions = sum(ctx.decisions for ctx in contexts)
        recompiled = sum(ctx.recompilations for ctx in contexts)
        total_ms = sum(ctx.decision_ms for ctx in contexts)
        return {
            "switches": len(contexts),
            "forwarded": decisions - recompiled,
            "recompilations": recompiled,
            "updates": decisions,
            "mean_update_ms": total_ms / decisions if decisions else 0.0,
        }


__all__ = ["ContextRegistry"]
