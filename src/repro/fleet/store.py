"""The content-addressed shared store: one cold pipeline per program.

Switches in a fleet overwhelmingly run the *same* data-plane program
with *different* table configurations.  Everything the cold pipeline
computes from the program alone — the parsed/pruned AST, the type
environment, the data-plane model, and the initial (empty-config)
verdict sweep — is therefore identical across those switches, and so is
every warm cache that is a pure function of hash-consed terms: the
``shared`` rows of :data:`~repro.engine.context.WARM_STATE`.

The store keys entries by a content hash of the canonical program source
plus every verdict-relevant engine option (*not* the target backend,
which only affects lowering): two engines with the same key provably
compute the same cold artifacts, so the second one adopts the first
one's donation instead of recomputing.

Every other row is per switch and **never** shared, and so are all
stats/counters.  Sharing is sound under serialized access — the
fleet simulator is a single-threaded discrete-event loop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.context import SHARED, warm_state

#: Option fields that change what the cold pipeline and the term-level
#: caches compute.  ``target`` is deliberately absent: lowering does not
#: touch terms or verdicts, so switches with different backends still
#: share one entry.
COLD_KEY_FIELDS = ("skip_parser", "overapprox_threshold", "effort")


@dataclass
class StoreEntry:
    """One program's shared cold artifacts and term-pure warm caches."""

    key: str
    # Cold artifacts (immutable after analysis).
    program: object
    env: object
    prune_report: object
    model: object
    # The donor's ``shared`` rows by row path (mutated in place by every
    # adopter).
    shared: dict
    # Initial (empty-config) sweep, so adopters skip the cold encode pass.
    initial: dict = field(default_factory=dict)
    adoptions: int = 0


class SharedStore:
    """Content-addressed map from (source, options) to a :class:`StoreEntry`."""

    def __init__(self) -> None:
        self._entries: dict[str, StoreEntry] = {}
        self.hits = 0
        self.misses = 0
        self.donations = 0

    @staticmethod
    def key_for(source: str, options) -> str:
        """Content hash of the program source and verdict-relevant options."""
        digest = hashlib.sha256()
        digest.update(source.encode())
        for name in COLD_KEY_FIELDS:
            digest.update(f"|{name}={getattr(options, name)!r}".encode())
        return digest.hexdigest()

    def get(self, source: str, options) -> Optional[StoreEntry]:
        """The entry for this (source, options), or None (no stats side effects)."""
        return self._entries.get(self.key_for(source, options))

    def lookup(self, source: str, options) -> Optional[StoreEntry]:
        """Stats-counting :meth:`get`, called once per engine construction."""
        entry = self.get(source, options)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            entry.adoptions += 1
        return entry

    def donate(self, ctx) -> StoreEntry:
        """Register a completed cold run's artifacts as the program's entry.

        The donor keeps using the now-shared memos.
        """
        key = self.key_for(ctx.source, ctx.options)
        if key in self._entries:
            return self._entries[key]
        entry = StoreEntry(
            key=key,
            program=ctx.program,
            env=ctx.env,
            prune_report=ctx.prune_report,
            model=ctx.model,
            shared={row.path: container for row, container in warm_state(ctx, SHARED)},
            initial={
                "mapping": dict(ctx.mapping),
                "table_assignments": dict(ctx.table_assignments),
                "point_verdicts": dict(ctx.point_verdicts),
                "table_verdicts": dict(ctx.table_verdicts),
            },
        )
        self._entries[key] = entry
        self.donations += 1
        return entry

    # -- observability ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def describe(self) -> str:
        return (
            f"store: {len(self._entries)} entries, {self.hits} hits, "
            f"{self.misses} misses, {self.donations} donations"
        )


__all__ = ["COLD_KEY_FIELDS", "SharedStore", "StoreEntry"]
