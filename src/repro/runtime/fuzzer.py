"""Control-plane configuration fuzzer (the paper's ControlPlaneSmith role).

Generates valid, unique table entries for any table in a data-plane model —
used by the burst experiments (§4.2: "We use a fuzzer to generate 1000
unique IPv4 entries") and by the property tests as a workload source.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.analysis.model import DataPlaneModel, TableInfo
from repro.runtime.entries import ExactMatch, LpmMatch, TableEntry, TernaryMatch
from repro.runtime.semantics import DELETE, INSERT, MODIFY, Update


class EntryFuzzer:
    """Seeded generator of valid entries for the tables of one model."""

    def __init__(self, model: DataPlaneModel, seed: int = 0) -> None:
        self.model = model
        self.rng = random.Random(seed)

    def entry(
        self,
        table: str,
        action: Optional[str] = None,
        priority: Optional[int] = None,
    ) -> TableEntry:
        """One random valid entry for ``table``."""
        info = self.model.table(table)
        matches = tuple(self._match(key.match_kind, key.width) for key in info.keys)
        if action is None:
            choices = info.action_order or [info.default_action]
            action = self.rng.choice(choices)
        params = info.action_params.get(action, [])
        args = tuple(self.rng.randrange(1 << p.width) for p in params)
        if priority is None:
            needs_priority = any(isinstance(m, TernaryMatch) for m in matches)
            priority = self.rng.randrange(1, 1 << 16) if needs_priority else 0
        return TableEntry(matches, action, args, priority)

    def unique_entries(
        self, table: str, count: int, action: Optional[str] = None
    ) -> list[TableEntry]:
        """``count`` entries with pairwise-distinct match keys."""
        seen: set = set()
        entries: list[TableEntry] = []
        attempts = 0
        while len(entries) < count:
            attempts += 1
            if attempts > count * 100:
                raise RuntimeError(
                    f"could not generate {count} unique entries for {table}"
                )
            entry = self.entry(table, action=action)
            key = entry.match_key()
            if key in seen:
                continue
            seen.add(key)
            entries.append(entry)
        return entries

    def representative_updates(
        self, table: str, per_action: int = 2
    ) -> list[Update]:
        """INSERT updates exercising *every* action of the table.

        This is the shape of a real deployment config: all of a table's
        actions appear in some entry, so the specializer keeps the table
        general (no action can be dead-code-eliminated away).
        """
        info = self.model.table(table)
        updates: list[Update] = []
        seen: set = set()
        actions = info.action_order or [info.default_action]
        for action in actions:
            produced = 0
            attempts = 0
            while produced < per_action:
                attempts += 1
                if attempts > per_action * 200:
                    raise RuntimeError(
                        f"could not generate entries for {table}/{action}"
                    )
                entry = self.entry(table, action=action)
                key = entry.match_key()
                if key in seen:
                    continue
                seen.add(key)
                updates.append(Update(info.name, INSERT, entry))
                produced += 1
        return updates

    def insert_burst(
        self, table: str, count: int, action: Optional[str] = None
    ) -> list[Update]:
        """A burst of unique INSERT updates, the §4.2 workload shape."""
        info = self.model.table(table)
        return [
            Update(info.name, INSERT, entry)
            for entry in self.unique_entries(table, count, action=action)
        ]

    def update_stream(
        self,
        tables: Optional[list[str]] = None,
        count: int = 50,
        modify_fraction: float = 0.2,
        delete_fraction: float = 0.2,
    ) -> list[Update]:
        """A mixed insert/modify/delete stream, valid against evolving state.

        Tracks the entries it has inserted per table so that every MODIFY
        and DELETE targets a live match key — the stream can be replayed
        against a fresh :class:`ControlPlaneState` without ``EntryError``.
        Used by the engine equivalence fuzz tests as a realistic workload.

        Liveness is tracked per *canonical* table: a table requested under
        both its local and qualified name used to get two independent live
        maps, so a skewed modify/delete mix could revisit a match key the
        other alias had already inserted (or deleted) and emit an invalid
        update.  Fractions are clamped to [0, 1] and normalized when their
        sum exceeds 1, so a skewed mix biases the stream instead of
        silently starving one operation kind.
        """
        if tables is not None:
            names: list[str] = []
            for requested in tables:
                canonical = self.model.table(requested).name
                if canonical not in names:
                    names.append(canonical)
        else:
            names = sorted(self.model.tables)
        if not names:
            return []
        modify_fraction = min(max(modify_fraction, 0.0), 1.0)
        delete_fraction = min(max(delete_fraction, 0.0), 1.0)
        total = modify_fraction + delete_fraction
        if total > 1.0:
            modify_fraction /= total
            delete_fraction /= total
        live: dict[str, dict] = {name: {} for name in names}
        updates: list[Update] = []
        while len(updates) < count:
            table = self.rng.choice(names)
            info = self.model.table(table)
            installed = live[table]
            roll = self.rng.random()
            if installed and roll < delete_fraction:
                key = self.rng.choice(sorted(installed))
                updates.append(Update(info.name, DELETE, installed.pop(key)))
            elif installed and roll < delete_fraction + modify_fraction:
                key = self.rng.choice(sorted(installed))
                old = installed[key]
                replacement = self.entry(table, priority=old.priority)
                replacement = TableEntry(
                    old.matches, replacement.action, replacement.args, old.priority
                )
                installed[key] = replacement
                updates.append(Update(info.name, MODIFY, replacement))
            else:
                entry = self.entry(table)
                key = entry.match_key()
                if key in installed:
                    continue
                installed[key] = entry
                updates.append(Update(info.name, INSERT, entry))
        return updates

    def rollout_stream(self, rollouts: int) -> list[Update]:
        """Policy roll-outs from an empty config: per roll-out the first
        entry per (table, action) of every table in shuffled order, then a
        DELETE of each in shuffled order, back to empty."""
        updates: list[Update] = []
        for _ in range(rollouts):
            inserts = [
                update
                for table in sorted(self.model.tables)
                for update in self.representative_updates(table, per_action=1)
            ]
            self.rng.shuffle(inserts)
            deletes = [Update(u.table, DELETE, u.entry) for u in inserts]
            self.rng.shuffle(deletes)
            updates += inserts + deletes
        return updates

    # -- match generators ----------------------------------------------------

    def _match(self, kind: str, width: int):
        if kind == "exact":
            return ExactMatch(self.rng.randrange(1 << width))
        if kind == "lpm":
            prefix_len = self.rng.randint(1, width)
            value = self.rng.randrange(1 << width)
            mask = ((1 << prefix_len) - 1) << (width - prefix_len)
            return LpmMatch(value & mask, prefix_len)
        if kind == "ternary":
            value = self.rng.randrange(1 << width)
            # Bias towards structured masks (prefix-like), like real ACLs.
            style = self.rng.random()
            if style < 0.4:
                mask = (1 << width) - 1  # exact-as-ternary
            elif style < 0.8:
                prefix_len = self.rng.randint(1, width)
                mask = ((1 << prefix_len) - 1) << (width - prefix_len)
            else:
                mask = self.rng.randrange(1 << width)
            return TernaryMatch(value & mask, mask)
        raise ValueError(f"unknown match kind {kind!r}")


def ipv4_route_entries(
    model: DataPlaneModel,
    table: str,
    count: int,
    action: str,
    seed: int = 0,
) -> Iterator[TableEntry]:
    """Realistic-looking unique IPv4 LPM routes (24-ish bit prefixes)."""
    rng = random.Random(seed)
    info = model.table(table)
    seen: set = set()
    produced = 0
    while produced < count:
        prefix_len = rng.choice([8, 16, 20, 22, 24, 24, 24, 28, 32])
        value = rng.randrange(1 << 32)
        mask = ((1 << prefix_len) - 1) << (32 - prefix_len)
        matches = []
        for key in info.keys:
            if key.match_kind == "lpm" and key.width == 32:
                matches.append(LpmMatch(value & mask, prefix_len))
            elif key.match_kind == "exact":
                matches.append(ExactMatch(rng.randrange(1 << key.width)))
            else:
                matches.append(TernaryMatch(0, 0))
        params = info.action_params.get(action, [])
        args = tuple(rng.randrange(1 << p.width) for p in params)
        entry = TableEntry(tuple(matches), action, args)
        key_id = entry.match_key()
        if key_id in seen:
            continue
        seen.add(key_id)
        produced += 1
        yield entry
