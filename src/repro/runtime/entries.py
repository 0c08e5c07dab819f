"""Control-plane table entries and match kinds (P4Runtime-style)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.analysis.model import TableInfo
from repro.errors import FlayError, STAGE_RUNTIME


class EntryError(FlayError, ValueError):
    """An entry is malformed or incompatible with its table."""

    default_stage = STAGE_RUNTIME


@dataclass(frozen=True)
class ExactMatch:
    value: int

    def key(self):
        return ("exact", self.value)


@dataclass(frozen=True)
class TernaryMatch:
    value: int
    mask: int

    def key(self):
        return ("ternary", self.value & self.mask, self.mask)

    def is_full_mask(self, width: int) -> bool:
        return self.mask == (1 << width) - 1

    def is_empty_mask(self) -> bool:
        return self.mask == 0


@dataclass(frozen=True)
class LpmMatch:
    value: int
    prefix_len: int

    def mask(self, width: int) -> int:
        if self.prefix_len == 0:
            return 0
        return ((1 << self.prefix_len) - 1) << (width - self.prefix_len)

    def key(self):
        return ("lpm", self.value, self.prefix_len)


Match = Union[ExactMatch, TernaryMatch, LpmMatch]


def as_value_mask(match: Match, width: int) -> tuple[int, int]:
    """View any match as a (value, mask) pair at the given key width."""
    full = (1 << width) - 1
    if isinstance(match, ExactMatch):
        return match.value & full, full
    if isinstance(match, TernaryMatch):
        return match.value & full, match.mask & full
    if isinstance(match, LpmMatch):
        mask = match.mask(width)
        return match.value & mask, mask
    raise EntryError(f"unknown match type {match!r}")


def match_covers(outer: Match, inner: Match, width: int) -> bool:
    """Does ``outer`` match every key ``inner`` matches?

    Used for the eclipse rule: a lower-priority entry fully covered by a
    higher-priority one can never fire and is omitted from the assignment
    set (§4.1 "Control-plane assignments").
    """
    outer_value, outer_mask = as_value_mask(outer, width)
    inner_value, inner_mask = as_value_mask(inner, width)
    if outer_mask & ~inner_mask:
        return False  # outer cares about a bit inner leaves free
    return (outer_value & outer_mask) == (inner_value & outer_mask)


def match_hits(match: Match, key_value: int, width: int) -> bool:
    """Concrete lookup: does ``key_value`` satisfy this match?"""
    value, mask = as_value_mask(match, width)
    return (key_value & mask) == (value & mask)


@dataclass(frozen=True)
class TableEntry:
    """One installed entry: match per key, the action to run, its data."""

    matches: tuple  # of Match, one per table key
    action: str
    args: tuple = ()  # action data, one int per action parameter
    priority: int = 0  # higher wins (ternary tables)

    def match_key(self):
        """The identity of this entry for insert/modify/delete purposes.

        P4Runtime keys entries by their match fields (and priority for
        ternary); the action is payload.
        """
        return (tuple(m.key() for m in self.matches), self.priority)


#: Match kinds an exact match may target (a full-width ternary or lpm).
_EXACT_KINDS = frozenset(("exact", "ternary", "lpm"))


class EntrySchema:
    """One table's entry schema, compiled from its :class:`TableInfo` once.

    ``keys`` holds, per table key, its value limit (``1 << width``), its
    width, its match kind and whether an exact match may target it;
    ``actions`` maps each action to its ``(name, width, limit)`` per
    parameter.  :func:`validate_entry` reads nothing else, so a check is
    one pass over the entry's matches and arguments.
    """

    __slots__ = ("table", "keys", "actions")

    def __init__(self, info: TableInfo) -> None:
        self.table = info.name
        self.keys = tuple(
            (1 << key.width, key.width, key.match_kind, key.match_kind in _EXACT_KINDS)
            for key in info.keys
        )
        self.actions = {
            action: tuple(
                (param.name, param.width, 1 << param.width)
                for param in info.action_params.get(action, [])
            )
            for action in info.action_codes
        }


def validate_entry(
    info: TableInfo, entry: TableEntry, schema: Optional[EntrySchema] = None
) -> None:
    """Check an entry against the table's schema; raises :class:`EntryError`.

    ``schema`` is the table's compiled :class:`EntrySchema` (compiled from
    ``info`` here when omitted).
    """
    if schema is None:
        schema = EntrySchema(info)
    keys = schema.keys
    matches = entry.matches
    if len(matches) != len(keys):
        raise EntryError(
            f"table {schema.table} has {len(keys)} keys, entry has {len(matches)}"
        )
    ternary = False
    for match, (limit, width, kind, exact_ok) in zip(matches, keys):
        if isinstance(match, ExactMatch):
            if not exact_ok:
                raise EntryError(f"exact match on {kind} key")
            if not 0 <= match.value < limit:
                raise EntryError(f"value {match.value:#x} out of range for {width} bits")
        elif isinstance(match, TernaryMatch):
            if kind != "ternary":
                raise EntryError(f"ternary match on {kind} key")
            if not 0 <= match.value < limit or not 0 <= match.mask < limit:
                raise EntryError("ternary value/mask out of range")
            ternary = True
        elif isinstance(match, LpmMatch):
            if kind != "lpm":
                raise EntryError(f"lpm match on {kind} key")
            if not 0 <= match.prefix_len <= width:
                raise EntryError(f"prefix length {match.prefix_len} out of range")
            if not 0 <= match.value < limit:
                raise EntryError("lpm value out of range")
        else:
            raise EntryError(f"unknown match type {match!r}")
    params = schema.actions.get(entry.action)
    if params is None:
        raise EntryError(f"table {schema.table} has no action {entry.action!r}")
    args = entry.args
    if len(args) != len(params):
        raise EntryError(
            f"action {entry.action!r} takes {len(params)} args, got {len(args)}"
        )
    for value, (name, width, limit) in zip(args, params):
        if not 0 <= value < limit:
            raise EntryError(f"arg {name}={value:#x} out of range for {width} bits")
    if ternary and entry.priority < 0:
        raise EntryError("ternary entries need a non-negative priority")
