"""Symbolic store: dotted field path → term, with ite-based state merging.

Merging simplifies each merged ``ite`` through the executor's run-long
``simplify`` memo (see :func:`merge_stores`), so the cold analysis walks
each subterm once, not once per join above it.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.smt import simplify, terms as T
from repro.smt.terms import Term


class SymbolicStore:
    """Maps every live field path to its current symbolic value.

    Values are bitvector terms for fields and boolean terms for validity
    bits / the drop flag.  Stores are cheap to fork (terms are immutable,
    the dict is copied shallowly) and merge with per-path ``ite``.
    """

    def __init__(self, values: Optional[dict[str, Term]] = None) -> None:
        self._values: dict[str, Term] = dict(values) if values else {}

    def read(self, path: str) -> Term:
        try:
            return self._values[path]
        except KeyError:
            raise KeyError(f"no value for path {path!r} in store") from None

    def write(self, path: str, value: Term) -> None:
        self._values[path] = value

    def has(self, path: str) -> bool:
        return path in self._values

    def paths(self) -> Iterator[str]:
        return iter(self._values)

    def items(self) -> Iterator[tuple[str, Term]]:
        return iter(self._values.items())

    def fork(self) -> "SymbolicStore":
        return SymbolicStore(self._values)

    def snapshot(self) -> dict[str, Term]:
        return dict(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"SymbolicStore({len(self._values)} paths)"


def merge_stores(
    cond: Term,
    then_store: SymbolicStore,
    else_store: SymbolicStore,
    memo: Optional[dict[int, Term]] = None,
) -> SymbolicStore:
    """State merging (the paper's §4.1): per-path ``ite(cond, then, else)``.

    Paths present in only one branch keep that branch's value — this only
    arises for locals declared inside a branch, which are dead after the
    join anyway.

    ``memo`` is the caller's ``simplify`` memo.  An executor passes the one
    it keeps for its run, so the sub-DAGs an earlier join already
    simplified are not walked again at this one; without it each ``ite``
    is simplified under a fresh memo.  ``simplify`` maps an interned term
    to a result that depends on that term alone, so both give the
    identical objects.
    """
    merged = SymbolicStore()
    then_values = then_store._values
    else_values = else_store._values
    for path, then_value in then_values.items():
        else_value = else_values.get(path)
        if else_value is None or then_value is else_value:
            merged.write(path, then_value)
        else:
            merged.write(path, simplify(T.ite(cond, then_value, else_value), memo))
    for path, else_value in else_values.items():
        if path not in then_values:
            merged.write(path, else_value)
    return merged
