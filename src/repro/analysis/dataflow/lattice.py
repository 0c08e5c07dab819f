"""Lattices and the generic worklist fixpoint for the dataflow framework.

The abstract-interpretation engine (:mod:`repro.analysis.dataflow.engine`)
is parameterized over these small algebraic pieces:

* :class:`Bool3` — the three-point boolean lattice used for header
  validity and reachability facts.
* :class:`IntervalLattice` — unsigned value ranges, a thin join/widen
  layer over :mod:`repro.smt.interval`'s ``Interval`` arithmetic.
* :class:`TaintLattice` — label sets with union join; nothing in the
  package uses it.
* :func:`term_join` — the symbolic constant domain: abstract values are
  hash-consed *terms* (literal constants, the executor's own initial
  data symbols, or opaque placeholders), and the partial order is term
  identity.  This is the domain the prune pass runs in: every fact it
  derives is a fact the downstream simplifier derives on the same
  interned terms, which is what makes pruning output-preserving.
* :func:`fixpoint` — a worklist solver over an explicit flow graph,
  shared by the parser-state analysis and any future graph client.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Hashable, Iterable, Optional, TypeVar

from repro.smt import terms as T
from repro.smt.interval import Interval, eval_interval
from repro.smt.terms import Term


class Bool3(Enum):
    """Three-valued boolean: definitely false / definitely true / unknown."""

    FALSE = "false"
    TRUE = "true"
    UNKNOWN = "unknown"

    def join(self, other: "Bool3") -> "Bool3":
        if self is other:
            return self
        return Bool3.UNKNOWN

    def negate(self) -> "Bool3":
        if self is Bool3.TRUE:
            return Bool3.FALSE
        if self is Bool3.FALSE:
            return Bool3.TRUE
        return Bool3.UNKNOWN

    @staticmethod
    def from_term(term: Term) -> "Bool3":
        """Abstract a boolean term: only literal constants are definite."""
        if term is T.TRUE:
            return Bool3.TRUE
        if term is T.FALSE:
            return Bool3.FALSE
        return Bool3.UNKNOWN


class IntervalLattice:
    """Join/top helpers over :class:`repro.smt.interval.Interval`."""

    @staticmethod
    def top(width: int) -> Interval:
        return Interval(0, (1 << width) - 1)

    @staticmethod
    def join(a: Interval, b: Interval) -> Interval:
        return Interval(min(a.lo, b.lo), max(a.hi, b.hi))

    @staticmethod
    def leq(a: Interval, b: Interval) -> bool:
        return a.lo >= b.lo and a.hi <= b.hi

    @staticmethod
    def of_term(term: Term, memo: Optional[dict[int, Interval]] = None) -> Interval:
        """Abstract a bit-vector term through the interval transfer functions."""
        return eval_interval(term, memo if memo is not None else {})


class TaintLattice:
    """Finite label sets ordered by inclusion; join is union."""

    BOTTOM: frozenset[str] = frozenset()

    @staticmethod
    def join(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        if not b:
            return a
        if not a:
            return b
        return a | b

    @staticmethod
    def leq(a: frozenset[str], b: frozenset[str]) -> bool:
        return a <= b


def term_join(a: Term, b: Term, fresh: Callable[[Term], Term]) -> Term:
    """Join in the symbolic constant domain.

    Identical (hash-consed) terms stay; anything else goes to an opaque
    placeholder supplied by ``fresh``.  Mirrors
    :func:`repro.analysis.state.merge_stores`' identity fast path, which
    is what keeps the abstract store in lockstep with the executor.
    """
    if a is b:
        return a
    return fresh(a)


N = TypeVar("N", bound=Hashable)
F = TypeVar("F")


def fixpoint(
    successors: Callable[[N], Iterable[N]],
    entry_facts: dict[N, F],
    transfer: Callable[[N, F], F],
    join_into: Callable[[N, F], bool],
    fact_at: Callable[[N], F],
) -> None:
    """Chaotic-iteration worklist solver over an explicit flow graph.

    Iteration starts from the ``entry_facts`` seeds and visits whatever
    ``successors`` reaches from there.  ``join_into(node, fact)`` merges
    ``fact`` into ``node``'s entry fact and returns True when the entry
    fact changed; ``fact_at`` reads the current entry fact.  Termination
    is the caller's lattice's business (the engine's placeholder
    stabilization bounds every chain).
    """
    worklist: list[N] = []
    seen: set[N] = set()
    for node, fact in entry_facts.items():
        join_into(node, fact)
        if node not in seen:
            seen.add(node)
            worklist.append(node)
    while worklist:
        node = worklist.pop()
        seen.discard(node)
        out = transfer(node, fact_at(node))
        for succ in successors(node):
            if join_into(succ, out) and succ not in seen:
                seen.add(succ)
                worklist.append(succ)
