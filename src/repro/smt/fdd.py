"""First-match lookups over a table's packed ``(value, mask)`` rows.

This module used to build a forwarding decision diagram per table.  It
no longer does: nothing in the engine composes match functions, and the
verdict gate asks exactly one question of a table — *which entry wins at
this concrete key point?* — against at most ``overapprox_threshold``
active entries.  That is the definitional table semantics: scan in
precedence order, the first row with ``point & mask == value`` wins.

A table's whole key is **one integer**, the keys concatenated at fixed
bit offsets.  The :class:`~repro.runtime.semantics.TableState` owns that
format: it packs an entry once, when it is installed, into one
``(value, mask)`` pair over the integer (and runs the eclipse rule on
the pair), and packs a witness key point once, when its record is
stored.  A lookup is then one AND and one compare per active row, exact
for any mask — a ternary mask with interleaved free bits costs what a
prefix does.

:class:`TableFdd` holds the rows of one table, derived *lazily*: the
table's content revision is compared on lookup and the rows re-derived
from the eclipse-elided active list only when it moved, so a table that
is never looked up (an overapproximated one) never pays for a re-pack.

The module path, the class name and :meth:`TableFdd.rebuild` are pinned
by ``benchmarks/e2e``'s tracer (``smt.fdd_rebuild_ms`` times the lazy
re-pack); renaming them is ROADMAP item 1(b)'s.
"""

from __future__ import annotations

#: The decision where no row matches.  Decisions are plain
#: ``(action, args)`` tuples — compared by value, picklable as they are.
MISS = (None, ())


class TableFdd:
    """One table's active rows in precedence order, for point lookups."""

    def __init__(self) -> None:
        # (table revision the rows were derived at, [(value, mask,
        # decision)]).  One tuple so that a lazy re-pack on a batch
        # worker thread publishes rows and revision in one assignment.
        self._packed: tuple = (0, [])
        #: Lazy re-packs performed (surfaced through GateStats).
        self.rebuilds = 0

    def rebuild(self, active_rows: list) -> list:
        """The lookup rows for an eclipse-elided active list."""
        self.rebuilds += 1
        return [
            (value, mask, (entry.action, entry.args))
            for entry, value, mask in active_rows
        ]

    def lookup(self, point: int, state) -> tuple:
        """The winning ``(action, args)`` at one packed key point, or MISS.

        ``state`` is the owning
        :class:`~repro.runtime.semantics.TableState`; its revision says
        whether the rows are current.
        """
        revision, rows = self._packed
        current = state.revision()
        if revision != current:
            # Table state only changes between batches, never under a
            # worker, so the rows derived here belong to ``current``.
            rows = self.rebuild(state.active_rows())
            self._packed = (current, rows)
        for value, mask, decision in rows:
            if point & mask == value:
                return decision
        return MISS

    def row_count(self) -> int:
        """Rows currently retained (what the index costs in memory)."""
        return len(self._packed[1])


__all__ = ["MISS", "TableFdd"]
