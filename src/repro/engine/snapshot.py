"""Warm-state snapshot/restore: an engine's accumulated knowledge, on disk.

A warm engine is expensive to recreate: beyond the cold pipeline it has
substitution memo entries, solver/executability memo hits, and gate
witness fingerprints — all paid for by processing real churn.
``snapshot_context`` captures that state as one picklable blob;
``apply_snapshot`` rebuilds it into a freshly-analyzed context (in
the same process or another one) so a failover replica or migrated
shard starts at warm-path latency instead of re-running the cold sweep.

**What rides.**  The snapshot knows no structure by name: it carries
every ``shared`` and ``carried`` row of
:data:`~repro.engine.context.WARM_STATE`, keyed by row path, through one
:meth:`~repro.smt.arena.TermArena.dumps`.  Terms refuse to pickle by
design; that pickler moves each one as an arena index and decodes it
through this process's default factory, so identity-keyed structures
line up with the restored engine's own hash-consed terms.  The control
plane is stored as live entries per table (replayed as INSERTs in
insertion order — ``TableState`` keeps only live entries, so this
reproduces the state exactly) plus value-set tuples.  Every ``rebuilt``
row is re-derived from those: assignments and the control mapping are
pure functions of (table info, state, threshold).

**Invalidation rules.** A blob is only valid against the identical
(source, verdict-relevant options) pair — ``Engine.restore`` re-runs the
front half of the cold pipeline from the blob's own copies of both, so
mismatch is impossible by construction rather than checked after the
fact.  Restoring against a shared store merges the blob's ``shared``
rows into the store's: both sides are pure functions of the term.
"""

from __future__ import annotations

from repro.engine.context import CARRIED, SHARED, warm_state
from repro.errors import FlayError
from repro.runtime.semantics import (
    INSERT,
    Update,
    ValueSetUpdate,
    encode_table,
    encode_value_set,
)
from repro.smt.arena import TermArena

#: 11: a precise table's symbols map to lookup nodes (terms of an
#: operator format 10 did not have, in the substitution memo and the
#: decided terms), and the gate's witness records ride under the row path
#: ``gate._records`` (10: ``gate._records.map``).
#: 10: no cold prune pass deletes constant ``if`` points, so switch and
#: dash carry two more points and every later pid is renumbered (a pid
#: carries a program-wide sequence number); a format-9 blob's pid-keyed
#: rows would name other points.
#: 9: the decision totals ride next to ``recompilations``.
#: 8: the warm rows ride in one term-aware pickle keyed by row path (7
#: carried one arena plus a per-structure export of each).
#: 7: the pickled options have four fields (6 carried three ablation
#: switches on top).
#: 6: no encoder root log and no solver session (5 carried both).
#: 5: the pickled options have seven fields (4 carried three ablation
#: switches on top).
#: 4: gate records exist for executability points only and the blob has
#: no ``hunt_failures`` (3 carried value-point records and hunt counters).
#: 3: the substitution memo holds simplified results (clean entries only)
#: and ``decided`` carries the term each point verdict was decided from.
#: 2: gate records carry packed key points and plain-value fingerprints
#: (1 carried key tuples and flattened diagram leaves).
SNAPSHOT_FORMAT = 11


class SnapshotFormatError(FlayError, ValueError):
    """A blob of another :data:`SNAPSHOT_FORMAT` than this engine's: its
    rows would be misread, so the restore refuses it."""


def snapshot_context(ctx) -> dict:
    """One picklable blob of the context's warm state."""
    if ctx.source is None:
        raise ValueError(
            "snapshot needs the engine's canonical source text "
            "(construct the engine with source=..., not a pre-parsed program)"
        )
    return {
        "format": SNAPSHOT_FORMAT,
        "source": ctx.source,
        "options": ctx.options,
        "tables": {
            name: state.entries()
            for name, state in ctx.state.tables.items()
            if len(state)
        },
        "value_sets": {
            name: values for name, values in ctx.state.value_sets.items() if values
        },
        "warm": TermArena.dumps(
            {row.path: container for row, container in warm_state(ctx, SHARED, CARRIED)}
        ),
        "recompilations": ctx.recompilations,
        "decisions": ctx.decisions,
        "decision_ms": ctx.decision_ms,
    }


def apply_snapshot(ctx, blob: dict) -> None:
    """Rebuild warm state into a freshly-analyzed context.

    Precondition: the cold front half (parse → analysis) has run, so
    ``ctx.model``/``ctx.state``/``ctx.query_engine`` exist with empty
    per-switch state.
    """
    if blob.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotFormatError(f"unsupported snapshot format: {blob.get('format')!r}")
    # 1. Replay the control plane (the gate's lookup rows follow each
    #    table's revision and re-pack on the first screen that asks).
    for name, entries in blob["tables"].items():
        for entry in entries:
            ctx.state.apply_update(Update(name, INSERT, entry))
    for name, values in blob["value_sets"].items():
        ctx.state.apply_value_set_update(ValueSetUpdate(name, tuple(values)))
    # 2. Re-derive assignments and the control mapping (pure encodings —
    #    identical hash-consed terms, so identity-keyed memos line up).
    for name, info in ctx.model.tables.items():
        assignment = encode_table(
            info, ctx.state.tables[name], ctx.options.overapprox_threshold
        )
        ctx.table_assignments[name] = assignment
        ctx.mapping.update(assignment.mapping)
    for name, info in ctx.model.value_sets.items():
        ctx.mapping.update(encode_value_set(info, ctx.state.value_sets[name]))
    # 3. The warm rows.  A carried row is installed wholesale; a shared one
    #    is unioned, never overwritten (a store-shared memo may already
    #    hold entries from sibling switches — both sides are pure functions
    #    of the term, so any merge order is correct).
    warm = TermArena.loads(blob["warm"])
    for row, container in warm_state(ctx, SHARED, CARRIED):
        if row.carry == CARRIED:
            container.clear()
            container.update(warm[row.path])
        else:
            for key, value in warm[row.path].items():
                container.setdefault(key, value)
    ctx.recompilations = blob["recompilations"]
    ctx.decisions = blob["decisions"]
    ctx.decision_ms = blob["decision_ms"]
    # 4. The substitution's parent edges and heights, from its memo keys.
    ctx.substitution.rederive_edges()
    # 5. Re-prime the table-verdict memo.  The memo itself cannot ride in
    #    the blob (its keys embed term identities), but the re-derived
    #    assignments are identical hash-consed terms to what the warm path
    #    will look up, so one uncached pass here rebuilds every entry the
    #    snapshotted engine had.
    for name, info in ctx.model.tables.items():
        ctx.query_engine.table_verdict(
            info, ctx.table_assignments[name], ctx.state.tables[name]
        )


__all__ = ["SNAPSHOT_FORMAT", "SnapshotFormatError", "apply_snapshot", "snapshot_context"]
