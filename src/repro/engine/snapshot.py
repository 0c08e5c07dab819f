"""Warm-state snapshot/restore: an engine's accumulated knowledge, on disk.

A warm engine is expensive to recreate: beyond the cold pipeline it has
learned CDCL clauses, substitution memo entries, solver/executability
memo hits, and gate witness fingerprints — all paid for by processing
real churn.  ``snapshot_context`` captures that state as one picklable
blob; ``apply_snapshot`` rebuilds it into a freshly-analyzed context (in
the same process or another one) so a failover replica or migrated
shard starts at warm-path latency instead of re-running the cold sweep.

**Wire format.** Terms refuse to pickle by design; every term in the
blob rides in one :class:`~repro.smt.arena.TermArena` and is re-interned
on decode, so identity-keyed memos line up with the restored engine's
own hash-consed terms.  The control plane is stored as live entries per
table (replayed as INSERTs in insertion order — ``TableState`` keeps
only live entries, so this reproduces the state exactly) plus value-set
tuples.  The encoder is stored as its top-level encode-root log:
encoding is deterministic structural recursion, so replaying the log
(:func:`~repro.smt.cnf.replay_encoder`) reproduces the exact variable
numbering the snapshotted :class:`~repro.smt.session.SolverSession`
requires.  Table assignments and the control mapping are *not* stored:
they are pure functions of (table info, state, threshold) and are
re-derived, yielding identical hash-consed terms.

**Invalidation rules.** A blob is only valid against the identical
(source, verdict-relevant options) pair — ``Engine.restore`` re-runs the
front half of the cold pipeline from the blob's own copies of both, so
mismatch is impossible by construction rather than checked after the
fact.  Restoring against a shared store whose encoder has moved past
the snapshot (extra roots appended by sibling switches) still attaches
directly when the blob's root log is a prefix of the store's
(append-only numbering); otherwise the encoder is replayed fresh and
the engine simply stops sharing — degraded, never wrong.
"""

from __future__ import annotations

from repro.runtime.semantics import (
    INSERT,
    Update,
    ValueSetUpdate,
    encode_table,
    encode_value_set,
)
from repro.smt.arena import TermArena
from repro.smt.cnf import replay_encoder, roots_compatible
from repro.smt.session import SolverSession
from repro.smt.solver import SatResult

#: 5: the pickled options have seven fields (4 carried three ablation
#: switches on top).
#: 4: gate records exist for executability points only and the blob has
#: no ``hunt_failures`` (3 carried value-point records and hunt counters).
#: 3: the substitution memo holds simplified results (clean entries only)
#: and ``decided`` carries the term each point verdict was decided from.
#: 2: gate records carry packed key points and plain-value fingerprints
#: (1 carried key tuples and flattened diagram leaves).
SNAPSHOT_FORMAT = 5


def snapshot_context(ctx) -> dict:
    """One picklable blob of the context's warm state."""
    if ctx.source is None:
        raise ValueError(
            "snapshot needs the engine's canonical source text "
            "(construct the engine with source=..., not a pre-parsed program)"
        )
    arena = TermArena()
    solver = ctx.query_engine.solver
    blob = {
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
        "substitution": ctx.substitution.export_state(arena),
        "roots": [
            (is_bool, arena.encode(term))
            for is_bool, term in solver._encoder.encode_roots()
        ],
        "session": solver._session.snapshot(),
        "results": [
            (arena.encode(term), (result.satisfiable, result.model))
            for term, result in solver._results.items()
        ],
        "exec_cache": [
            (arena.encode(term), verdict)
            for term, verdict in ctx.query_engine._exec_cache.items()
        ],
        "gate_records": ctx.gate.export_records(arena),
        "point_verdicts": dict(ctx.point_verdicts),
        "decided": [
            (pid, None if term is None else arena.encode(term), verdict)
            for pid, (term, verdict) in ctx.query_engine._decided.items()
        ],
        "table_verdicts": dict(ctx.table_verdicts),
        "recompilations": ctx.recompilations,
        "terms": arena,
    }
    return blob


def apply_snapshot(ctx, blob: dict) -> dict:
    """Rebuild warm state into a freshly-analyzed context.

    Precondition: the cold front half (parse → analysis) has run, so
    ``ctx.model``/``ctx.state``/``ctx.query_engine`` exist with empty
    per-switch state.  Returns restore telemetry (counts per layer).
    """
    if blob.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"unsupported snapshot format: {blob.get('format')!r}")
    arena = blob["terms"]
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
    # 3. Substitution mapping + memo, wholesale.
    memo_entries = ctx.substitution.import_state(arena, blob["substitution"])
    # 4. Encoder + session.  Attach the context's current encoder when it
    #    already presents the snapshot's fragment graph (fresh restore →
    #    both empty; store-backed restore → blob roots are a prefix of
    #    the shared log); otherwise replay the root log into a fresh one.
    solver = ctx.query_engine.solver
    roots = [(is_bool, arena.decode(index)) for is_bool, index in blob["roots"]]
    replayed_roots = 0
    if roots_compatible(solver._encoder, roots):
        encoder = solver._encoder
    else:
        encoder = replay_encoder(roots, solver.cnf_counter)
        replayed_roots = len(roots)
    session = SolverSession.restore(encoder, blob["session"])
    solver.adopt_shared(encoder, session)
    # 5. Term-pure memos: union, never overwrite (a store-shared memo may
    #    already hold entries from sibling switches — both sides are pure
    #    functions of the term, so any merge order is correct).
    for index, (satisfiable, model) in blob["results"]:
        solver._results.setdefault(arena.decode(index), SatResult(satisfiable, model))
    for index, verdict in blob["exec_cache"]:
        ctx.query_engine._exec_cache.setdefault(arena.decode(index), verdict)
    # 6. Gate witness fingerprints (plain values: nothing to re-intern).
    witness_records = ctx.gate.restore_records(arena, blob["gate_records"])
    # 7. Verdicts, the terms they were decided from (so the first pull
    #    after restore that finds its term unchanged keeps its verdict, as
    #    the snapshotted engine would), and counters.
    ctx.point_verdicts.update(blob["point_verdicts"])
    for pid, index, verdict in blob["decided"]:
        term = None if index is None else arena.decode(index)
        ctx.query_engine._decided[pid] = (term, verdict)
    ctx.table_verdicts.update(blob["table_verdicts"])
    ctx.recompilations = blob["recompilations"]
    # 8. Re-prime the table-verdict memo.  The memo itself cannot ride in
    #    the blob (its keys embed term identities), but the re-derived
    #    assignments are identical hash-consed terms to what the warm path
    #    will look up, so one uncached pass here rebuilds every entry the
    #    snapshotted engine had.
    for name, info in ctx.model.tables.items():
        ctx.query_engine.table_verdict(
            info, ctx.table_assignments[name], ctx.state.tables[name]
        )
    return {
        "memo_entries": memo_entries,
        "learned_clauses": len(session.sat._learned),
        "witness_records": witness_records,
        "replayed_roots": replayed_roots,
        "table_verdicts_primed": len(ctx.model.tables),
    }


__all__ = ["SNAPSHOT_FORMAT", "apply_snapshot", "snapshot_context"]
