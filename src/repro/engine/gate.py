"""The verdict gate: witness replay over first-match lookups.

Every warm executability query pays substitution + simplification + (for
the residual MAYBEs) a CDCL assumption probe pair, even though the common
control-plane update lands in key space disjoint from every tainted path
and changes no verdict at all.  This module answers that common case
with O(lookup) work, in two tiers:

**Fingerprint replay (the fast path).**  Whenever the probe pair decides
a point is MAYBE it has, by definition, two *witnesses*: a model making
the point's expression true and a model making it false.  The gate keeps
both and records, per witness, a *fingerprint*: for every table the
point is tainted by, the table's first-match decision (the winning
``(action, args)``, or MISS) at the witness's concrete key point — plus
each dependent value set's tuple and each dependent table's
overapproximation status.  On the next update touching the point, the
gate recomputes the fingerprint against the *current* entries (one
:class:`~repro.smt.fdd.TableFdd` row scan per dependency table).  If
nothing changed, the expression's value at both witnesses is provably
unchanged — a point's post-substitution term is a function of its taint
deps' table functions at the witness's key values — so both witnesses
still stand, the verdict is still MAYBE, and the stored verdict is
returned **without touching the substitution, the simplifier, or the
solver**.

**The probe pair, with harvest.**  When the fingerprint misses (or the
point has no record) the term is recomputed and
:meth:`QueryEngine._executability` decides it — the one statement of the
decision procedure, which a bare ``QueryEngine`` runs as well — and
:meth:`VerdictGate.decide` only keeps the records in step: a MAYBE the
probe pair found stores its two models as the new witnesses; a MAYBE out
of the exec cache or over the node budget keeps the old record iff its
witnesses still evaluate true/false on the new term; anything else drops
it.  The solver is asked nothing that does not decide a verdict, so a
MAYBE that never reached the probe pair simply stays record-less and
re-decides on its next change.

**Only executability points come here.**  A value point's verdict is
``constant_value(term)`` — syntactic, a few microseconds on a term the
substitution already pulled incrementally — so a witness record for it
could only ever save less than finding its witnesses costs.
:meth:`QueryEngine.point_verdict` decides those points itself.

A replay only ever short-circuits to MAYBE when two concrete witnesses
prove MAYBE, so the engine's verdicts are those of a bare
``QueryEngine`` over a one-shot substitution of the same mapping — the
specification ``tests/engine/test_gate_differential.py`` compares with.

Batch workers fork the gate alongside the solver session: witness
records are a copy-on-write overlay (conflict groups partition program
points, so overlays never collide) merged back in anchor order; table
entries only change on the main thread, before workers start, and a
worker that finds a table's lookup rows stale re-derives them and
publishes the new list in one assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.model import KIND_IF, KIND_SELECT
from repro.engine.queries import MAYBE, PointVerdict
from repro.smt import terms as T
from repro.smt.simplify import constant_value
from repro.smt.fdd import TableFdd

#: Fingerprint component for an overapproximated dependency: while a
#: table is overapproximated its control symbols map to the stable
#: ``!any`` data vars, so its contribution to the point's term is fixed.
_OVERAPPROX = ("overapprox",)


class _ZeroDefault(dict):
    """Witness model with absent variables reading as zero.

    Solver models only assign the variables of the simplified term; key
    terms may mention variables the simplifier eliminated.  Defaulting
    them to zero is sound because the *same* completed assignment is
    used at harvest time and at every later screen — the fingerprint
    argument only needs one fixed point per witness.
    """

    def __missing__(self, key) -> int:
        return 0


@dataclass
class WitnessRecord:
    """One MAYBE point's cached verdict plus the evidence that pins it.

    ``pos_keys``/``neg_keys`` cache each dependency table's key point
    under the witness models, packed into the table's one key integer.
    Models are frozen at harvest time and key terms are fixed per table,
    so the points never change for the life of the record — caching them
    turns a screen into pure row scans (no term evaluation and no
    packing on the hot path).
    """

    verdict: object  # the frozen PointVerdict to replay
    term: object  # the simplified term the witnesses certify
    pos_model: _ZeroDefault
    neg_model: _ZeroDefault
    pos_keys: dict  # table name → packed concrete key point
    neg_keys: dict
    fp_pos: tuple
    fp_neg: tuple


class _RecordStore:
    """The main gate's witness records (plain dict semantics)."""

    def __init__(self) -> None:
        self.map: dict = {}

    def get(self, pid: str):
        return self.map.get(pid)

    def set(self, pid: str, record: WitnessRecord) -> None:
        self.map[pid] = record

    def drop(self, pid: str) -> None:
        self.map.pop(pid, None)


class _RecordOverlay:
    """A worker slice's copy-on-write view (None entries are tombstones)."""

    def __init__(self, base) -> None:
        self.base = base
        self.delta: dict = {}

    def get(self, pid: str):
        if pid in self.delta:
            return self.delta[pid]
        return self.base.get(pid)

    def set(self, pid: str, record: WitnessRecord) -> None:
        self.delta[pid] = record

    def drop(self, pid: str) -> None:
        self.delta[pid] = None


@dataclass
class GateStats:
    """Gate decision counters (the ``--stats`` surface).

    ``screened`` counts the queries offered to the gate — executability
    points only, so every one of them could have reached the solver;
    ``witness_hits`` resolved before substitution (fingerprint replay),
    ``exec_cache_hits`` after it but before the solver, and
    ``solver_fallbacks`` reached the probe pair.  ``fdd_rebuilds`` counts
    lazy re-packs of a table's lookup rows.  ``interval_decided``,
    ``witness_evals`` and ``fdd_fast_inserts`` always read 0 (those tiers
    and that maintenance path are gone) and stay only because
    ``benchmarks/e2e`` indexes them — ROADMAP item 1(b) removes them.
    """

    screened: int = 0
    witness_hits: int = 0
    exec_cache_hits: int = 0
    interval_decided: int = 0
    witness_evals: int = 0
    solver_fallbacks: int = 0
    budget_maybes: int = 0
    harvested: int = 0
    fdd_fast_inserts: int = 0
    fdd_rebuilds: int = 0

    @property
    def solver_free(self) -> int:
        """Screens that never reached the probe pair: replays and exec-cache
        hits, plus the points whose pulled term was the object their
        verdict was decided from (kept before ``decide``), folded to a
        constant, or was over the solver's node budget."""
        return self.screened - self.solver_fallbacks

    def snapshot(self) -> "GateStats":
        return GateStats(**{f: getattr(self, f) for f in _FIELDS})

    def since(self, baseline: "GateStats") -> "GateStats":
        return GateStats(
            **{f: getattr(self, f) - getattr(baseline, f) for f in _FIELDS}
        )

    def absorb(self, other: "GateStats") -> None:
        for f in _FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))

    def describe(self) -> str:
        screened = self.screened or 1
        lines = [
            (
                f"screens: {self.screened} "
                f"(witness {self.witness_hits}, cached {self.exec_cache_hits}, "
                f"solver {self.solver_fallbacks})"
            ),
            (
                f"solver-free: {self.solver_free} "
                f"({100.0 * self.solver_free / screened:.1f}% of screens), "
                f"{self.harvested} witnesses harvested, "
                f"{self.budget_maybes} budget punts"
            ),
            f"fdd: {self.fdd_rebuilds} lookup-row re-packs",
        ]
        return "\n".join(lines)


_FIELDS = tuple(GateStats.__dataclass_fields__)


class VerdictGate:
    """Owns the per-table lookup rows and the per-point witness records."""

    def __init__(self, model, state, threshold: Optional[int]) -> None:
        self.model = model
        self.state = state
        self.threshold = threshold
        self.stats = GateStats()
        self._records = _RecordStore()
        # Attach a first-match lookup index to every table's state; it
        # follows the state's revision from here on.
        for table_state in state.tables.values():
            table_state.fdd = TableFdd()
        # Per-point taint dependencies: which tables / value sets can
        # change an executability point's post-substitution term (value
        # points never come here).
        owner: dict = {}
        for name, info in model.tables.items():
            for var in info.control_var_names():
                owner[var] = (True, name)
        for name, info in model.value_sets.items():
            for var in info.control_var_names():
                owner[var] = (False, name)
        self._deps: dict = {}
        for pid, point in model.points.items():
            if point.kind not in (KIND_IF, KIND_SELECT):
                continue
            tables: set = set()
            value_sets: set = set()
            for var in point.control_vars():
                entry = owner.get(var)
                if entry is None:
                    continue
                (tables if entry[0] else value_sets).add(entry[1])
            self._deps[pid] = (tuple(sorted(tables)), tuple(sorted(value_sets)))

    # -- fingerprints ---------------------------------------------------------

    def _key_points(self, pid: str, model: _ZeroDefault) -> dict:
        """Each dependency table's packed key point under one witness model.

        Computed once per record (term evaluation is the expensive part
        of a fingerprint); screens replay the cached points.
        """
        tables = self.model.tables
        states = self.state.tables
        return {
            name: states[name].pack_point(
                T.evaluate(k.term, model) for k in tables[name].keys
            )
            for name in self._deps[pid][0]
        }

    def _fingerprint(self, pid: str, points_by_table: dict) -> tuple:
        """The point's dependency state as seen from one witness model:
        per dependency table its first-match decision at the witness's
        key point (or the overapproximation marker), then each dependency
        value set's tuple."""
        dep_tables, dep_value_sets = self._deps[pid]
        components: list = []
        for name in dep_tables:
            table_state = self.state.tables[name]
            if self.threshold is not None and len(table_state) > self.threshold:
                components.append(_OVERAPPROX)
                continue
            components.append(
                table_state.fdd.lookup(points_by_table[name], table_state)
            )
        for name in dep_value_sets:
            components.append(self.state.value_sets[name])
        return tuple(components)

    # -- the tiers ------------------------------------------------------------

    def screen(self, point):
        """Replay the stored verdict iff both fingerprints hold.

        Returns the frozen :class:`PointVerdict` on a hit, else None (and
        the caller recomputes the term and calls :meth:`decide`).
        """
        self.stats.screened += 1
        record = self._records.get(point.pid)
        if record is None:
            return None
        if self._fingerprint(point.pid, record.pos_keys) != record.fp_pos:
            return None
        if self._fingerprint(point.pid, record.neg_keys) != record.fp_neg:
            return None
        self.stats.witness_hits += 1
        return record.verdict

    def decide(self, point, term, query_engine) -> str:
        """The recomputed term's verdict, with the point's record kept in step.

        The decision is :meth:`QueryEngine._executability`'s; what happens
        here is record upkeep — the probe pair's two models become the new
        witnesses, a cached or punted verdict re-checks the old ones, and
        every other outcome leaves no record.
        """
        found = query_engine._executability(term)
        stats = self.stats
        if found.how == "cached":
            stats.exec_cache_hits += 1
        elif found.how in ("probed", "budget"):
            stats.solver_fallbacks += 1
            if found.how == "budget":
                stats.budget_maybes += 1
        if found.models is not None:
            positive, negative = found.models
            self._store(
                point,
                term,
                PointVerdict(point.pid, point.kind, executability=MAYBE),
                _ZeroDefault(positive),
                _ZeroDefault(negative),
            )
            stats.harvested += 1
        elif found.how in ("cached", "punted"):
            self._revalidate(point, term, found.verdict)
        else:
            self._records.drop(point.pid)
        return found.verdict

    def decide_constant(self, point, term, query_engine):
        """The syntactic constancy verdict; no engine path calls this.

        Value points never enter the gate:
        :meth:`QueryEngine.point_verdict` computes this same
        ``constant_value`` verdict itself.  The method survives only
        because ``benchmarks/e2e/harness/tracing.py`` resolves it by name
        (its span now always reads 0 calls) — the next benchmark PR drops
        the wrap point and this with it.
        """
        value = constant_value(term)
        return PointVerdict(
            point.pid, point.kind, constant=value, is_constant=value is not None
        )

    # -- record maintenance ---------------------------------------------------

    def _revalidate(self, point, term, verdict: str) -> None:
        """Refresh (or discard) the record after a non-witness decision."""
        pid = point.pid
        if verdict != MAYBE:
            self._records.drop(pid)
            return
        record = self._records.get(pid)
        if record is None:
            # Record-less MAYBE (over-budget term or a cached MAYBE that
            # never had witnesses): it stays record-less.
            return
        if record.term is not term and not (
            T.evaluate(term, record.pos_model) == 1
            and T.evaluate(term, record.neg_model) == 0
        ):
            self._records.drop(pid)
            return
        self._store(
            point, term, record.verdict,
            record.pos_model, record.neg_model,
            pos_keys=record.pos_keys, neg_keys=record.neg_keys,
        )

    def _store(
        self, point, term, verdict, pos_model, neg_model,
        pos_keys=None, neg_keys=None,
    ) -> None:
        pid = point.pid
        if pos_keys is None:
            pos_keys = self._key_points(pid, pos_model)
        if neg_keys is None:
            neg_keys = self._key_points(pid, neg_model)
        self._records.set(
            pid,
            WitnessRecord(
                verdict=verdict,
                term=term,
                pos_model=pos_model,
                neg_model=neg_model,
                pos_keys=pos_keys,
                neg_keys=neg_keys,
                fp_pos=self._fingerprint(pid, pos_keys),
                fp_neg=self._fingerprint(pid, neg_keys),
            ),
        )

    # -- stats ----------------------------------------------------------------

    def snapshot(self) -> GateStats:
        """Gate counters plus the lookup indexes' re-pack counts."""
        stats = self.stats.snapshot()
        for table_state in self.state.tables.values():
            stats.fdd_rebuilds += table_state.fdd.rebuilds
        return stats

    # -- batch-worker forking -------------------------------------------------

    def fork_slice(self) -> "VerdictGate":
        """A worker's view: shared lookup rows, overlaid witness records.

        Safe because the scheduler mutates all table state on the main
        thread before workers start (a worker's lazy re-pack derives the
        same rows any other would), and conflict groups partition program
        points, so no two slices touch the same record.
        """
        fork = VerdictGate.__new__(VerdictGate)
        fork.model = self.model
        fork.state = self.state
        fork.threshold = self.threshold
        fork.stats = GateStats()
        fork._records = _RecordOverlay(self._records)
        fork._deps = self._deps
        return fork

    def absorb_fork(self, fork: "VerdictGate") -> int:
        """Fold a slice's record delta and counters back (anchor order)."""
        self.stats.absorb(fork.stats)
        grafted = 0
        for pid, record in fork._records.delta.items():
            if record is None:
                self._records.drop(pid)
            else:
                self._records.set(pid, record)
                grafted += 1
        return grafted

    # -- warm-state snapshot --------------------------------------------------

    def export_records(self, arena) -> list:
        """Every witness record as a picklable ``(pid, blob)`` pair — the
        gate's contribution to an engine warm-state snapshot.

        Witness terms ride in ``arena``
        (a :class:`~repro.smt.arena.TermArena`); fingerprints and packed
        key points are plain tuples and integers, compared by value, so
        they ride as they are.
        """
        exported: list = []
        for pid, record in self._records.map.items():
            exported.append(
                (
                    pid,
                    {
                        "verdict": record.verdict,
                        "term": arena.encode(record.term),
                        "pos_model": dict(record.pos_model),
                        "neg_model": dict(record.neg_model),
                        "pos_keys": record.pos_keys,
                        "neg_keys": record.neg_keys,
                        "fp_pos": record.fp_pos,
                        "fp_neg": record.fp_neg,
                    },
                )
            )
        return exported

    def restore_records(self, arena, records: list) -> int:
        """Rebuild the record map from a snapshot blob.

        Precondition: ``self.state`` already replays the snapshotted
        control plane, so the first screen after restore looks the stored
        key points up in the same entries and the fingerprints hold.
        """
        self._records.map.clear()
        restored = 0
        for pid, blob in records:
            if blob is None:
                continue
            record = WitnessRecord(
                verdict=blob["verdict"],
                term=arena.decode(blob["term"]),
                pos_model=_ZeroDefault(blob["pos_model"]),
                neg_model=_ZeroDefault(blob["neg_model"]),
                pos_keys=blob["pos_keys"],
                neg_keys=blob["neg_keys"],
                fp_pos=blob["fp_pos"],
                fp_neg=blob["fp_neg"],
            )
            self._records.set(pid, record)
            restored += 1
        return restored


__all__ = [
    "GateStats",
    "VerdictGate",
    "WitnessRecord",
]
