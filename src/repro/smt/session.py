"""A persistent solver session: the program CNF stays loaded across queries.

This is the piece that makes the solver *incremental the way the paper
uses Z3* (§4): instead of replaying each query's Tseitin cone into a
throw-away solver, a :class:`SolverSession` owns one long-lived
:class:`~repro.smt.sat.SatSolver` and streams each query's *new* CNF
fragments into it exactly once.  A query's root assertion is guarded by a
per-term **activation literal** ``act`` via the clause ``(¬act ∨ root)``,
and the query itself becomes ``solve(assumptions=[act])`` — so the clause
database, including every clause the CDCL core *learned* while answering
earlier queries, keeps pruning the search for all later ones.

Soundness of the sharing: every clause in the database is either part of
some query's Tseitin cone (a definitional extension — each gate variable
has a unique acyclic definition, so adding it never constrains existing
variables) or an activation guard (satisfiable by ``act = false``
regardless of everything else).  Any clause learned from such a database
is therefore a logical consequence of the definitions alone, which is why
learned clauses are valid for every future query and why a batch worker's
fork can export what it learned back to the shared session
(:meth:`fork` / :meth:`export_learned` / :meth:`absorb`).
"""

from __future__ import annotations

from typing import Optional

from repro.smt import terms as T
from repro.smt.cnf import FragmentBitBlaster
from repro.smt.sat import SAT, SatSolver
from repro.smt.terms import Term


class SolverSession:
    """One persistent assumption-probing solver over a fragment encoder.

    The session keeps a *dense* local variable numbering (queries touch an
    arbitrary subset of the encoder's global numbering), a record of which
    CNF fragments are already loaded, and the activation literal of every
    term ever probed.  ``probe`` cost is therefore proportional to the
    query's *new* fragments plus search — the shared program formula is
    blasted and loaded once, not per verdict.
    """

    def __init__(
        self,
        encoder: FragmentBitBlaster,
        solver: Optional[SatSolver] = None,
    ) -> None:
        self.encoder = encoder
        self.sat = solver if solver is not None else SatSolver()
        self._local: dict[int, int] = {}  # encoder var → session var
        self._loaded: set[int] = set()  # id(fragment) already streamed in
        self._preamble_loaded = 0
        self._activations: dict[Term, int] = {}
        # Per-term cone variables (session numbering): the decision scope
        # of a probe — everything outside it is definitional and gets
        # evaluated, not searched.
        self._cone_vars: dict[Term, list[int]] = {}
        # Fork bookkeeping (None on a root session).  Inherited learned
        # clauses are marked by cref: the fork copies the parent's clause
        # arena wholesale, so everything below the mark existed pre-fork
        # (and forked solvers never compact, so crefs stay stable).
        self._forked_from: Optional[int] = None
        self._fork_var_mark = 0
        self._inherited_cref_mark = 0

    # -- loading ---------------------------------------------------------------

    def _localize(self, lit: int) -> int:
        var = lit if lit > 0 else -lit
        mapped = self._local.get(var)
        if mapped is None:
            mapped = self.sat.new_var()
            self._local[var] = mapped
        return mapped if lit > 0 else -mapped

    def _load_clause(self, clause: list[int]) -> None:
        self.sat.add_clause([self._localize(lit) for lit in clause])

    def _load_cone(self, term: Term) -> None:
        """Stream the not-yet-loaded fragments of ``term``'s cone."""
        preamble = self.encoder._preamble
        for clause in preamble[self._preamble_loaded :]:
            self._load_clause(clause)
        self._preamble_loaded = len(preamble)
        frag = (
            self.encoder._bool_frags.get(term)
            if term.is_bool
            else self.encoder._bv_frags.get(term)
        )
        if frag is None:
            raise KeyError(f"term has not been encoded: {term!r}")
        stack = [frag]
        loaded = self._loaded
        while stack:
            node = stack.pop()
            if id(node) in loaded:
                continue
            loaded.add(id(node))
            for clause in node.clauses:
                self._load_clause(clause)
            stack.extend(node.children)

    def activation(self, term: Term) -> int:
        """The session literal that, assumed true, asserts ``term``."""
        act = self._activations.get(term)
        if act is None:
            root = self.encoder.encode_bool(term)
            self._load_cone(term)
            act = self.sat.new_var()
            self.sat.add_clause([-act, self._localize(root)])
            self._activations[term] = act
            self._cone_vars[term] = self._collect_cone_vars(term)
        return act

    def _collect_cone_vars(self, term: Term) -> list[int]:
        """Every session variable in ``term``'s cone, in load order.

        This is the probe's decision scope: assigning exactly these (plus
        the activation literal) yields a quiesced partial assignment that
        extends to a full model, because everything else in the database
        is an acyclic Tseitin definition, an activation guard, or a
        learned consequence — see ``SatSolver.solve(decide_vars=...)``.
        """
        frag = (
            self.encoder._bool_frags.get(term)
            if term.is_bool
            else self.encoder._bv_frags.get(term)
        )
        # An insertion-ordered set: fragments in DFS order, each one's
        # distinct variables in first-occurrence order — the order a
        # literal-by-literal walk of the cone would first meet them.
        cone: dict[int, None] = {}
        local = self._local
        stack = [frag]
        visited: set[int] = set()
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            for var in node.variables:
                cone[local[var]] = None
            stack.extend(node.children)
        return list(cone)

    # -- querying --------------------------------------------------------------

    def probe(self, term: Term, max_conflicts: Optional[int] = None) -> bool:
        """Is ``term`` satisfiable?  One assumption probe; raises
        :class:`~repro.smt.sat.SolverBudgetExceeded` past the budget."""
        act = self.activation(term)
        return (
            self.sat.solve(
                assumptions=[act],
                max_conflicts=max_conflicts,
                decide_vars=self._cone_vars[term],
            )
            == SAT
        )

    def model_values(self, term: Term) -> dict[str, int]:
        """Values for ``term``'s variables from the last ``SAT`` probe."""
        values: dict[str, int] = {}
        for var in T.variables(term):
            if var.is_bool:
                lit = self.encoder._bool_vars.get(var.name)
                mapped = self._local.get(lit) if lit else None
                values[var.name] = (
                    int(bool(self.sat.value_of(mapped))) if mapped else 0
                )
                continue
            bits = self.encoder._var_bits.get(var.name)
            if bits is None:
                values[var.name] = 0
                continue
            value = 0
            for i, bit in enumerate(bits):
                mapped = self._local.get(bit)
                if mapped is not None and self.sat.value_of(mapped):
                    value |= 1 << i
            values[var.name] = value
        return values

    # -- sizing (observability) ------------------------------------------------

    @property
    def loaded_fragments(self) -> int:
        return len(self._loaded)

    @property
    def probed_terms(self) -> int:
        return len(self._activations)

    # -- batch-worker forking --------------------------------------------------

    def fork(self, encoder: FragmentBitBlaster) -> "SolverSession":
        """A private warm copy for one batch worker slice.

        The fork starts with the parent's full clause database (problem
        and learned), variable map, and activation literals, against the
        worker's own encoder fork (fragment objects are shared, so
        fragment identity — and with it :attr:`_loaded` — stays valid).
        It copies every clause and rebuilds every watch list, so a
        :meth:`Solver.fork_slice <repro.smt.solver.Solver.fork_slice>`
        twin calls it only once one of its queries reaches the SAT core,
        holding the parent solver's lock (``SatSolver.fork`` backtracks
        ``self``).
        """
        twin = SolverSession(encoder, solver=self.sat.fork())
        twin._local = dict(self._local)
        twin._loaded = set(self._loaded)
        twin._preamble_loaded = self._preamble_loaded
        twin._activations = dict(self._activations)
        twin._cone_vars = dict(self._cone_vars)
        twin._forked_from = id(self)
        twin._fork_var_mark = twin.sat.num_vars
        twin._inherited_cref_mark = len(twin.sat._arena)
        return twin

    def export_learned(self) -> list[list[int]]:
        """Clauses this fork learned that the parent session can reuse.

        Only clauses over pre-fork variables qualify: those variables mean
        the same thing in both sessions, and everything added post-fork
        (cone definitions, activation guards) is a conservative extension,
        so the clause is a consequence of the parent's own database.
        """
        vmark = self._fork_var_mark
        cmark = self._inherited_cref_mark
        exported = []
        for cref in self.sat._learned:
            if cref < cmark:
                continue  # inherited from the parent at fork time
            lits = self.sat._clause_lits(cref)
            if all(-vmark <= lit <= vmark for lit in lits):
                exported.append(lits)
        return exported

    def absorb(self, fork: "SolverSession") -> int:
        """Fold a fork's exported learned clauses back; returns the count."""
        if fork._forked_from != id(self):
            return 0
        return self.sat.import_learned(fork.export_learned())

    # -- snapshot / restore (picklable warm state) -----------------------------

    def snapshot(self) -> dict:
        """A picklable blob of the warm session state.

        Contains the SAT core snapshot plus the session's bookkeeping;
        Term-keyed tables (activation literals, cone scopes) ride in a
        :class:`~repro.smt.arena.TermArena`, since terms themselves refuse
        to pickle.  Restore against the *same* encoder (or a fork of it,
        or a restored copy of it) with :meth:`restore`.
        """
        from repro.smt.arena import TermArena

        arena = TermArena()
        return {
            "sat": self.sat.snapshot(),
            "local": dict(self._local),
            "preamble_loaded": self._preamble_loaded,
            "terms": arena,
            "activations": [
                (arena.encode(term), act)
                for term, act in self._activations.items()
            ],
            "cone_vars": [
                (arena.encode(term), list(cone))
                for term, cone in self._cone_vars.items()
            ],
        }

    @classmethod
    def restore(
        cls, encoder: FragmentBitBlaster, blob: dict
    ) -> "SolverSession":
        """Rebuild a warm session from a :meth:`snapshot` blob.

        ``encoder`` must present the same fragment graph the snapshotted
        session was built against (the identical object, a fork sharing
        its fragments, or the deterministic re-encoding of the same
        program): the loaded-fragment set is reconstructed by walking the
        cones of every restored activation term.
        """
        arena = blob["terms"]
        twin = cls(encoder, solver=SatSolver.restore(blob["sat"]))
        twin._local = dict(blob["local"])
        twin._preamble_loaded = blob["preamble_loaded"]
        twin._activations = {
            arena.decode(idx): act for idx, act in blob["activations"]
        }
        twin._cone_vars = {
            arena.decode(idx): list(cone) for idx, cone in blob["cone_vars"]
        }
        # Re-derive the loaded-fragment set: everything reachable from an
        # activation term's cone was streamed in before the snapshot.
        for term in twin._activations:
            frag = (
                encoder._bool_frags.get(term)
                if term.is_bool
                else encoder._bv_frags.get(term)
            )
            if frag is None:
                continue
            stack = [frag]
            while stack:
                node = stack.pop()
                if id(node) in twin._loaded:
                    continue
                twin._loaded.add(id(node))
                stack.extend(node.children)
        return twin
