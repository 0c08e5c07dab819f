"""Bit-blasting terms to CNF (Tseitin encoding).

Turns a boolean :class:`~repro.smt.terms.Term` into clauses for the DPLL
solver.  Every bitvector term becomes a vector of SAT literals (LSB first);
every boolean term becomes a single literal.  Gates use the standard Tseitin
encodings, arithmetic uses ripple-carry, and shifts by non-constant amounts
use a barrel shifter — everything a P4 program's expressions can contain.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.ir.metrics import CacheCounter
from repro.smt import terms as T
from repro.smt.sat import SatSolver
from repro.smt.terms import Term


class BitBlaster:
    """Shared encoding context: one solver, memoized term encodings."""

    def __init__(self, solver: Optional[SatSolver] = None) -> None:
        self.solver = solver if solver is not None else SatSolver()
        self._bool_memo: dict[int, int] = {}
        self._bv_memo: dict[int, list[int]] = {}
        self._true_lit: Optional[int] = None
        self._var_bits: dict[str, list[int]] = {}
        self._bool_vars: dict[str, int] = {}

    # -- constants ------------------------------------------------------------

    def true_lit(self) -> int:
        if self._true_lit is None:
            self._true_lit = self.solver.new_var()
            self.solver.add_clause([self._true_lit])
        return self._true_lit

    def false_lit(self) -> int:
        return -self.true_lit()

    def _const_lit(self, value: bool) -> int:
        return self.true_lit() if value else self.false_lit()

    # -- gates ------------------------------------------------------------------

    def _and_gate(self, a: int, b: int) -> int:
        out = self.solver.new_var()
        self.solver.add_clause([-out, a])
        self.solver.add_clause([-out, b])
        self.solver.add_clause([out, -a, -b])
        return out

    def _or_gate(self, a: int, b: int) -> int:
        out = self.solver.new_var()
        self.solver.add_clause([out, -a])
        self.solver.add_clause([out, -b])
        self.solver.add_clause([-out, a, b])
        return out

    def _xor_gate(self, a: int, b: int) -> int:
        out = self.solver.new_var()
        self.solver.add_clause([-out, a, b])
        self.solver.add_clause([-out, -a, -b])
        self.solver.add_clause([out, -a, b])
        self.solver.add_clause([out, a, -b])
        return out

    def _mux_gate(self, sel: int, then: int, orelse: int) -> int:
        """out = sel ? then : orelse."""
        out = self.solver.new_var()
        self.solver.add_clause([-sel, -then, out])
        self.solver.add_clause([-sel, then, -out])
        self.solver.add_clause([sel, -orelse, out])
        self.solver.add_clause([sel, orelse, -out])
        return out

    def _and_many(self, lits: list[int]) -> int:
        if not lits:
            return self.true_lit()
        out = lits[0]
        for lit in lits[1:]:
            out = self._and_gate(out, lit)
        return out

    def _or_many(self, lits: list[int]) -> int:
        if not lits:
            return self.false_lit()
        out = lits[0]
        for lit in lits[1:]:
            out = self._or_gate(out, lit)
        return out

    def _full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        s = self._xor_gate(self._xor_gate(a, b), cin)
        carry = self._or_gate(
            self._and_gate(a, b),
            self._and_gate(cin, self._xor_gate(a, b)),
        )
        return s, carry

    def _adder(self, a: list[int], b: list[int], cin: int) -> list[int]:
        out: list[int] = []
        carry = cin
        for abit, bbit in zip(a, b):
            s, carry = self._full_adder(abit, bbit, carry)
            out.append(s)
        return out

    # -- encoding --------------------------------------------------------------

    def encode_bool(self, term: Term) -> int:
        """Literal that is true iff ``term`` is true."""
        if not term.is_bool:
            raise T.SortError("encode_bool expects a boolean term")
        cached = self._bool_memo.get(id(term))
        if cached is not None:
            return cached
        lit = self._encode_bool_node(term)
        self._bool_memo[id(term)] = lit
        return lit

    def encode_bv(self, term: Term) -> list[int]:
        """Literal vector (LSB first) equal to ``term``."""
        if not term.is_bv:
            raise T.SortError("encode_bv expects a bitvector term")
        cached = self._bv_memo.get(id(term))
        if cached is not None:
            return cached
        bits = self._encode_bv_node(term)
        if len(bits) != term.width:
            raise AssertionError(
                f"blasted {term.op} to {len(bits)} bits, expected {term.width}"
            )
        self._bv_memo[id(term)] = bits
        return bits

    def _encode_bool_node(self, term: Term) -> int:
        op = term.op
        if op == T.OP_BOOLCONST:
            return self._const_lit(term.payload)
        if op == T.OP_BOOLVAR:
            lit = self._bool_vars.get(term.payload)
            if lit is None:
                lit = self.solver.new_var()
                self._bool_vars[term.payload] = lit
            return lit
        if op == T.OP_BNOT:
            return -self.encode_bool(term.args[0])
        if op == T.OP_BAND:
            return self._and_many([self.encode_bool(a) for a in term.args])
        if op == T.OP_BOR:
            return self._or_many([self.encode_bool(a) for a in term.args])
        if op == T.OP_EQ:
            a, b = term.args
            if a.is_bool:
                la, lb = self.encode_bool(a), self.encode_bool(b)
                return -self._xor_gate(la, lb)
            return self._bv_eq(self.encode_bv(a), self.encode_bv(b))
        if op == T.OP_ULT:
            return self._bv_ult(self.encode_bv(term.args[0]), self.encode_bv(term.args[1]))
        if op == T.OP_ULE:
            return -self._bv_ult(self.encode_bv(term.args[1]), self.encode_bv(term.args[0]))
        if op == T.OP_ITE:
            sel = self.encode_bool(term.args[0])
            return self._mux_gate(
                sel, self.encode_bool(term.args[1]), self.encode_bool(term.args[2])
            )
        raise T.SortError(f"cannot bit-blast boolean op {op!r}")

    def _bv_eq(self, a: list[int], b: list[int]) -> int:
        diffs = [self._xor_gate(x, y) for x, y in zip(a, b)]
        return -self._or_many(diffs)

    def _bv_ult(self, a: list[int], b: list[int]) -> int:
        # MSB-down comparison: lt_i = (~a_i & b_i) | (a_i == b_i) & lt_{i-1}
        lt = self.false_lit()
        for abit, bbit in zip(a, b):  # LSB first: fold from LSB upward
            eq_bit = -self._xor_gate(abit, bbit)
            lt = self._or_gate(
                self._and_gate(-abit, bbit),
                self._and_gate(eq_bit, lt),
            )
        return lt

    def _var_bit_vector(self, name: str, width: int) -> list[int]:
        bits = self._var_bits.get(name)
        if bits is None:
            bits = [self.solver.new_var() for _ in range(width)]
            self._var_bits[name] = bits
        if len(bits) != width:
            raise T.SortError(
                f"variable {name!r} used at widths {len(bits)} and {width}"
            )
        return bits

    def _encode_bv_node(self, term: Term) -> list[int]:
        op = term.op
        width = term.width
        if op == T.OP_BVCONST:
            return [
                self._const_lit(bool((term.payload >> i) & 1)) for i in range(width)
            ]
        if op in (T.OP_DATA_VAR, T.OP_CONTROL_VAR):
            return self._var_bit_vector(term.payload, width)
        if op == T.OP_AND:
            a, b = (self.encode_bv(x) for x in term.args)
            return [self._and_gate(x, y) for x, y in zip(a, b)]
        if op == T.OP_OR:
            a, b = (self.encode_bv(x) for x in term.args)
            return [self._or_gate(x, y) for x, y in zip(a, b)]
        if op == T.OP_XOR:
            a, b = (self.encode_bv(x) for x in term.args)
            return [self._xor_gate(x, y) for x, y in zip(a, b)]
        if op == T.OP_NOT:
            return [-x for x in self.encode_bv(term.args[0])]
        if op == T.OP_ADD:
            a, b = (self.encode_bv(x) for x in term.args)
            return self._adder(a, b, self.false_lit())
        if op == T.OP_SUB:
            a, b = (self.encode_bv(x) for x in term.args)
            return self._adder(a, [-x for x in b], self.true_lit())
        if op == T.OP_NEG:
            a = self.encode_bv(term.args[0])
            zeros = [self.false_lit()] * width
            return self._adder(zeros, [-x for x in a], self.true_lit())
        if op == T.OP_MUL:
            return self._encode_mul(term)
        if op == T.OP_SHL:
            return self._encode_shift(term, left=True)
        if op == T.OP_LSHR:
            return self._encode_shift(term, left=False)
        if op == T.OP_CONCAT:
            left, right = term.args
            return self.encode_bv(right) + self.encode_bv(left)
        if op == T.OP_EXTRACT:
            hi, lo = term.payload
            return self.encode_bv(term.args[0])[lo : hi + 1]
        if op == T.OP_ITE:
            sel = self.encode_bool(term.args[0])
            then = self.encode_bv(term.args[1])
            orelse = self.encode_bv(term.args[2])
            return [self._mux_gate(sel, t, e) for t, e in zip(then, orelse)]
        raise T.SortError(f"cannot bit-blast bitvector op {op!r}")

    def _encode_mul(self, term: Term) -> list[int]:
        a = self.encode_bv(term.args[0])
        b = self.encode_bv(term.args[1])
        width = term.width
        acc = [self.false_lit()] * width
        for i in range(width):
            partial = [self.false_lit()] * i + [
                self._and_gate(a[j], b[i]) for j in range(width - i)
            ]
            acc = self._adder(acc, partial, self.false_lit())
        return acc

    def _encode_shift(self, term: Term, left: bool) -> list[int]:
        value = self.encode_bv(term.args[0])
        amount_term = term.args[1]
        width = term.width
        if amount_term.op == T.OP_BVCONST:
            shift = amount_term.payload
            if shift >= width:
                return [self.false_lit()] * width
            if left:
                return [self.false_lit()] * shift + value[: width - shift]
            return value[shift:] + [self.false_lit()] * shift
        # Barrel shifter over the log2(width)+1 relevant amount bits.
        amount = self.encode_bv(amount_term)
        stages = max(1, (width - 1).bit_length())
        current = value
        for stage in range(stages):
            shift = 1 << stage
            sel = amount[stage] if stage < len(amount) else self.false_lit()
            if left:
                shifted = [self.false_lit()] * shift + current[: width - shift]
            else:
                shifted = current[shift:] + [self.false_lit()] * shift
            current = [
                self._mux_gate(sel, s, c) for s, c in zip(shifted, current)
            ]
        # Amounts >= width produce zero: if any high amount bit set, zero out.
        high_bits = amount[stages:]
        if high_bits:
            any_high = self._or_many(list(high_bits))
            zero = self.false_lit()
            current = [self._mux_gate(any_high, zero, c) for c in current]
        return current


class _Fragment:
    """The Tseitin cone of one term: its own gate clauses + child cones.

    Clause literals live in one flat ``array('i')`` with prefix end
    offsets instead of a list of lists: fragments are written once during
    encoding and then shared read-only across every encoder fork and
    session, so the compact layout cuts per-clause object overhead and
    keeps cone streaming cache-friendly (and cheaply picklable).
    """

    __slots__ = ("_lits", "_ends", "_vars", "children", "out")

    def __init__(self) -> None:
        self._lits = array("i")
        self._ends = array("q")  # end offset of each clause in _lits
        self._vars = None  # distinct variables of _lits, derived on demand
        self.children: list["_Fragment"] = []
        self.out = None  # literal (bool terms) or literal vector (bv terms)

    def append_clause(self, clause: list[int]) -> None:
        self._lits.extend(clause)
        self._ends.append(len(self._lits))
        self._vars = None

    @property
    def variables(self) -> list:
        """The fragment's distinct variables, in first-occurrence order.

        Derived once: a session collecting a probe's decision scope reads
        this instead of re-walking every literal of every clause.
        """
        if self._vars is None:
            self._vars = list(dict.fromkeys(map(abs, self._lits)))
        return self._vars

    @property
    def clauses(self):
        """The fragment's clauses, yielded as literal lists."""
        lits = self._lits
        start = 0
        for end in self._ends:
            yield lits[start:end].tolist()
            start = end


class _FragmentSink:
    """Duck-typed stand-in for :class:`SatSolver` during shared encoding.

    Allocates variables from a process-stable counter and routes emitted
    clauses to the fragment currently being encoded (``owner._sink``).
    """

    def __init__(self, owner: "FragmentBitBlaster") -> None:
        self._owner = owner
        self._num_vars = 0

    def new_var(self) -> int:
        self._num_vars += 1
        return self._num_vars

    def add_clause(self, lits) -> None:
        self._owner._record(list(lits))

    @property
    def num_vars(self) -> int:
        return self._num_vars


class FragmentBitBlaster(BitBlaster):
    """A bit-blaster whose encodings persist *across* queries.

    The plain :class:`BitBlaster` memoizes per-solver-instance: a fresh
    query pays the full Tseitin cost again even for subterms it has
    already encoded.  This subclass records, per hash-consed term, the
    CNF *fragment* the term contributed (its own gate clauses plus
    references to its children's fragments) against a global variable
    numbering.  A query then only encodes the subterms it has never seen
    — bit-blasting cost scales with the delta — and a
    :class:`~repro.smt.session.SolverSession` streams the root's cone of
    clauses into its persistent solver, each fragment once.
    """

    def __init__(self, counter: Optional[CacheCounter] = None) -> None:
        super().__init__(solver=_FragmentSink(self))
        self.counter = counter if counter is not None else CacheCounter("cnf")
        self._stack: list[_Fragment] = []
        self._bool_frags: dict[Term, _Fragment] = {}
        self._bv_frags: dict[Term, _Fragment] = {}
        # Top-level encode calls, in order (``(is_bool, term)``, first call
        # per term only).  Encoding is a deterministic structural recursion
        # over hash-consed terms, so replaying this log into a fresh
        # blaster — :func:`replay_encoder` — reproduces the variable
        # numbering and fragment graph *exactly*.  That replayability is
        # what makes a :class:`~repro.smt.session.SolverSession` snapshot
        # restorable in a process that no longer has the original encoder.
        self._roots: list[tuple[bool, Term]] = []
        self._root_set: set[tuple[bool, Term]] = set()
        # The shared true-literal and its defining clause live in a
        # preamble included in every cone (a plain BitBlaster would emit
        # it inside whichever fragment happened to be open first).
        self._true_lit = self.solver.new_var()
        self._preamble: list[list[int]] = [[self._true_lit]]

    @property
    def var_count(self) -> int:
        return self.solver.num_vars

    @property
    def fragment_count(self) -> int:
        """Distinct Tseitin fragments encoded so far (dedup observability)."""
        return len(self._bool_frags) + len(self._bv_frags)

    def encode_roots(self) -> list[tuple[bool, Term]]:
        """The top-level encode log (is_bool, term), in call order."""
        return list(self._roots)

    def _log_root(self, is_bool: bool, term: Term) -> None:
        # Only genuinely top-level calls shape the allocation order; a
        # repeat (or a root already encoded as some other root's subterm)
        # is a numbering no-op, so logging its first top-level occurrence
        # is enough to replay the exact variable sequence.
        if not self._stack:
            key = (is_bool, term)
            if key not in self._root_set:
                self._root_set.add(key)
                self._roots.append(key)

    def _record(self, clause: list[int]) -> None:
        if self._stack:
            self._stack[-1].append_clause(clause)
        else:
            self._preamble.append(clause)

    def _encode_fragment(self, term: Term, cache: dict, encode_node):
        frag = cache.get(term)
        if frag is not None:
            self.counter.hit()
            if self._stack:
                self._stack[-1].children.append(frag)
            return frag.out
        self.counter.miss()
        frag = _Fragment()
        if self._stack:
            self._stack[-1].children.append(frag)
        self._stack.append(frag)
        try:
            frag.out = encode_node(term)
        finally:
            self._stack.pop()
        cache[term] = frag
        return frag.out

    def encode_bool(self, term: Term) -> int:
        if not term.is_bool:
            raise T.SortError("encode_bool expects a boolean term")
        self._log_root(True, term)
        return self._encode_fragment(term, self._bool_frags, self._encode_bool_node)

    def encode_bv(self, term: Term) -> list[int]:
        if not term.is_bv:
            raise T.SortError("encode_bv expects a bitvector term")
        self._log_root(False, term)
        bits = self._encode_fragment(term, self._bv_frags, self._encode_bv_node)
        if len(bits) != term.width:
            raise AssertionError(
                f"blasted {term.op} to {len(bits)} bits, expected {term.width}"
            )
        return bits

    def fork(self, counter: Optional[CacheCounter] = None) -> "FragmentBitBlaster":
        """A private copy for one batch worker slice.

        Fragment objects are immutable once encoded, so the fork shares
        them and copies only the lookup tables and the variable counter.
        Fragments encoded after the fork allocate from each side's own
        counter — the same numbers can mean different things across forks,
        which is why sessions only exchange clauses over pre-fork
        variables (see :meth:`repro.smt.session.SolverSession.fork`).
        """
        twin = FragmentBitBlaster(counter)
        twin.solver._num_vars = self.solver.num_vars
        twin._true_lit = self._true_lit
        twin._var_bits = dict(self._var_bits)
        twin._bool_vars = dict(self._bool_vars)
        twin._bool_frags = dict(self._bool_frags)
        twin._bv_frags = dict(self._bv_frags)
        twin._preamble = list(self._preamble)
        twin._roots = list(self._roots)
        twin._root_set = set(self._root_set)
        return twin


def replay_encoder(
    roots: list[tuple[bool, Term]],
    counter: Optional[CacheCounter] = None,
) -> FragmentBitBlaster:
    """Rebuild a :class:`FragmentBitBlaster` from an encode-root log.

    Encoding is a pure structural recursion, so replaying the same roots
    in the same order reproduces the original's variable numbering and
    fragment graph exactly — the precondition
    :meth:`~repro.smt.session.SolverSession.restore` places on its
    encoder.  Used by the warm-state snapshot layer to resurrect a
    session's encoder in a process that never ran the original queries.
    """
    encoder = FragmentBitBlaster(counter)
    for is_bool, term in roots:
        if is_bool:
            encoder.encode_bool(term)
        else:
            encoder.encode_bv(term)
    return encoder


def roots_compatible(
    encoder: FragmentBitBlaster, roots: list[tuple[bool, Term]]
) -> bool:
    """Does ``encoder`` present the fragment graph ``roots`` describes?

    True iff ``roots`` is a prefix of the encoder's own root log (term
    comparison is identity — both sides intern through the default
    factory).  Fragment numbering is append-only, so an encoder that has
    encoded *more* roots since the log was taken still presents every
    fragment/variable the log's session knew, unchanged — a shared-store
    encoder extended by sibling switches stays attachable.
    """
    log = encoder._roots
    if len(log) < len(roots):
        return False
    return all(log[i] == root for i, root in enumerate(roots))


def assert_term(blaster: BitBlaster, term: Term) -> None:
    """Constrain the solver so that ``term`` must be true."""
    blaster.solver.add_clause([blaster.encode_bool(term)])


def model_values(blaster: BitBlaster, term: Term) -> dict[str, int]:
    """Decode the last SAT model into values for ``term``'s variables."""
    model = blaster.solver.model()
    if model is None:
        raise ValueError("no model available (last result was not SAT)")
    values: dict[str, int] = {}
    for var in T.variables(term):
        if var.is_bool:
            lit = blaster._bool_vars.get(var.name)
            values[var.name] = int(model.get(lit, False)) if lit else 0
            continue
        bits = blaster._var_bits.get(var.name)
        if bits is None:
            values[var.name] = 0
            continue
        values[var.name] = sum(
            (1 << i) for i, lit in enumerate(bits) if model.get(lit, False)
        )
    return values
