"""Bit-blasting terms to CNF (Tseitin encoding).

Turns a boolean :class:`~repro.smt.terms.Term` into clauses for the CDCL
solver.  Every bitvector term becomes a vector of SAT literals (LSB first);
every boolean term becomes a single literal.  Gates use the standard Tseitin
encodings, arithmetic uses ripple-carry, and shifts by non-constant amounts
use a barrel shifter — everything a P4 program's expressions can contain.

Each subterm is paid for once.  Gates fold as they are built: an input
that is the constant literal, or two inputs that are equal or
complementary, give back an input, its negation or a constant without a
new variable (``ite(s, 1, 0)`` is ``s``, ``x ⊕ 1`` is ``¬x``).  A gate
that does not fold is hashed on its normalised inputs (AND on the sorted
literals, XOR on the sign-normalised pair, MUX on ``(sel, then, else)``
with ``sel`` positive), so two terms over the same literals share it.  An
n-ary AND or OR is one gate of n + 1 clauses, and ``x == c`` is one AND
over ``x``'s own literals.  The tables live as long as the blaster, which
the solver facade builds per query (see :mod:`repro.smt.solver`).
"""

from __future__ import annotations

from typing import Optional

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
        # Structural hashing: normalised gate inputs → output literal.
        self._and_table: dict[tuple[int, ...], int] = {}
        self._xor_table: dict[tuple[int, int], int] = {}
        self._mux_table: dict[tuple[int, int, int], int] = {}

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
    #
    # Every gate first folds: an input that is the constant literal, two
    # equal inputs or two complementary ones give back an input, its
    # negation or a constant, and no variable.  What is left is looked up
    # in a per-blaster table, so a gate over the same literals is built
    # once however many terms reach it.  ``self._true_lit or 0`` stands
    # for "no constant yet": 0 is never a literal, so nothing matches it.

    def _and_gate(self, a: int, b: int) -> int:
        t = self._true_lit or 0
        if a == -t or b == -t:
            return -t
        if a == t or a == b:
            return b
        if b == t:
            return a
        if a == -b:
            return self.false_lit()
        key = (a, b) if a < b else (b, a)
        out = self._and_table.get(key)
        if out is None:
            out = self.solver.new_var()
            self.solver.add_clause([-out, a])
            self.solver.add_clause([-out, b])
            self.solver.add_clause([out, -a, -b])
            self._and_table[key] = out
        return out

    def _or_gate(self, a: int, b: int) -> int:
        return -self._and_gate(-a, -b)

    def _xor_gate(self, a: int, b: int) -> int:
        # Sign-normalise: a ⊕ b = |a| ⊕ |b|, negated once per negative input.
        negate = False
        if a < 0:
            a, negate = -a, not negate
        if b < 0:
            b, negate = -b, not negate
        t = self._true_lit or 0
        if a == t:
            out = -b
        elif b == t:
            out = -a
        elif a == b:
            out = self.false_lit()
        else:
            key = (a, b) if a < b else (b, a)
            out = self._xor_table.get(key)
            if out is None:
                out = self.solver.new_var()
                self.solver.add_clause([-out, a, b])
                self.solver.add_clause([-out, -a, -b])
                self.solver.add_clause([out, -a, b])
                self.solver.add_clause([out, a, -b])
                self._xor_table[key] = out
        return -out if negate else out

    def _mux_gate(self, sel: int, then: int, orelse: int) -> int:
        """out = sel ? then : orelse."""
        if sel < 0:
            sel, then, orelse = -sel, orelse, then
        t = self._true_lit or 0
        if sel == t or then == orelse:
            return then
        if then == -orelse:  # sel ? x : ¬x  is  ¬(sel ⊕ x)
            return -self._xor_gate(sel, then)
        if then == t or then == sel:  # sel ∨ orelse
            return self._or_gate(sel, orelse)
        if then == -t or then == -sel:  # ¬sel ∧ orelse
            return self._and_gate(-sel, orelse)
        if orelse == t or orelse == -sel:  # ¬sel ∨ then
            return self._or_gate(-sel, then)
        if orelse == -t or orelse == sel:  # sel ∧ then
            return self._and_gate(sel, then)
        key = (sel, then, orelse)
        out = self._mux_table.get(key)
        if out is None:
            out = self.solver.new_var()
            self.solver.add_clause([-sel, -then, out])
            self.solver.add_clause([-sel, then, -out])
            self.solver.add_clause([sel, -orelse, out])
            self.solver.add_clause([sel, orelse, -out])
            self._mux_table[key] = out
        return out

    def _and_many(self, lits: list[int]) -> int:
        """One n-ary AND gate (n + 1 clauses) over the inputs that do not fold."""
        t = self._true_lit or 0
        kept: set[int] = set()
        for lit in lits:
            if lit == t or lit in kept:
                continue
            if lit == -t or -lit in kept:
                return self.false_lit()
            kept.add(lit)
        if not kept:
            return self.true_lit()
        if len(kept) == 1:
            return next(iter(kept))
        key = tuple(sorted(kept))
        out = self._and_table.get(key)
        if out is None:
            out = self.solver.new_var()
            for lit in key:
                self.solver.add_clause([-out, lit])
            self.solver.add_clause([out] + [-lit for lit in key])
            self._and_table[key] = out
        return out

    def _or_many(self, lits: list[int]) -> int:
        return -self._and_many([-lit for lit in lits])

    def _full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        half = self._xor_gate(a, b)
        s = self._xor_gate(half, cin)
        carry = self._or_gate(self._and_gate(a, b), self._and_gate(cin, half))
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
        # Per-bit XNORs under one AND: against a constant each XNOR folds
        # to a bit of ``a`` or its negation, so ``x == c`` is one gate.
        return self._and_many([-self._xor_gate(x, y) for x, y in zip(a, b)])

    def _bv_ult(self, a: list[int], b: list[int]) -> int:
        # Folds from the LSB upward, so the highest differing bit decides:
        # lt_i = (~a_i & b_i) | (a_i == b_i) & lt_{i-1}
        lt = self.false_lit()
        for abit, bbit in zip(a, b):
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
