"""Flat arrays for terms and CNF clauses.

``Term`` deliberately refuses to pickle — its identity *is* its cache
key, and an unpickled copy would bypass hash-consing.  What has to cross
a pickle boundary (the engine warm-state snapshot of
:mod:`repro.engine.snapshot`) rides in a :class:`TermArena` instead:
:meth:`TermArena.dumps` pickles any object graph with each term in it
replaced by its arena index, and :meth:`TermArena.loads` decodes them
back, so no container needs a codec of its own.
The CDCL core keeps its clause database in a :class:`ClauseArena`.

* :class:`TermArena` — a **codec**, not a second term representation.
  ``encode`` flattens a term DAG into parallel arrays (op code, width,
  child indices, payload), one row per distinct node; ``decode`` rebuilds
  it bottom-up through the default factory, so canonical
  argument order and hash-consing identity are re-established on the way
  back in: ``decode(encode(t)) is t``, in this process or any other.
  The arena carries no ``Term`` references across the wire.  It knows
  nothing about rewriting: :mod:`repro.smt.simplify` and
  :mod:`repro.smt.substitute` are the only statement of each rule, and a
  consumer that wants to rewrite a transported term decodes it first.

* :class:`ClauseArena` — CNF clauses as one flat literal buffer plus
  per-clause offset/length/flag arrays.  The CDCL core keeps watch
  lists as lists of integer clause references into this arena, so
  propagation walks contiguous ``array('i')`` slices instead of
  ``Clause`` objects.

Determinism note: indices are assigned in first-encode order, so two
runs that encode the same terms in the same order produce the same
arena byte-for-byte.
"""

from __future__ import annotations

import io
import pickle
from array import array

from repro.smt import terms as T
from repro.smt.terms import Term

# ---------------------------------------------------------------------------
# Op codes: small ints mirroring the OP_* string tags, in a fixed order
# (the order is part of the pickle format — append only).
# ---------------------------------------------------------------------------

_OPS = (
    T.OP_BVCONST, T.OP_BOOLCONST, T.OP_DATA_VAR, T.OP_CONTROL_VAR,
    T.OP_BOOLVAR,
    T.OP_ADD, T.OP_SUB, T.OP_MUL, T.OP_AND, T.OP_OR, T.OP_XOR,
    T.OP_NOT, T.OP_NEG, T.OP_SHL, T.OP_LSHR, T.OP_CONCAT, T.OP_EXTRACT,
    T.OP_ITE, T.OP_EQ, T.OP_ULT, T.OP_ULE, T.OP_BAND, T.OP_BOR, T.OP_BNOT,
)
OP_CODE = {op: code for code, op in enumerate(_OPS)}

(
    _BVCONST, _BOOLCONST, _DATA_VAR, _CONTROL_VAR, _BOOLVAR,
    _ADD, _SUB, _MUL, _AND, _OR, _XOR,
    _NOT, _NEG, _SHL, _LSHR, _CONCAT, _EXTRACT,
    _ITE, _EQ, _ULT, _ULE, _BAND, _BOR, _BNOT,
) = range(len(_OPS))

#: Commutative binary ops whose args the arena stores index-sorted
#: (mirrors the factory's id-sorted canonical order; decode re-sorts).
_COMM_BIN = frozenset(
    {_ADD, _MUL, _AND, _OR, _XOR, _EQ}
)
_NARY = frozenset({_BAND, _BOR})


class TermArena:
    """Hash-consed terms as parallel arrays, addressed by integer index.

    The arena is self-contained and picklable: op codes, widths, child
    indices, and leaf payloads (ints, bools, variable-name strings, and
    ``(hi, lo)`` extract bounds) round-trip through ``pickle`` exactly.
    Process-local state (the id-keyed encode memo and the decoded-Term
    cache) is dropped on pickling and rebuilt lazily.

    Identity invariant: ``arena.decode(arena.encode(t)) is t`` for any
    term ``t`` built through the default factory, in this process or
    any other — decode rebuilds bottom-up through the factory
    constructors, which re-establish the canonical (id-ordered)
    argument order and re-intern every node.
    """

    def __init__(self) -> None:
        self._op = array("b")
        self._width = array("q")
        self._first = array("q")  # offset into _args
        self._nargs = array("q")
        self._args = array("q")  # flattened child indices
        self._payload: list = []  # leaf data / extract bounds; None inside
        self._intern: dict[tuple, int] = {}
        # Process-local caches (not pickled).
        self._encode_memo: dict[int, int] = {}
        self._terms: list = []  # idx -> decoded Term (default factory)

    def __len__(self) -> int:
        return len(self._op)

    # -- the term-aware pickler ---------------------------------------------

    @classmethod
    def dumps(cls, obj) -> bytes:
        """Pickle ``obj`` with every :class:`Term` in it, wherever it sits
        (a key, a value, a field of a record), carried by one arena."""
        arena, payload = cls(), io.BytesIO()
        pickler = pickle.Pickler(payload, pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda o: arena.encode(o) if type(o) is Term else None
        pickler.dump(obj)
        return pickle.dumps((arena, payload.getvalue()), pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def loads(raw: bytes):
        """The inverse of :meth:`dumps`: every term comes back interned
        in this process's default factory."""
        arena, payload = pickle.loads(raw)
        unpickler = pickle.Unpickler(io.BytesIO(payload))
        unpickler.persistent_load = arena.decode
        return unpickler.load()

    # -- pickling -----------------------------------------------------------

    def __getstate__(self):
        return {
            "op": self._op,
            "width": self._width,
            "first": self._first,
            "nargs": self._nargs,
            "args": self._args,
            "payload": self._payload,
        }

    def __setstate__(self, state) -> None:
        self._op = state["op"]
        self._width = state["width"]
        self._first = state["first"]
        self._nargs = state["nargs"]
        self._args = state["args"]
        self._payload = state["payload"]
        self._encode_memo = {}
        self._terms = [None] * len(self._op)
        self._intern = {}
        for idx in range(len(self._op)):
            self._intern[self._key(idx)] = idx

    def _key(self, idx: int) -> tuple:
        first = self._first[idx]
        return (
            self._op[idx],
            tuple(self._args[first:first + self._nargs[idx]]),
            self._width[idx],
            self._payload[idx],
        )

    # -- construction -------------------------------------------------------

    def _mk(self, code: int, args: tuple, width: int, payload=None) -> int:
        if code in _COMM_BIN and args[1] < args[0]:
            args = (args[1], args[0])
        elif code in _NARY:
            args = tuple(sorted(args))
        key = (code, args, width, payload)
        idx = self._intern.get(key)
        if idx is not None:
            return idx
        idx = len(self._op)
        self._op.append(code)
        self._width.append(width)
        self._first.append(len(self._args))
        self._nargs.append(len(args))
        self._args.extend(args)
        self._payload.append(payload)
        self._terms.append(None)
        self._intern[key] = idx
        return idx

    # -- encode / decode ----------------------------------------------------

    def encode(self, term: Term) -> int:
        """Intern ``term``'s whole DAG; return the root's index."""
        memo = self._encode_memo
        root = memo.get(id(term))
        if root is not None:
            return root
        stack: list[tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in memo:
                continue
            if not expanded:
                stack.append((node, True))
                for child in node.args:
                    if id(child) not in memo:
                        stack.append((child, False))
                continue
            args = tuple(memo[id(child)] for child in node.args)
            idx = self._mk(OP_CODE[node.op], args, node.width, node.payload)
            memo[id(node)] = idx
            # Pin the decoded-Term cache too: keeps a strong reference to
            # ``node`` (so the id key can never alias a recycled address,
            # even for terms from short-lived private factories) and makes
            # the decode of anything we encoded free.
            if self._terms[idx] is None:
                self._terms[idx] = node
        return memo[id(term)]

    def decode(self, root: int) -> Term:
        """Rebuild the term at ``root`` through the default factory.

        Bottom-up through the factory constructors, so canonical argument
        order and hash-consing identity are re-established — the result
        ``is`` the term that would have been built in-process.
        """
        terms = self._terms
        if terms[root] is not None:
            return terms[root]
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            idx, expanded = stack.pop()
            if terms[idx] is not None:
                continue
            if not expanded:
                stack.append((idx, True))
                first = self._first[idx]
                for child in self._args[first:first + self._nargs[idx]]:
                    if terms[child] is None:
                        stack.append((child, False))
                continue
            terms[idx] = self._build(idx)
        return terms[root]

    def _build(self, idx: int) -> Term:
        code = self._op[idx]
        payload = self._payload[idx]
        width = self._width[idx]
        terms = self._terms
        first = self._first[idx]
        args = [terms[c] for c in self._args[first:first + self._nargs[idx]]]
        f = T.DEFAULT_FACTORY
        if code == _BVCONST:
            return f.bv_const(payload, width)
        if code == _BOOLCONST:
            return f.bool_const(payload)
        if code == _DATA_VAR:
            return f.data_var(payload, width)
        if code == _CONTROL_VAR:
            return f.control_var(payload, width)
        if code == _BOOLVAR:
            return f.bool_var(payload)
        if code == _EXTRACT:
            hi, lo = payload
            return f.extract(args[0], hi, lo)
        if code == _BAND:
            return f.bool_and(*args)
        if code == _BOR:
            return f.bool_or(*args)
        builder = _DECODE_BUILDERS[code]
        return builder(f, *args)

def _init_decode_builders() -> dict:
    f = T.TermFactory  # unbound methods: called as builder(factory, *args)
    return {
        _ADD: f.add,
        _SUB: f.sub,
        _MUL: f.mul,
        _AND: f.bv_and,
        _OR: f.bv_or,
        _XOR: f.bv_xor,
        _NOT: f.bv_not,
        _NEG: f.neg,
        _SHL: f.shl,
        _LSHR: f.lshr,
        _CONCAT: f.concat,
        _ITE: f.ite,
        _EQ: f.eq,
        _ULT: f.ult,
        _ULE: f.ule,
        _BNOT: f.bool_not,
    }


_DECODE_BUILDERS = _init_decode_builders()


# ---------------------------------------------------------------------------
# ClauseArena — flat clause storage for the CDCL core
# ---------------------------------------------------------------------------


class ClauseArena:
    """CNF clauses in one contiguous literal buffer.

    A clause is an integer reference (*cref*): its literals live at
    ``lits[start[cref] : start[cref] + size[cref]]``.  Learned flags,
    activities, and the dead mask are parallel arrays, so no clause is a
    Python object of its own.

    The CDCL solver's two-watched-literal scheme swaps the watched
    literals into slots 0/1 *in place*, exactly as the object core did
    with ``Clause.lits`` — positions within a clause's slice are
    mutable, the slice boundaries never change.
    """

    __slots__ = ("lits", "start", "size", "learned", "dead", "activity")

    def __init__(self) -> None:
        self.lits = array("i")
        self.start = array("q")
        self.size = array("i")
        self.learned = bytearray()
        self.dead = bytearray()
        self.activity = array("d")

    def __len__(self) -> int:
        return len(self.start)

    def add(self, literals, learned: bool = False) -> int:
        """Append a clause; returns its cref."""
        cref = len(self.start)
        self.start.append(len(self.lits))
        self.size.append(len(literals))
        self.lits.extend(literals)
        self.learned.append(1 if learned else 0)
        self.dead.append(0)
        self.activity.append(0.0)
        return cref
