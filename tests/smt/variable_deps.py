"""The specification of delta substitution's propagation, for the tests.

:func:`variable_dependencies` names every variable a memoised result can
depend on; :class:`~repro.smt.substitute.DeltaSubstitution` reaches the
same entries by walking parent edges up from the changed variables, and
the tests check one against the other.  Nothing under ``src/`` needs it.
"""

from __future__ import annotations

from repro.smt.terms import Term

#: Term → frozenset of variable names occurring in it.  A pure function of
#: the (immutable) term; keyed on the Term itself so the memo owns strong
#: references.
_VAR_DEPS: dict[Term, frozenset] = {}

_EMPTY_DEPS: frozenset = frozenset()


def variable_dependencies(term: Term) -> frozenset:
    """Names of all variable leaves reachable from ``term`` (memoized):
    a memoised result for ``term`` can move only when the mapping of one
    of these names changes."""
    cached = _VAR_DEPS.get(term)
    if cached is not None:
        return cached
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in _VAR_DEPS:
            continue
        if not expanded:
            stack.append((node, True))
            for child in node.args:
                if child not in _VAR_DEPS:
                    stack.append((child, False))
            continue
        if node.is_var:
            deps: frozenset = frozenset((node.payload,))
        elif not node.args:
            deps = _EMPTY_DEPS
        else:
            child_deps = [_VAR_DEPS[arg] for arg in node.args]
            deps = child_deps[0]
            for extra in child_deps[1:]:
                if not (extra <= deps):
                    deps = deps | extra
        _VAR_DEPS[node] = deps
    return _VAR_DEPS[term]

