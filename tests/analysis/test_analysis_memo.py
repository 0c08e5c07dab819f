"""The run-long analysis memos change no answer.

The symbolic executor passes one ``simplify`` memo to every ``simplify``
it makes, and reads each point's taint from a run-long memo of
control-symbol names.  The reference here is the same analysis with
``simplify`` forced to a fresh memo on every call (patched in
``symexec`` and ``state``) and ``merge_stores`` called without one, and the taint recomputed point by
point with ``ProgramPoint.control_vars()``.
Terms are hash-consed, so "the same answer" is object identity.
"""

import pytest

from repro.analysis import state, symexec
from repro.analysis.symexec import SymbolicExecutor
from repro.engine.gate import VerdictGate
from repro.p4.types import TypeEnv
from repro.programs import registry
from repro.runtime.semantics import ControlPlaneState
from repro.smt.simplify import simplify

ZOO = ("scion", "switch", "middleblock", "dash", "beaucoup", "accturbo", "dta")


def _fresh_memo_simplify(monkeypatch):
    merge_stores = state.merge_stores

    def fresh(term, memo=None):
        return simplify(term)

    def merge_without_memo(cond, then_store, else_store, memo=None):
        return merge_stores(cond, then_store, else_store)

    for module in (symexec, state):
        monkeypatch.setattr(module, "simplify", fresh)
    monkeypatch.setattr(symexec, "merge_stores", merge_without_memo)


def _analyses(name, monkeypatch):
    """(memoised, reference) models over one AST."""
    program = registry.load(name)
    env = TypeEnv(program)
    skip = registry.get(name).skip_parser
    runs = []
    for patch in (False, True):
        if patch:
            _fresh_memo_simplify(monkeypatch)
        runs.append(SymbolicExecutor(program, env, skip_parser=skip).analyze())
    monkeypatch.undo()
    return runs


@pytest.mark.parametrize("name", ZOO)
def test_memoised_analysis_builds_the_identical_terms(name, monkeypatch):
    model, ref = _analyses(name, monkeypatch)

    assert list(model.points) == list(ref.points)
    for pid, point in model.points.items():
        assert point.expr is ref.points[pid].expr, pid

    assert list(model.final_store) == list(ref.final_store)
    for path, value in model.final_store.items():
        assert value is ref.final_store[path], path

    assert list(model.tables) == list(ref.tables)
    for table, info in model.tables.items():
        ref_info = ref.tables[table]
        assert [k.term for k in info.keys] == [k.term for k in ref_info.keys]
        for key, ref_key in zip(info.keys, ref_info.keys):
            assert key.term is ref_key.term, table
        assert info.apply_condition is ref_info.apply_condition, table

    expected_taint: dict = {}
    for pid, point in ref.points.items():
        for var in point.control_vars():
            expected_taint.setdefault(var, set()).add(pid)
    assert model.taint == expected_taint
    assert ref.taint == expected_taint


@pytest.mark.parametrize("name", ZOO)
def test_gate_deps_match_per_point_control_vars(name):
    entry = registry.get(name)
    model = symexec.analyze(registry.load(name), skip_parser=entry.skip_parser)
    gate = VerdictGate(model, ControlPlaneState(model), threshold=None)

    owner: dict = {}
    for table, info in model.tables.items():
        for var in info.control_var_names():
            owner[var] = (0, table)
    for value_set, info in model.value_sets.items():
        for var in info.control_var_names():
            owner[var] = (1, value_set)
    expected: dict = {}
    for pid, point in model.points.items():
        if point.kind not in ("if", "select"):
            continue
        found: tuple = (set(), set())
        for var in point.control_vars():
            if var in owner:
                slot, dep = owner[var]
                found[slot].add(dep)
        expected[pid] = tuple(tuple(sorted(names)) for names in found)
    assert gate._deps == expected
    assert list(gate._deps) == list(expected)
