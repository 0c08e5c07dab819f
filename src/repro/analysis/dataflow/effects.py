"""Dead (overwritten-before-read) writes, for the ``repro lint`` client.

A straight-line walk over one block: a write whose value is definitely
overwritten before any read is reported.  Field naming is the table
dependency graph's (flattened lvalue paths, bare identifiers for
locals); the field extraction helpers are :mod:`repro.ir.deps`' own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.ir.deps import _DST_WRITE_METHODS, _expr_fields, _maybe_path
from repro.p4 import ast_nodes as ast

#: Stateful externs whose arguments are only read.
_READ_ONLY_METHODS = ("count", "execute", "write")


@dataclass(frozen=True)
class DeadWrite:
    """A write whose value is definitely overwritten before any read."""

    first: ast.AssignStmt
    second: object  # the overwriting statement
    path: str


def dead_writes(
    block: ast.Block, params: frozenset[str] = frozenset()
) -> list[DeadWrite]:
    """Writes whose value is provably overwritten before any read.

    The walk is intentionally conservative: any branch, table apply, or
    unresolvable call acts as a barrier that forgets pending writes, so
    every report is a straight-line certainty.
    """
    found: list[DeadWrite] = []
    _dead_walk(block, params, {}, found)
    return found


def _dead_walk(
    block: ast.Block,
    params: frozenset[str],
    pending: dict[str, ast.AssignStmt],
    found: list[DeadWrite],
) -> None:
    for stmt in block.statements:
        if isinstance(stmt, ast.AssignStmt):
            _forget_reads(_expr_fields(stmt.rhs), pending)
            if isinstance(stmt.lhs, ast.Slice):
                path = _maybe_path(stmt.lhs.expr)
                if path is not None:
                    pending.pop(path, None)
                continue
            path = _maybe_path(stmt.lhs)
            if path is None or path in params:
                continue
            previous = pending.get(path)
            if previous is not None:
                found.append(DeadWrite(previous, stmt, path))
            pending[path] = stmt
        elif isinstance(stmt, ast.IfStmt):
            _forget_reads(_expr_fields(stmt.cond), pending)
            _dead_walk(stmt.then, params, {}, found)
            if stmt.orelse is not None:
                _dead_walk(stmt.orelse, params, {}, found)
            pending.clear()
        elif isinstance(stmt, ast.SwitchStmt):
            for case in stmt.cases:
                _dead_walk(case.body, params, {}, found)
            pending.clear()
        elif isinstance(stmt, ast.MethodCallStmt):
            call = stmt.call
            if call.method in ("setValid", "setInvalid", "mark_to_drop"):
                continue
            if call.method in _DST_WRITE_METHODS and call.args:
                for arg in call.args[1:]:
                    _forget_reads(_expr_fields(arg), pending)
                path = _maybe_path(call.args[0])
                if path is not None:
                    pending.pop(path, None)
                continue
            if call.method in _READ_ONLY_METHODS:
                for arg in call.args:
                    _forget_reads(_expr_fields(arg), pending)
                continue
            # Table applies and direct action calls read and write
            # unknown state: barrier.
            pending.clear()
        elif isinstance(stmt, (ast.ExitStmt, ast.ReturnStmt)):
            pending.clear()
        else:
            pending.clear()


def _forget_reads(fields: Iterable[str], pending: dict[str, ast.AssignStmt]) -> None:
    for field in fields:
        pending.pop(field, None)
