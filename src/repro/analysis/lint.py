"""``repro lint`` — positioned static diagnostics over a parsed program.

Two diagnostic sources share one report:

* **Static checks** walk the AST with the type environment: width
  truncation in assignments, shadowed/duplicate select and switch cases,
  switch arms naming actions their table cannot run, actions no table or
  call site references, and straight-line write-after-write sequences
  (via :func:`repro.analysis.dataflow.effects.dead_writes`).
* **Abstract-interpretation checks** run the
  :class:`~repro.analysis.dataflow.engine.AbstractInterpreter` with an
  observer: reads of header fields whose validity is ``false`` on every
  abstract path (uninitialized header read), and if-branches whose
  condition folds to a literal (unreachable branch).  Both inherit the
  interpreter's conflict discipline — a statement observed in two
  disagreeing contexts reports nothing.

Every diagnostic carries the :class:`~repro.errors.SourcePos` of the
offending construct (statement, case, or declaration name), a stable
``code``, and a severity; ``max_severity``/``--fail-on`` turn the report
into an exit status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import SourcePos
from repro.ir.deps import _DST_WRITE_METHODS, _expr_fields
from repro.p4 import ast_nodes as ast
from repro.p4.types import (
    TypeEnv,
    Scope,
    eval_const_expr,
    scope_for_params,
    type_of,
)
from repro.smt import terms as T

from repro.analysis.symexec import VALID_SUFFIX, _Context, _Unit
from repro.analysis.dataflow.effects import dead_writes
from repro.analysis.dataflow.engine import AbstractInterpreter, Observer

SEVERITY_INFO = "info"
SEVERITY_WARNING = "warning"
SEVERITY_ERROR = "error"

#: Rank order for ``--fail-on`` comparisons.
SEVERITY_RANK = {SEVERITY_INFO: 0, SEVERITY_WARNING: 1, SEVERITY_ERROR: 2}

# Diagnostic codes.
UNINITIALIZED_HEADER_READ = "uninitialized-header-read"
UNREACHABLE_BRANCH = "unreachable-branch"
SHADOWED_SELECT_CASE = "shadowed-select-case"
SHADOWED_SWITCH_CASE = "shadowed-switch-case"
UNREACHABLE_SWITCH_CASE = "unreachable-switch-case"
WIDTH_TRUNCATION = "width-truncation"
DEAD_ACTION = "dead-action"
WRITE_AFTER_WRITE = "write-after-write"

_DEFAULT_SEVERITY = {
    UNINITIALIZED_HEADER_READ: SEVERITY_ERROR,
    UNREACHABLE_BRANCH: SEVERITY_WARNING,
    SHADOWED_SELECT_CASE: SEVERITY_WARNING,
    SHADOWED_SWITCH_CASE: SEVERITY_WARNING,
    UNREACHABLE_SWITCH_CASE: SEVERITY_WARNING,
    WIDTH_TRUNCATION: SEVERITY_WARNING,
    DEAD_ACTION: SEVERITY_INFO,
    WRITE_AFTER_WRITE: SEVERITY_WARNING,
}


@dataclass(frozen=True)
class Diagnostic:
    """One positioned finding."""

    code: str
    severity: str
    message: str
    pos: Optional[SourcePos]
    unit: str  # enclosing parser/control (or action) name, for grouping

    def render(self) -> str:
        where = str(self.pos) if self.pos is not None else "-"
        return f"{where}: {self.severity}: [{self.code}] {self.message}"


@dataclass
class LintReport:
    diagnostics: list

    def max_severity(self) -> Optional[str]:
        worst = None
        for diag in self.diagnostics:
            if worst is None or SEVERITY_RANK[diag.severity] > SEVERITY_RANK[worst]:
                worst = diag.severity
        return worst

    def at_least(self, severity: str) -> list:
        floor = SEVERITY_RANK[severity]
        return [d for d in self.diagnostics if SEVERITY_RANK[d.severity] >= floor]

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for diag in self.diagnostics:
            out[diag.severity] = out.get(diag.severity, 0) + 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        parts = [
            f"{counts[s]} {s}{'s' if counts[s] != 1 else ''}"
            for s in (SEVERITY_ERROR, SEVERITY_WARNING, SEVERITY_INFO)
            if s in counts
        ]
        return ", ".join(parts) if parts else "no findings"


def lint_program(
    program: ast.Program,
    env: Optional[TypeEnv] = None,
    *,
    skip_parser: bool = False,
) -> LintReport:
    """Lint ``program``; diagnostics come back in source order."""
    env = env if env is not None else TypeEnv(program)
    linter = _Linter(program, env, skip_parser=skip_parser)
    return LintReport(linter.run())


class _Linter:
    def __init__(
        self, program: ast.Program, env: TypeEnv, skip_parser: bool
    ) -> None:
        self.program = program
        self.env = env
        self.skip_parser = skip_parser
        self.diags: list[Diagnostic] = []

    def run(self) -> list[Diagnostic]:
        try:
            has_pipeline = self.program.pipeline is not None
        except KeyError:
            has_pipeline = False
        for decl in self.program.declarations:
            if isinstance(decl, ast.ControlDecl):
                self._lint_control(decl)
            elif isinstance(decl, ast.ParserDecl):
                self._lint_parser(decl)
        if has_pipeline:
            self._lint_abstract()
        self.diags.sort(
            key=lambda d: (
                d.pos is None,
                d.pos.line if d.pos else 0,
                d.pos.column if d.pos else 0,
                d.code,
            )
        )
        return self.diags

    def _emit(
        self,
        code: str,
        message: str,
        pos: Optional[SourcePos],
        unit: str,
    ) -> None:
        self.diags.append(
            Diagnostic(code, _DEFAULT_SEVERITY[code], message, pos, unit)
        )

    # -- static checks: controls -------------------------------------------

    def _lint_control(self, decl: ast.ControlDecl) -> None:
        scope = scope_for_params(self.env, decl.params)
        tables: dict[str, ast.TableDecl] = {}
        actions: dict[str, ast.ActionDecl] = {}
        for local in decl.locals:
            if isinstance(local, ast.VarDeclStmt):
                try:
                    scope.bind(local.name, local.type)
                except Exception:
                    pass
            elif isinstance(local, ast.TableDecl):
                tables[local.name] = local
            elif isinstance(local, ast.ActionDecl):
                actions[local.name] = local

        referenced: set[str] = set()
        for table in tables.values():
            referenced.update(ref.name for ref in table.actions)
            if table.default_action is not None:
                referenced.add(table.default_action.name)
        for stmt in _walk_stmts(decl.apply):
            if (
                isinstance(stmt, ast.MethodCallStmt)
                and stmt.call.target is None
                and stmt.call.method in actions
            ):
                referenced.add(stmt.call.method)
        # Actions calling other actions keep their callees live.
        grew = True
        while grew:
            grew = False
            for name in list(referenced):
                action = actions.get(name)
                if action is None:
                    continue
                for stmt in _walk_stmts(action.body):
                    if (
                        isinstance(stmt, ast.MethodCallStmt)
                        and stmt.call.target is None
                        and stmt.call.method in actions
                        and stmt.call.method not in referenced
                    ):
                        referenced.add(stmt.call.method)
                        grew = True
        for name, action in actions.items():
            if name not in referenced:
                self._emit(
                    DEAD_ACTION,
                    f"action {name!r} is not referenced by any table or call",
                    action.pos,
                    decl.name,
                )

        for action in actions.values():
            action_scope = scope.child()
            for param in action.params:
                try:
                    action_scope.bind(param.name, param.type)
                except Exception:
                    pass
            params = frozenset(p.name for p in action.params)
            self._lint_block(
                action.body,
                action_scope,
                f"{decl.name}.{action.name}",
                tables,
                params,
            )
        self._lint_block(decl.apply, scope, decl.name, tables, frozenset())

    def _lint_block(
        self,
        block: ast.Block,
        scope: Scope,
        unit: str,
        tables: dict,
        params: frozenset,
    ) -> None:
        for stmt in _walk_stmts(block):
            if isinstance(stmt, ast.AssignStmt):
                self._check_truncation(stmt, scope, unit)
            elif isinstance(stmt, ast.SwitchStmt):
                self._check_switch(stmt, tables.get(stmt.table), unit)
        for dead in dead_writes(block, params):
            first_at = (
                f" (first written at {dead.first.pos})"
                if dead.first.pos is not None
                else ""
            )
            self._emit(
                WRITE_AFTER_WRITE,
                f"{dead.path!r} is overwritten before any read{first_at}",
                dead.second.pos,
                unit,
            )

    def _check_truncation(
        self, stmt: ast.AssignStmt, scope: Scope, unit: str
    ) -> None:
        if isinstance(stmt.lhs, ast.Slice):
            return  # explicit sub-field write
        try:
            lhs_t = self.env.resolve(type_of(stmt.lhs, scope))
        except Exception:
            return
        if not isinstance(lhs_t, ast.BitType) or lhs_t.width <= 0:
            return
        lhs_width = lhs_t.width
        rhs = stmt.rhs
        if isinstance(rhs, ast.IntLit):
            if rhs.width is not None and rhs.width > lhs_width:
                self._emit(
                    WIDTH_TRUNCATION,
                    f"assigning {rhs.width}-bit literal to "
                    f"{lhs_width}-bit field drops high bits",
                    stmt.pos,
                    unit,
                )
            elif rhs.width is None and rhs.value >= (1 << lhs_width):
                self._emit(
                    WIDTH_TRUNCATION,
                    f"literal {rhs.value} does not fit in "
                    f"{lhs_width} bits",
                    stmt.pos,
                    unit,
                )
            return
        if isinstance(rhs, ast.Cast):
            return  # explicit narrowing
        try:
            rhs_t = self.env.resolve(type_of(rhs, scope))
        except Exception:
            return
        if isinstance(rhs_t, ast.BitType) and 0 < lhs_width < rhs_t.width:
            self._emit(
                WIDTH_TRUNCATION,
                f"assigning {rhs_t.width}-bit value to "
                f"{lhs_width}-bit field drops high bits",
                stmt.pos,
                unit,
            )

    def _check_switch(
        self, stmt: ast.SwitchStmt, table: Optional[ast.TableDecl], unit: str
    ) -> None:
        known: Optional[set[str]] = None
        if table is not None:
            known = {ref.name for ref in table.actions}
            if table.default_action is not None:
                known.add(table.default_action.name)
        seen: set[Optional[str]] = set()
        for case in stmt.cases:
            if case.action in seen:
                label = case.action if case.action is not None else "default"
                self._emit(
                    SHADOWED_SWITCH_CASE,
                    f"duplicate switch arm {label!r} is never selected",
                    case.pos,
                    unit,
                )
                continue
            seen.add(case.action)
            if (
                case.action is not None
                and known is not None
                and case.action not in known
            ):
                self._emit(
                    UNREACHABLE_SWITCH_CASE,
                    f"switch arm {case.action!r} is not an action of "
                    f"table {stmt.table!r}",
                    case.pos,
                    unit,
                )

    # -- static checks: parsers --------------------------------------------

    def _lint_parser(self, decl: ast.ParserDecl) -> None:
        scope = scope_for_params(self.env, decl.params)
        for local in decl.locals:
            if isinstance(local, ast.VarDeclStmt):
                try:
                    scope.bind(local.name, local.type)
                except Exception:
                    pass
        for state in decl.states:
            unit = f"{decl.name}.{state.name}"
            block = ast.Block(state.statements)
            for stmt in _walk_stmts(block):
                if isinstance(stmt, ast.AssignStmt):
                    self._check_truncation(stmt, scope, unit)
            for dead in dead_writes(block):
                first_at = (
                    f" (first written at {dead.first.pos})"
                    if dead.first.pos is not None
                    else ""
                )
                self._emit(
                    WRITE_AFTER_WRITE,
                    f"{dead.path!r} is overwritten before any read{first_at}",
                    dead.second.pos,
                    unit,
                )
            if isinstance(state.transition, ast.TransitionSelect):
                self._check_select(state.transition, unit)

    def _check_select(self, select: ast.TransitionSelect, unit: str) -> None:
        seen: set[tuple] = set()
        caught_all = False
        for case in select.cases:
            if caught_all:
                self._emit(
                    SHADOWED_SELECT_CASE,
                    "select case follows a catch-all default case",
                    case.pos,
                    unit,
                )
                continue
            signature = self._case_signature(case)
            if signature is not None and signature in seen:
                self._emit(
                    SHADOWED_SELECT_CASE,
                    "select case repeats an earlier keyset",
                    case.pos,
                    unit,
                )
                continue
            if signature is not None:
                seen.add(signature)
            if all(key.is_default for key in case.keys):
                caught_all = True

    def _case_signature(self, case: ast.SelectCase) -> Optional[tuple]:
        parts: list = []
        for key in case.keys:
            if key.is_default:
                parts.append(("default",))
            elif key.value_set_name is not None:
                parts.append(("set", key.value_set_name))
            else:
                value = eval_const_expr(key.value, self.env)
                if value is None:
                    return None  # not comparable
                mask = (
                    eval_const_expr(key.mask, self.env)
                    if key.mask is not None
                    else None
                )
                if key.mask is not None and mask is None:
                    return None
                parts.append(("value", value, mask))
        return tuple(parts)

    # -- abstract-interpretation checks ------------------------------------

    def _lint_abstract(self) -> None:
        observer = _AbstractObserver()
        interp = AbstractInterpreter(
            self.program,
            self.env,
            skip_parser=self.skip_parser,
            observer=observer,
        )
        try:
            interp.run()
        except Exception:
            return  # front-end errors surface through the normal pipeline
        for (node_id, field), (stmt, owner, unit_name) in sorted(
            observer.candidates.items(), key=lambda item: item[0][1]
        ):
            self._emit(
                UNINITIALIZED_HEADER_READ,
                f"field {field!r} is read while header {owner!r} "
                "is never valid",
                stmt.pos,
                unit_name,
            )
        for decl in self.program.declarations:
            units: list[tuple[str, ast.Block]] = []
            if isinstance(decl, ast.ControlDecl):
                units.append((decl.name, decl.apply))
                for local in decl.locals:
                    if isinstance(local, ast.ActionDecl):
                        units.append((f"{decl.name}.{local.name}", local.body))
            elif isinstance(decl, ast.ParserDecl):
                for state in decl.states:
                    units.append(
                        (f"{decl.name}.{state.name}", ast.Block(state.statements))
                    )
            for unit_name, block in units:
                for stmt in _walk_stmts(block):
                    if not isinstance(stmt, ast.IfStmt):
                        continue
                    decision = interp.decisions.get(id(stmt))
                    if decision is True and stmt.orelse is not None:
                        self._emit(
                            UNREACHABLE_BRANCH,
                            "condition is always true; "
                            "the else branch is unreachable",
                            stmt.pos,
                            unit_name,
                        )
                    elif decision is False:
                        self._emit(
                            UNREACHABLE_BRANCH,
                            "condition is always false; "
                            "the then branch is unreachable",
                            stmt.pos,
                            unit_name,
                        )


class _AbstractObserver(Observer):
    """Tracks definitely-invalid header reads across abstract executions.

    A candidate survives only if *every* execution of the statement saw
    the owning header's validity at literal false — one execution in a
    context where it may be valid clears the finding (the same
    conflicting-fact discipline the interpreter applies to decisions).
    """

    def __init__(self) -> None:
        # (stmt id, field) → (stmt, owning header, unit name)
        self.candidates: dict[tuple[int, str], tuple] = {}
        self.cleared: set[tuple[int, str]] = set()

    def enter_stmt(self, stmt: object, unit: _Unit, ctx: _Context) -> None:
        for field in _stmt_reads(stmt):
            if field.endswith(VALID_SUFFIX):
                continue  # isValid() guards are the fix, not the bug
            owner = _owning_header(ctx, field)
            if owner is None:
                continue
            key = (id(stmt), field)
            if key in self.cleared:
                continue
            validity = ctx.store.read(owner + VALID_SUFFIX)
            if validity is T.FALSE:
                self.candidates[key] = (stmt, owner, unit.name)
            else:
                self.cleared.add(key)
                self.candidates.pop(key, None)


def _owning_header(ctx: _Context, field: str) -> Optional[str]:
    """The longest store prefix of ``field`` that has a validity slot."""
    parts = field.split(".")
    for i in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:i])
        if ctx.store.has(prefix + VALID_SUFFIX):
            return prefix
    return None


def _stmt_reads(stmt: object) -> set[str]:
    """Fields this statement itself reads (nested blocks excluded)."""
    if isinstance(stmt, ast.AssignStmt):
        fields = _expr_fields(stmt.rhs)
        if isinstance(stmt.lhs, ast.Slice):
            fields |= _expr_fields(stmt.lhs.expr)
        return fields
    if isinstance(stmt, ast.IfStmt):
        return _expr_fields(stmt.cond)
    if isinstance(stmt, ast.VarDeclStmt):
        return _expr_fields(stmt.init) if stmt.init is not None else set()
    if isinstance(stmt, ast.MethodCallStmt):
        call = stmt.call
        if call.method == "pkt_extract":
            return set()  # the extract argument is a write
        if call.method in _DST_WRITE_METHODS and call.args:
            fields: set[str] = set()
            for arg in call.args[1:]:
                fields |= _expr_fields(arg)
            return fields
        fields = set()
        for arg in call.args:
            fields |= _expr_fields(arg)
        return fields
    return set()


def _walk_stmts(block: ast.Block) -> Iterator[object]:
    """Every statement in ``block``, recursively, in source order."""
    for stmt in block.statements:
        yield stmt
        if isinstance(stmt, ast.IfStmt):
            yield from _walk_stmts(stmt.then)
            if stmt.orelse is not None:
                yield from _walk_stmts(stmt.orelse)
        elif isinstance(stmt, ast.SwitchStmt):
            for case in stmt.cases:
                yield from _walk_stmts(case.body)


__all__ = [
    "DEAD_ACTION",
    "Diagnostic",
    "LintReport",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_RANK",
    "SEVERITY_WARNING",
    "SHADOWED_SELECT_CASE",
    "SHADOWED_SWITCH_CASE",
    "UNINITIALIZED_HEADER_READ",
    "UNREACHABLE_BRANCH",
    "UNREACHABLE_SWITCH_CASE",
    "WIDTH_TRUNCATION",
    "WRITE_AFTER_WRITE",
    "lint_program",
]
