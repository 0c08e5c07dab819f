"""Dead-path pruning and constant folding ahead of the cold pipeline.

``prune_program`` runs the :class:`AbstractInterpreter` once and rewrites
the pipeline controls' apply blocks:

* an ``if`` whose condition folded to a literal is replaced by its live
  branch (the dead branch — with any table applies, points, and CNF it
  would have produced — never reaches symexec or the encoder);
* an assignment whose stored value folded to a literal constant becomes
  a literal assignment.

**The rewrite is specialized-output-preserving by construction.** Every
decision is a condition the downstream simplifier reduces to the same
literal on the σ-image of the same interned terms, so the symbolic
executor short-circuits exactly the branches pruning deleted, and the
specializer folds exactly the assignments pruning folded (its literal
has the same value and the same ``_lhs_width``-derived width).  Pruning
therefore changes *what work the cold pipeline does*, never *what it
emits* — pinned by the pruned == unpruned differential tests.  The
gating mirrors the specializer's effort presets: nothing at ``none``,
branch removal at ``dce``/``full``, constant folding at ``full`` only —
and only statements the specializer itself would rewrite (apply-block
trees; never action bodies, never the parser) are touched.

On any analysis failure the pass degrades to the identity — the real
pipeline will report the error in its usual place.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.p4 import ast_nodes as ast
from repro.p4.types import TypeEnv

from repro.analysis.dataflow.engine import AbstractInterpreter, FoldFact

#: Effort presets, mirroring repro.engine.specialize (kept as literals so
#: the analysis layer does not import the engine layer).
EFFORT_NONE = "none"
EFFORT_DCE = "dce"
EFFORT_FULL = "full"


@dataclass
class PruneReport:
    """What the prune pass did (or why it did nothing)."""

    enabled: bool = True
    analysis_failed: bool = False
    removed_branches: int = 0
    folded_constants: int = 0

    @property
    def changed(self) -> bool:
        return bool(self.removed_branches or self.folded_constants)

    def summary(self) -> str:
        if not self.enabled:
            return "prune: disabled"
        if self.analysis_failed:
            return "prune: skipped (analysis failed)"
        return (
            f"prune: {self.removed_branches} branches removed, "
            f"{self.folded_constants} constants folded"
        )


def prune_program(
    program: ast.Program,
    env: Optional[TypeEnv] = None,
    *,
    effort: str = EFFORT_FULL,
    skip_parser: bool = False,
) -> tuple[ast.Program, PruneReport]:
    """Prune ``program``; returns the (possibly identical) program and report."""
    if effort == EFFORT_NONE:
        return program, PruneReport(enabled=False)
    env = env if env is not None else TypeEnv(program)
    interp = AbstractInterpreter(program, env, skip_parser=skip_parser)
    try:
        interp.run()
    except Exception:
        return program, PruneReport(analysis_failed=True)
    report = PruneReport()
    rewriter = _Rewriter(
        interp,
        env,
        enable_dce=effort in (EFFORT_DCE, EFFORT_FULL),
        enable_fold=effort == EFFORT_FULL,
        report=report,
    )
    pipeline = program.pipeline
    new_decls: list = []
    changed = False
    for decl in program.declarations:
        if isinstance(decl, ast.ControlDecl) and decl.name in pipeline.controls:
            rewritten = rewriter.control(decl)
            changed = changed or rewritten is not decl
            new_decls.append(rewritten)
        else:
            new_decls.append(decl)
    if not changed:
        return program, report
    return ast.Program(tuple(new_decls)), report


class _Rewriter:
    """Rewrites apply-block trees using the interpreter's stable facts."""

    def __init__(
        self,
        interp: AbstractInterpreter,
        env: TypeEnv,
        enable_dce: bool,
        enable_fold: bool,
        report: PruneReport,
    ) -> None:
        self.interp = interp
        self.env = env
        self.enable_dce = enable_dce
        self.enable_fold = enable_fold
        self.report = report
        self._current: Optional[ast.ControlDecl] = None

    def control(self, decl: ast.ControlDecl) -> ast.ControlDecl:
        self._current = decl
        rewritten = self.block(decl.apply)
        self._current = None
        if rewritten is decl.apply:
            return decl
        return dataclasses.replace(decl, apply=rewritten)

    def block(self, block: ast.Block) -> ast.Block:
        statements: list = []
        changed = False
        for stmt in block.statements:
            out = self.stmt(stmt)
            if len(out) != 1 or out[0] is not stmt:
                changed = True
            statements.extend(out)
        if not changed:
            return block
        return ast.Block(tuple(statements))

    def stmt(self, stmt: object) -> list:
        if isinstance(stmt, ast.IfStmt):
            return self._rw_if(stmt)
        if isinstance(stmt, ast.AssignStmt):
            return [self._rw_assign(stmt)]
        if isinstance(stmt, ast.SwitchStmt):
            return [self._rw_switch(stmt)]
        return [stmt]

    def _rw_if(self, stmt: ast.IfStmt) -> list:
        if self.enable_dce:
            decision = self.interp.decisions.get(id(stmt))
            if decision is True:
                self.report.removed_branches += 1
                return list(self.block(stmt.then).statements)
            if decision is False:
                self.report.removed_branches += 1
                if stmt.orelse is None:
                    return []
                return list(self.block(stmt.orelse).statements)
        then = self.block(stmt.then)
        orelse = self.block(stmt.orelse) if stmt.orelse is not None else None
        if then is stmt.then and orelse is stmt.orelse:
            return [stmt]
        return [ast.IfStmt(stmt.cond, then, orelse)]

    def _rw_assign(self, stmt: ast.AssignStmt) -> ast.AssignStmt:
        if not self.enable_fold:
            return stmt
        fact = self.interp.folds.get(id(stmt))
        if (
            fact is not None
            and not isinstance(stmt.rhs, (ast.IntLit, ast.BoolLit))
            and not isinstance(stmt.lhs, ast.Slice)
        ):
            width = self._lhs_width(stmt.lhs)
            # The declared width must agree with the store slot's width;
            # when it doesn't (it always should), skipping the fold is
            # safe — the specializer folds the surviving statement the
            # same way in both the pruned and unpruned runs.
            if width is not None and width == fact.width:
                self.report.folded_constants += 1
                return ast.AssignStmt(stmt.lhs, ast.IntLit(fact.value, width))
        return stmt

    def _rw_switch(self, stmt: ast.SwitchStmt) -> ast.SwitchStmt:
        cases: list = []
        changed = False
        for case in stmt.cases:
            body = self.block(case.body)
            if body is case.body:
                cases.append(case)
            else:
                changed = True
                cases.append(dataclasses.replace(case, body=body))
        if not changed:
            return stmt
        return ast.SwitchStmt(stmt.table, tuple(cases))

    def _lhs_width(self, lhs: ast.Expr) -> Optional[int]:
        """The width the specializer would give a folded literal.

        Mirrors ``Specializer._lhs_width`` exactly — same scope
        construction, same boolean opt-out, same exception fallback — so
        a pruned fold and an unpruned specializer fold print identically.
        """
        from repro.p4.types import scope_for_params, type_of

        assert self._current is not None
        try:
            scope = scope_for_params(self.env, self._current.params)
            for local in self._current.locals:
                if isinstance(local, ast.VarDeclStmt):
                    scope.bind(local.name, local.type)
            t = type_of(lhs, scope)
            resolved = self.env.resolve(t)
            if isinstance(resolved, ast.BoolType):
                return None  # keep booleans textual
            return self.env.width_of(resolved)
        except Exception:
            return None


__all__ = [
    "EFFORT_DCE",
    "EFFORT_FULL",
    "EFFORT_NONE",
    "FoldFact",
    "PruneReport",
    "prune_program",
]
