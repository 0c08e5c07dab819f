"""Abstract interpretation over the parsed program.

:class:`AbstractInterpreter` re-executes the whole pipeline in the
*symbolic constant domain*: the abstract store is a real
:class:`~repro.analysis.state.SymbolicStore` whose values are hash-consed
terms — literal constants, the executor's own initial data symbols, or
opaque placeholder variables standing for "some unknown value".
Expressions are translated by the *same* ``to_term`` machinery the
symbolic executor uses and reduced by the *same* simplifier, so every
definite fact the interpreter derives (a condition folding to literal
true/false, a store slot holding a literal constant) is a fact the
downstream pipeline derives on the σ-image of the same terms.  That
subset property is the soundness argument for the prune client: see
DESIGN.md ("Static analysis framework").

Differences from the symbolic executor, all precision-losing and
therefore safe:

* Control-plane outcomes (table hit bits, action selectors, action data,
  value-set membership) are opaque placeholders instead of control
  symbols — nothing control-plane-dependent is ever "definite" here.
* The parser is solved as a worklist fixpoint over the state graph
  (linear in states, via :func:`fixpoint`)
  instead of the executor's per-path recursion; entry stores join at
  shared states through memoized per-state placeholders, which is what
  bounds the iteration.
* No program points, no taint, no model — the outputs are the
  ``decisions`` (if-conditions that folded to a literal) and ``folds``
  (store slots holding literal constants after an assignment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, TypeVar

from repro.analysis.state import SymbolicStore, merge_stores
from repro.analysis.symexec import (
    DROP_PATH,
    PARSER_ERROR_PATH,
    VALID_SUFFIX,
    AnalysisError,
    SymbolicExecutor,
    _Context,
    _find_local,
    _Unit,
)
from repro.p4 import ast_nodes as ast
from repro.p4.types import TypeEnv, eval_const_expr, lvalue_path
from repro.smt import simplify, terms as T
from repro.smt.simplify import constant_value
from repro.smt.terms import Term

#: Synthetic sink node joining the accept and reject exits of the parser.
_FINAL = "$final"

#: Selector width must mirror TableInfo.SELECTOR_WIDTH without importing
#: the model layer (kept in sync by tests/analysis/test_dataflow.py).
_SELECTOR_WIDTH = 8


N = TypeVar("N", bound=Hashable)
F = TypeVar("F")


def fixpoint(
    successors: Callable[[N], Iterable[N]],
    entry_facts: dict[N, F],
    transfer: Callable[[N, F], F],
    join_into: Callable[[N, F], bool],
    fact_at: Callable[[N], F],
) -> None:
    """Chaotic-iteration worklist solver over an explicit flow graph.

    Iteration starts from the ``entry_facts`` seeds and visits whatever
    ``successors`` reaches from there.  ``join_into(node, fact)`` merges
    ``fact`` into ``node``'s entry fact and returns True when the entry
    fact changed; ``fact_at`` reads the current entry fact.  Termination
    is the caller's business (the interpreter's per-state placeholders
    bound every chain).
    """
    worklist: list[N] = []
    seen: set[N] = set()
    for node, fact in entry_facts.items():
        join_into(node, fact)
        if node not in seen:
            seen.add(node)
            worklist.append(node)
    while worklist:
        node = worklist.pop()
        seen.discard(node)
        out = transfer(node, fact_at(node))
        for succ in successors(node):
            if join_into(succ, out) and succ not in seen:
                seen.add(succ)
                worklist.append(succ)


@dataclass(frozen=True)
class FoldFact:
    """A store slot held a literal constant right after an assignment."""

    value: int
    width: int


class AbstractInterpreter:
    """One abstract execution of a program; see the module docstring."""

    def __init__(
        self,
        program: ast.Program,
        env: Optional[TypeEnv] = None,
        skip_parser: bool = False,
    ) -> None:
        self.program = program
        self.env = env if env is not None else TypeEnv(program)
        self.skip_parser = skip_parser
        # The executor instance supplies to_term/_infer_width/_initial_store;
        # those methods only touch self.env and the ctx/unit we pass in.
        self._sx = SymbolicExecutor(program, self.env, skip_parser)
        # The executor's run-long simplify memo, so this run also pays for
        # each subterm once; it dies with the interpreter.
        self._memo = self._sx._memo
        self.decisions: dict[int, bool] = {}
        self.folds: dict[int, FoldFact] = {}
        # Node ids whose repeated executions disagreed (parser fixpoint
        # iterations, shared action bodies, duplicated pipeline stages).
        # They mirror the specializer's conflicting-verdict drop: once a
        # node has been seen undecided or with two different outcomes, no
        # fact may be reported for it.
        self._decision_conflicts: set[int] = set()
        self._fold_conflicts: set[int] = set()
        self.applied_tables: set[str] = set()
        self._table_selectors: dict[str, Term] = {}
        self._table_codes: dict[str, dict[str, int]] = {}
        self._fresh_counter = 0
        self._state_placeholders: dict[tuple[str, str], Term] = {}

    # -- public API ---------------------------------------------------------

    def run(self) -> _Context:
        pipeline = self.program.pipeline
        ctx = _Context(
            store=self._sx._initial_store(), exited=T.FALSE, path_cond=T.TRUE
        )
        parser_decl = self.program.find(pipeline.parser)
        if not isinstance(parser_decl, ast.ParserDecl):
            raise AnalysisError(f"{pipeline.parser!r} is not a parser")
        if self.skip_parser:
            self._sx._assume_all_headers_valid(ctx)
        else:
            ctx = self._run_parser(parser_decl, ctx)
        for control_name in pipeline.controls:
            control = self.program.find(control_name)
            if not isinstance(control, ast.ControlDecl):
                raise AnalysisError(f"{control_name!r} is not a control")
            ctx = self._run_control(control, ctx)
        return ctx

    # -- placeholders -------------------------------------------------------

    def _fresh_bv(self, width: int) -> Term:
        self._fresh_counter += 1
        return T.data_var(f"$abs{self._fresh_counter}", width)

    def _fresh_bool(self) -> Term:
        self._fresh_counter += 1
        return T.bool_var(f"$abs{self._fresh_counter}")

    def _opaque_like(self, term: Term) -> Term:
        if term.is_bool:
            return self._fresh_bool()
        return self._fresh_bv(term.width)

    # -- parser fixpoint ----------------------------------------------------

    def _run_parser(self, decl: ast.ParserDecl, ctx: _Context) -> _Context:
        unit = _Unit(decl.name, decl)
        states = {state.name: state for state in decl.states}
        entry: dict[str, _Context] = {}

        def successors(name: str) -> list[str]:
            if name in (ast.ACCEPT, ast.REJECT):
                return [_FINAL]
            if name == _FINAL:
                return []
            state = states.get(name)
            if state is None:
                raise AnalysisError(f"unknown parser state {name!r}")
            transition = state.transition
            if isinstance(transition, ast.TransitionDirect):
                return [transition.state]
            # Every select case is treated as reachable, plus the
            # implicit no-match reject edge.
            succ = [case.state for case in transition.cases]
            succ.append(ast.REJECT)
            return succ

        def join_into(name: str, incoming: _Context) -> bool:
            current = entry.get(name)
            if current is None:
                entry[name] = incoming.fork()
                return True
            changed = False
            for path, value in incoming.store.items():
                if not current.store.has(path):
                    current.store.write(path, value)
                    changed = True
                    continue
                old = current.store.read(path)
                if old is value:
                    continue
                placeholder = self._state_placeholder(name, path, old)
                if old is not placeholder:
                    current.store.write(path, placeholder)
                    changed = True
            if incoming.exited is not current.exited:
                placeholder = self._state_placeholder(name, "$exited", T.TRUE)
                if current.exited is not placeholder:
                    current.exited = placeholder
                    changed = True
            return changed

        def transfer(name: str, fact: _Context) -> _Context:
            out = fact.fork()
            if name == ast.REJECT:
                self._write(out, PARSER_ERROR_PATH, T.TRUE)
                self._write(out, DROP_PATH, T.TRUE)
                return out
            if name in (ast.ACCEPT, _FINAL):
                return out
            state = states[name]
            for stmt in state.statements:
                self._exec_stmt(stmt, unit, out)
            return out

        fixpoint(
            successors,
            {"start": ctx},
            transfer,
            join_into,
            lambda name: entry[name],
        )
        final = entry.get(_FINAL)
        if final is None:
            # Parser with no path to accept or reject; keep the entry state.
            return ctx
        return transfer(_FINAL, final)

    def _state_placeholder(self, state: str, path: str, like: Term) -> Term:
        key = (state, path)
        cached = self._state_placeholders.get(key)
        if cached is None:
            cached = self._opaque_like(like)
            self._state_placeholders[key] = cached
        return cached

    # -- statements (mirrors SymbolicExecutor rule for rule) ----------------

    def _write(self, ctx: _Context, path: str, value: Term) -> None:
        if ctx.exited is T.FALSE:
            ctx.store.write(path, simplify(value, self._memo))
            return
        old = ctx.store.read(path) if ctx.store.has(path) else value
        ctx.store.write(path, simplify(T.ite(ctx.exited, old, value), self._memo))

    def _exec_block(self, block: ast.Block, unit: _Unit, ctx: _Context) -> None:
        for stmt in block.statements:
            self._exec_stmt(stmt, unit, ctx)

    def _exec_stmt(self, stmt: object, unit: _Unit, ctx: _Context) -> None:
        if isinstance(stmt, ast.AssignStmt):
            self._exec_assign(stmt, unit, ctx)
        elif isinstance(stmt, ast.VarDeclStmt):
            width = self.env.width_of(stmt.type)
            path = f"{unit.name}.{stmt.name}"
            if stmt.init is not None:
                value = self._sx.to_term(stmt.init, unit, ctx, width)
            else:
                value = T.bv_const(0, width)
            ctx.store.write(path, simplify(value, self._memo))
        elif isinstance(stmt, ast.IfStmt):
            self._exec_if(stmt, unit, ctx)
        elif isinstance(stmt, ast.MethodCallStmt):
            self._exec_call(stmt.call, unit, ctx)
        elif isinstance(stmt, ast.ExitStmt):
            ctx.exited = T.TRUE
        elif isinstance(stmt, ast.ReturnStmt):
            pass
        elif isinstance(stmt, ast.SwitchStmt):
            self._exec_switch(stmt, unit, ctx)
        else:
            raise AnalysisError(f"cannot execute statement {stmt!r}")

    def _exec_assign(self, stmt: ast.AssignStmt, unit: _Unit, ctx: _Context) -> None:
        if isinstance(stmt.lhs, ast.Slice):
            self._exec_slice_assign(stmt, unit, ctx)
            return
        path = lvalue_path(stmt.lhs)
        if not ctx.store.has(path):
            qualified = f"{unit.name}.{path}"
            if ctx.store.has(qualified):
                path = qualified
            else:
                raise AnalysisError(f"assignment to unknown path {path!r}")
        old = ctx.store.read(path)
        value = self._sx.to_term(stmt.rhs, unit, ctx, old.width)
        if old.is_bv and value.is_bv:
            # Truncated or zero-extended to the destination, as on the target.
            value = self._sx._cast(value, old.width)
        self._write(ctx, path, value)
        written = ctx.store.read(path)
        folded = constant_value(written)
        if folded is not None and not written.is_bool:
            self._record_fold(id(stmt), FoldFact(folded, written.width))
        else:
            self._fold_conflicts.add(id(stmt))
            self.folds.pop(id(stmt), None)

    def _record_fold(self, node_id: int, fact: FoldFact) -> None:
        if node_id in self._fold_conflicts:
            return
        previous = self.folds.get(node_id)
        if previous is not None and previous != fact:
            self._fold_conflicts.add(node_id)
            del self.folds[node_id]
            return
        self.folds[node_id] = fact

    def _record_decision(self, stmt: ast.IfStmt, value: bool) -> None:
        node_id = id(stmt)
        if node_id in self._decision_conflicts:
            return
        previous = self.decisions.get(node_id)
        if previous is not None and previous != value:
            self._decision_conflicts.add(node_id)
            del self.decisions[node_id]
            return
        self.decisions[node_id] = value

    def _exec_slice_assign(
        self, stmt: ast.AssignStmt, unit: _Unit, ctx: _Context
    ) -> None:
        lhs = stmt.lhs
        assert isinstance(lhs, ast.Slice)
        path = lvalue_path(lhs.expr)
        old = ctx.store.read(path)
        width = old.width
        piece = self._sx.to_term(stmt.rhs, unit, ctx, lhs.hi - lhs.lo + 1)
        parts: list[Term] = []
        if lhs.hi < width - 1:
            parts.append(T.extract(old, width - 1, lhs.hi + 1))
        parts.append(piece)
        if lhs.lo > 0:
            parts.append(T.extract(old, lhs.lo - 1, 0))
        value = parts[0]
        for part in parts[1:]:
            value = T.concat(value, part)
        self._write(ctx, path, value)

    def _exec_if(self, stmt: ast.IfStmt, unit: _Unit, ctx: _Context) -> None:
        cond = simplify(self._cond_term(stmt.cond, unit, ctx), self._memo)
        if cond is T.TRUE:
            self._record_decision(stmt, True)
            self._exec_block(stmt.then, unit, ctx)
            return
        if cond is T.FALSE:
            self._record_decision(stmt, False)
            if stmt.orelse is not None:
                self._exec_block(stmt.orelse, unit, ctx)
            return
        self._decision_conflicts.add(id(stmt))
        self.decisions.pop(id(stmt), None)
        then_ctx = ctx.fork()
        self._exec_block(stmt.then, unit, then_ctx)
        else_ctx = ctx.fork()
        if stmt.orelse is not None:
            self._exec_block(stmt.orelse, unit, else_ctx)
        ctx.store = merge_stores(cond, then_ctx.store, else_ctx.store, self._memo)
        ctx.exited = simplify(
            T.ite(cond, then_ctx.exited, else_ctx.exited), self._memo
        )

    def _cond_term(self, expr: ast.Expr, unit: _Unit, ctx: _Context) -> Term:
        if (
            isinstance(expr, ast.Member)
            and expr.name in ("hit", "miss")
            and isinstance(expr.expr, ast.MethodCall)
            and expr.expr.method == "apply"
        ):
            table_name = lvalue_path(expr.expr.target)
            hit = self._apply_table(table_name, unit, ctx)
            return hit if expr.name == "hit" else T.bool_not(hit)
        if isinstance(expr, ast.Unary) and expr.op == "!":
            return T.bool_not(self._cond_term(expr.expr, unit, ctx))
        return self._sx.to_term(expr, unit, ctx)

    def _exec_switch(self, stmt: ast.SwitchStmt, unit: _Unit, ctx: _Context) -> None:
        self._apply_table(stmt.table, unit, ctx)
        qualified = f"{unit.name}.{stmt.table}"
        selector = self._table_selectors[qualified]
        codes = self._table_codes[qualified]
        arms: list[tuple[Term, ast.Block]] = []
        default_body: Optional[ast.Block] = None
        for case in stmt.cases:
            if case.action is None:
                default_body = case.body
                continue
            code = codes[case.action]
            arms.append(
                (T.eq(selector, T.bv_const(code, _SELECTOR_WIDTH)), case.body)
            )
        self._exec_arm_chain(arms, default_body, unit, ctx)

    def _exec_arm_chain(
        self,
        arms: list[tuple[Term, ast.Block]],
        default_body: Optional[ast.Block],
        unit: _Unit,
        ctx: _Context,
    ) -> None:
        if not arms:
            if default_body is not None:
                self._exec_block(default_body, unit, ctx)
            return
        cond, body = arms[0]
        then_ctx = ctx.fork()
        self._exec_block(body, unit, then_ctx)
        else_ctx = ctx.fork()
        self._exec_arm_chain(arms[1:], default_body, unit, else_ctx)
        ctx.store = merge_stores(cond, then_ctx.store, else_ctx.store, self._memo)
        ctx.exited = simplify(
            T.ite(cond, then_ctx.exited, else_ctx.exited), self._memo
        )

    # -- calls --------------------------------------------------------------

    def _exec_call(self, call: ast.MethodCall, unit: _Unit, ctx: _Context) -> None:
        method = call.method
        if method == "apply" and call.target is not None:
            self._apply_table(lvalue_path(call.target), unit, ctx)
            return
        if method == "setValid" and call.target is not None:
            self._write(ctx, lvalue_path(call.target) + VALID_SUFFIX, T.TRUE)
            return
        if method == "setInvalid" and call.target is not None:
            self._write(ctx, lvalue_path(call.target) + VALID_SUFFIX, T.FALSE)
            return
        if method in ("count", "execute", "write"):
            return
        if method == "read" and call.target is not None:
            self._extern_assign(call.args[0], unit, ctx)
            return
        if method == "mark_to_drop":
            self._write(ctx, DROP_PATH, T.TRUE)
            return
        if method in ("hash", "update_checksum"):
            self._extern_assign(call.args[0], unit, ctx)
            return
        if method == "pkt_extract":
            header_path = lvalue_path(call.args[0])
            self._write(ctx, header_path + VALID_SUFFIX, T.TRUE)
            return
        action = self._sx._find_action_or_none(unit, method)
        if action is not None and call.target is None:
            bindings = dict(unit.bindings)
            for param, arg in zip(action.params, call.args):
                width = self.env.width_of(param.type)
                bindings[param.name] = self._sx.to_term(arg, unit, ctx, width)
            inner = _Unit(unit.name, unit.decl, bindings)
            self._exec_block(action.body, inner, ctx)
            return
        raise AnalysisError(f"unknown extern {method!r}")

    def _extern_assign(self, dst: ast.Expr, unit: _Unit, ctx: _Context) -> None:
        path = lvalue_path(dst)
        if not ctx.store.has(path):
            path = f"{unit.name}.{path}"
        width = ctx.store.read(path).width
        self._write(ctx, path, self._fresh_bv(width))

    # -- tables -------------------------------------------------------------

    def _apply_table(self, table_name: str, unit: _Unit, ctx: _Context) -> Term:
        control = unit.decl
        table_decl = _find_local(control, table_name, ast.TableDecl)
        qualified = f"{unit.name}.{table_name}"
        if qualified in self.applied_tables:
            raise AnalysisError(
                f"table {qualified!r} applied more than once; "
                "the control-plane encoding assumes a single apply site"
            )
        self.applied_tables.add(qualified)
        # Mirror the executor's key evaluation (including its failure modes).
        for key in table_decl.keys:
            self._sx.to_term(key.expr, unit, ctx)

        selector = self._fresh_bv(_SELECTOR_WIDTH)
        hit_cond = T.eq(self._fresh_bv(1), T.bv_const(1, 1))

        action_order = [ref.name for ref in table_decl.actions]
        action_codes = {name: i for i, name in enumerate(action_order)}
        default_ref = table_decl.default_action
        if default_ref is None:
            default_name = action_order[-1] if action_order else ""
        else:
            default_name = default_ref.name
            for arg in default_ref.args:
                eval_const_expr(arg, self.env)
        if default_name and default_name not in action_codes:
            action_codes[default_name] = len(action_order)
        self._table_selectors[qualified] = selector
        self._table_codes[qualified] = action_codes

        all_actions = list(action_order)
        if default_name and default_name not in all_actions:
            all_actions.append(default_name)
        branch_stores: dict[str, SymbolicStore] = {}
        for action_name in all_actions:
            action_decl = _find_local(control, action_name, ast.ActionDecl)
            bindings: dict[str, Term] = {}
            for param in action_decl.params:
                bindings[param.name] = self._fresh_bv(self.env.width_of(param.type))
            branch_ctx = ctx.fork()
            branch_unit = _Unit(unit.name, unit.decl, bindings)
            self._exec_block(action_decl.body, branch_unit, branch_ctx)
            branch_stores[action_name] = branch_ctx.store

        fallback = branch_stores.get(default_name, ctx.store)
        merged = fallback
        for action_name in reversed(all_actions):
            if action_name == default_name:
                continue
            code = action_codes[action_name]
            cond = T.eq(selector, T.bv_const(code, _SELECTOR_WIDTH))
            merged = merge_stores(cond, branch_stores[action_name], merged, self._memo)
        ctx.store = merged
        return hit_cond

    # -- controls -----------------------------------------------------------

    def _run_control(self, decl: ast.ControlDecl, ctx: _Context) -> _Context:
        unit = _Unit(decl.name, decl)
        for local in decl.locals:
            if isinstance(local, ast.VarDeclStmt):
                self._exec_stmt(local, unit, ctx)
        self._exec_block(decl.apply, unit, ctx)
        return ctx
