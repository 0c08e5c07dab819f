"""State-merging symbolic executor: P4 AST → :class:`DataPlaneModel`.

This is Flay's "data-plane analysis" step (Fig. 4, run once per program).
It executes the whole pipeline symbolically: packet-derived values become
data-plane symbols, table outcomes become control-plane symbols (action
selector, hit bit, per-parameter action data), and every program point of
interest is annotated with a hermetic expression.

The run pays for each subterm once.  One executor keeps one ``simplify``
memo (``id`` of an interned term → its simplified form) and passes it to
every ``simplify`` it calls: writes, variable declarations, branch and
select guards, path conditions, ``exited``, table keys, and the ``ite`` of
every join (:func:`~repro.analysis.state.merge_stores`), so a join does
not re-walk the DAGs an earlier one already simplified.  A second memo maps
a term to the names of the control symbols in it, so the taint of every
program point is read off its children's.  Both are sound because no
term collection runs while an executor lives, so no id is reused under
them, and each maps a term to a value that depends on that term alone;
both die with the executor and never enter the model, a snapshot or the
fleet store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.model import (
    ActionParamInfo,
    DataPlaneModel,
    KIND_ACTION_VALUE,
    KIND_ASSIGN,
    KIND_IF,
    KIND_SELECT,
    KIND_TABLE,
    KeyInfo,
    ProgramPoint,
    TableInfo,
    ValueSetInfo,
)
from repro.analysis.state import SymbolicStore, merge_stores
from repro.errors import STAGE_ANALYSIS
from repro.p4 import ast_nodes as ast
from repro.p4.errors import TypeCheckError
from repro.p4.types import TypeEnv, eval_const_expr, lvalue_path
from repro.smt import simplify, terms as T
from repro.smt.terms import Term

#: Built-in store paths.
DROP_PATH = "std.drop"
PARSER_ERROR_PATH = "std.parser_error"

#: Suffix for header validity bits in the store.
VALID_SUFFIX = ".$valid"

_MAX_PARSER_DEPTH = 64


class AnalysisError(TypeCheckError):
    """The program uses a construct the analysis cannot model."""

    default_stage = STAGE_ANALYSIS


@dataclass
class _Context:
    """Mutable execution context for one path prefix."""

    store: SymbolicStore
    exited: Term  # boolean: pipeline already exited at this point
    path_cond: Term  # condition under which this code executes

    def fork(self) -> "_Context":
        return _Context(self.store.fork(), self.exited, self.path_cond)


@dataclass
class _Unit:
    """Static context for one control/parser body."""

    name: str  # declaration name, used to qualify locals and tables
    decl: object
    bindings: dict[str, Term] = field(default_factory=dict)  # action params


class SymbolicExecutor:
    """Analyzes one program.  Use :func:`analyze` for the one-liner."""

    def __init__(
        self,
        program: ast.Program,
        env: Optional[TypeEnv] = None,
        skip_parser: bool = False,
    ) -> None:
        self.program = program
        self.env = env if env is not None else TypeEnv(program)
        self.skip_parser = skip_parser
        self.model = DataPlaneModel(skipped_parser=skip_parser)
        self._point_counter = 0
        self._fresh_counter = 0
        # Run-long memos (see the module docstring).
        self._memo: dict[int, Term] = {}
        self._taint_memo: dict[int, frozenset[str]] = {}

    # -- public API ---------------------------------------------------------

    def analyze(self) -> DataPlaneModel:
        start = time.perf_counter()
        pipeline = self.program.pipeline
        ctx = _Context(
            store=self._initial_store(),
            exited=T.FALSE,
            path_cond=T.TRUE,
        )
        parser_decl = self.program.find(pipeline.parser)
        if not isinstance(parser_decl, ast.ParserDecl):
            raise AnalysisError(f"{pipeline.parser!r} is not a parser")
        if self.skip_parser:
            self._assume_all_headers_valid(ctx)
            self.model.extracted_headers = self._all_header_instances(parser_decl)
        else:
            ctx = self._exec_parser(parser_decl, ctx)
        for control_name in pipeline.controls:
            control = self.program.find(control_name)
            if not isinstance(control, ast.ControlDecl):
                raise AnalysisError(f"{control_name!r} is not a control")
            ctx = self._exec_control(control, ctx)
        self.model.final_store = ctx.store.snapshot()
        self.model.analysis_seconds = time.perf_counter() - start
        return self.model

    # -- store initialization -----------------------------------------------------

    def _pipeline_params(self) -> tuple:
        """Parameters of the first pipeline stage define the store layout."""
        pipeline = self.program.pipeline
        return self.program.find(pipeline.parser).params

    def _initial_store(self) -> SymbolicStore:
        store = SymbolicStore()
        for param in self._pipeline_params():
            resolved = self.env.resolve(param.type)
            if isinstance(resolved, (ast.BitType, ast.BoolType)):
                width = self.env.width_of(resolved)
                store.write(param.name, T.bv_const(0, width))
                continue
            intrinsic = _is_intrinsic_param(param)
            for info in self.env.flatten(param.name, param.type):
                if info.header is not None or intrinsic:
                    # Packet-derived (header fields) and intrinsic metadata
                    # (ingress port, timestamps): unconstrained data-plane
                    # symbols — they vary per packet.
                    store.write(info.path, T.data_var(info.path, info.width))
                else:
                    # User metadata: zero-initialized (v1model semantics).
                    store.write(info.path, T.bv_const(0, info.width))
            for instance, _type_name in self.env.header_instances(
                param.name, param.type
            ):
                store.write(instance + VALID_SUFFIX, T.FALSE)
        store.write(DROP_PATH, T.FALSE)
        store.write(PARSER_ERROR_PATH, T.FALSE)
        return store

    def _assume_all_headers_valid(self, ctx: _Context) -> None:
        """Parser skipped: validity bits become free data-plane symbols."""
        for param in self._pipeline_params():
            resolved = self.env.resolve(param.type)
            if isinstance(resolved, (ast.BitType, ast.BoolType)):
                continue
            for instance, _ in self.env.header_instances(param.name, param.type):
                valid_var = T.data_var(instance + VALID_SUFFIX + "#b", 1)
                ctx.store.write(
                    instance + VALID_SUFFIX, T.eq(valid_var, T.bv_const(1, 1))
                )

    def _all_header_instances(self, parser_decl: ast.ParserDecl) -> list[str]:
        instances: list[str] = []
        for param in parser_decl.params:
            resolved = self.env.resolve(param.type)
            if isinstance(resolved, (ast.BitType, ast.BoolType)):
                continue
            instances.extend(
                path for path, _ in self.env.header_instances(param.name, param.type)
            )
        return instances

    # -- program points --------------------------------------------------------------

    def _add_point(
        self,
        kind: str,
        label: str,
        expr: Term,
        context: str = "",
        node_id=None,
    ) -> str:
        self._point_counter += 1
        pid = f"{label}#{self._point_counter}"
        self.model.add_point(
            ProgramPoint(pid, kind, expr, context, node_id), self._taint_memo
        )
        return pid

    def _fresh_data(self, prefix: str, width: int) -> Term:
        self._fresh_counter += 1
        return T.data_var(f"{prefix}${self._fresh_counter}", width)

    # -- expression translation ----------------------------------------------------------

    def _infer_width(self, expr: ast.Expr, unit: _Unit, ctx: _Context) -> Optional[int]:
        if isinstance(expr, ast.IntLit):
            return expr.width
        if isinstance(expr, ast.BoolLit):
            return None
        if isinstance(expr, ast.Ident):
            if expr.name in unit.bindings:
                return unit.bindings[expr.name].width or None
            local = f"{unit.name}.{expr.name}"
            if ctx.store.has(local):
                return ctx.store.read(local).width or None
            if ctx.store.has(expr.name):
                return ctx.store.read(expr.name).width or None
            return None  # named constant: width from context
        if isinstance(expr, ast.Member):
            path = _try_lvalue_path(expr)
            if path is not None and ctx.store.has(path):
                return ctx.store.read(path).width or None
            return None
        if isinstance(expr, ast.Slice):
            return expr.hi - expr.lo + 1
        if isinstance(expr, ast.Cast):
            return self.env.width_of(expr.type)
        if isinstance(expr, ast.Unary):
            if expr.op == "!":
                return None
            return self._infer_width(expr.expr, unit, ctx)
        if isinstance(expr, ast.Binary):
            if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
                return None
            if expr.op == "++":
                left = self._infer_width(expr.left, unit, ctx)
                right = self._infer_width(expr.right, unit, ctx)
                if left is None or right is None:
                    raise AnalysisError("concat operands must have known widths")
                return left + right
            return self._infer_width(expr.left, unit, ctx) or self._infer_width(
                expr.right, unit, ctx
            )
        if isinstance(expr, ast.Ternary):
            return self._infer_width(expr.then, unit, ctx) or self._infer_width(
                expr.orelse, unit, ctx
            )
        return None

    def to_term(
        self,
        expr: ast.Expr,
        unit: _Unit,
        ctx: _Context,
        width_hint: Optional[int] = None,
    ) -> Term:
        """Translate an expression to a term in the current symbolic state."""
        if isinstance(expr, ast.IntLit):
            width = expr.width or width_hint
            if width is None:
                raise AnalysisError(f"cannot infer width of literal {expr.value}")
            return T.bv_const(expr.value, width)
        if isinstance(expr, ast.BoolLit):
            return T.bool_const(expr.value)
        if isinstance(expr, ast.Ident):
            if expr.name in unit.bindings:
                return unit.bindings[expr.name]
            local = f"{unit.name}.{expr.name}"
            if ctx.store.has(local):
                return ctx.store.read(local)
            if ctx.store.has(expr.name):
                return ctx.store.read(expr.name)
            if expr.name in self.env.constants:
                if width_hint is None:
                    raise AnalysisError(
                        f"cannot infer width of constant {expr.name!r}"
                    )
                return T.bv_const(self.env.constants[expr.name], width_hint)
            raise AnalysisError(f"unknown name {expr.name!r}")
        if isinstance(expr, ast.Member):
            path = _try_lvalue_path(expr)
            if path is not None and ctx.store.has(path):
                return ctx.store.read(path)
            raise AnalysisError(f"unknown field path {path or expr!r}")
        if isinstance(expr, ast.Slice):
            inner = self.to_term(expr.expr, unit, ctx)
            return T.extract(inner, expr.hi, expr.lo)
        if isinstance(expr, ast.Cast):
            return self._cast(
                self.to_term(expr.expr, unit, ctx, self.env.width_of(expr.type)),
                self.env.width_of(expr.type),
            )
        if isinstance(expr, ast.Unary):
            if expr.op == "!":
                return T.bool_not(self.to_term(expr.expr, unit, ctx))
            inner = self.to_term(expr.expr, unit, ctx, width_hint)
            if expr.op == "~":
                return T.bv_not(inner)
            if expr.op == "-":
                return T.neg(inner)
            raise AnalysisError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.Binary):
            return self._binary(expr, unit, ctx, width_hint)
        if isinstance(expr, ast.Ternary):
            cond = self.to_term(expr.cond, unit, ctx)
            width = width_hint or self._infer_width(expr, unit, ctx)
            then = self.to_term(expr.then, unit, ctx, width)
            orelse = self.to_term(expr.orelse, unit, ctx, width)
            return T.ite(cond, then, orelse)
        if isinstance(expr, ast.MethodCall):
            if expr.method == "isValid" and expr.target is not None:
                path = lvalue_path(expr.target) + VALID_SUFFIX
                return ctx.store.read(path)
            raise AnalysisError(
                f"call {expr.method!r} is not valid in expression position"
            )
        raise AnalysisError(f"cannot translate expression {expr!r}")

    def _binary(
        self, expr: ast.Binary, unit: _Unit, ctx: _Context, width_hint: Optional[int]
    ) -> Term:
        op = expr.op
        if op in ("&&", "||"):
            left = self.to_term(expr.left, unit, ctx)
            right = self.to_term(expr.right, unit, ctx)
            return T.bool_and(left, right) if op == "&&" else T.bool_or(left, right)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            width = self._infer_width(expr.left, unit, ctx) or self._infer_width(
                expr.right, unit, ctx
            )
            left = self.to_term(expr.left, unit, ctx, width)
            right = self.to_term(expr.right, unit, ctx, width)
            if left.is_bool != right.is_bool:
                raise AnalysisError(f"comparison sort mismatch in {expr!r}")
            if op == "==":
                return T.eq(left, right)
            if op == "!=":
                return T.ne(left, right)
            if op == "<":
                return T.ult(left, right)
            if op == "<=":
                return T.ule(left, right)
            if op == ">":
                return T.ult(right, left)
            return T.ule(right, left)
        if op == "++":
            left = self.to_term(expr.left, unit, ctx)
            right = self.to_term(expr.right, unit, ctx)
            return T.concat(left, right)
        width = width_hint or self._infer_width(expr, unit, ctx)
        left = self.to_term(expr.left, unit, ctx, width)
        right = self.to_term(expr.right, unit, ctx, width)
        builders = {
            "+": T.add, "-": T.sub, "*": T.mul,
            "&": T.bv_and, "|": T.bv_or, "^": T.bv_xor,
            "<<": T.shl, ">>": T.lshr,
        }
        if op not in builders:
            raise AnalysisError(f"unknown binary operator {op!r}")
        if op in ("<<", ">>") and left.width != right.width:
            right = self._cast(right, left.width)
        return builders[op](left, right)

    @staticmethod
    def _cast(term: Term, width: int) -> Term:
        if term.is_bool:
            return T.ite(term, T.bv_const(1, width), T.bv_const(0, width))
        if term.width == width:
            return term
        if term.width > width:
            return T.extract(term, width - 1, 0)
        return T.concat(T.bv_const(0, width - term.width), term)

    # -- guarded writes -----------------------------------------------------------------

    def _write(self, ctx: _Context, path: str, value: Term) -> None:
        """Store write that respects a (possibly symbolic) prior ``exit``."""
        if ctx.exited is T.FALSE:
            ctx.store.write(path, simplify(value, self._memo))
            return
        old = ctx.store.read(path) if ctx.store.has(path) else value
        ctx.store.write(path, simplify(T.ite(ctx.exited, old, value), self._memo))

    # -- statements ------------------------------------------------------------------------

    def _exec_block(self, block: ast.Block, unit: _Unit, ctx: _Context) -> None:
        for stmt in block.statements:
            self._exec_stmt(stmt, unit, ctx)

    def _exec_stmt(self, stmt, unit: _Unit, ctx: _Context) -> None:
        if isinstance(stmt, ast.AssignStmt):
            self._exec_assign(stmt, unit, ctx)
        elif isinstance(stmt, ast.VarDeclStmt):
            width = self.env.width_of(stmt.type)
            path = f"{unit.name}.{stmt.name}"
            if stmt.init is not None:
                value = self.to_term(stmt.init, unit, ctx, width)
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
            pass  # only supported as the final statement of an action
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
        value = self.to_term(stmt.rhs, unit, ctx, old.width)
        if old.is_bv and value.is_bv:
            # A sized right-hand side keeps the low bits that fit the
            # destination (or is zero-extended to it), as on the target.
            value = self._cast(value, old.width)
        self._write(ctx, path, value)
        self._add_point(
            KIND_ASSIGN,
            f"{unit.name}::assign::{path}",
            ctx.store.read(path),
            context=path,
            node_id=id(stmt),
        )

    def _exec_slice_assign(
        self, stmt: ast.AssignStmt, unit: _Unit, ctx: _Context
    ) -> None:
        lhs = stmt.lhs
        assert isinstance(lhs, ast.Slice)
        path = lvalue_path(lhs.expr)
        old = ctx.store.read(path)
        width = old.width
        piece = self.to_term(stmt.rhs, unit, ctx, lhs.hi - lhs.lo + 1)
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
        cond = self._cond_term(stmt.cond, unit, ctx)
        self._add_point(
            KIND_IF, f"{unit.name}::if", cond, context="if-condition", node_id=id(stmt)
        )
        memo = self._memo
        cond = simplify(cond, memo)
        if cond is T.TRUE:
            self._exec_block(stmt.then, unit, ctx)
            return
        if cond is T.FALSE:
            if stmt.orelse is not None:
                self._exec_block(stmt.orelse, unit, ctx)
            return
        then_ctx = ctx.fork()
        then_ctx.path_cond = simplify(T.bool_and(ctx.path_cond, cond), memo)
        self._exec_block(stmt.then, unit, then_ctx)
        else_ctx = ctx.fork()
        else_ctx.path_cond = simplify(
            T.bool_and(ctx.path_cond, T.bool_not(cond)), memo
        )
        if stmt.orelse is not None:
            self._exec_block(stmt.orelse, unit, else_ctx)
        ctx.store = merge_stores(cond, then_ctx.store, else_ctx.store, memo)
        ctx.exited = simplify(T.ite(cond, then_ctx.exited, else_ctx.exited), memo)

    def _cond_term(self, expr: ast.Expr, unit: _Unit, ctx: _Context) -> Term:
        """Translate a condition, handling ``t.apply().hit`` / ``.miss``."""
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
        return self.to_term(expr, unit, ctx)

    def _exec_switch(self, stmt: ast.SwitchStmt, unit: _Unit, ctx: _Context) -> None:
        self._apply_table(stmt.table, unit, ctx)
        info = self.model.table(f"{unit.name}.{stmt.table}")
        selector = info.selector_var
        covered: list[str] = []
        arms: list[tuple[Term, ast.Block]] = []
        default_body: Optional[ast.Block] = None
        for case in stmt.cases:
            if case.action is None:
                default_body = case.body
                continue
            code = info.action_codes[case.action]
            arms.append(
                (T.eq(selector, T.bv_const(code, TableInfo.SELECTOR_WIDTH)), case.body)
            )
            covered.append(case.action)
        # Execute as a chain of if/else on the selector.
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
        memo = self._memo
        then_ctx = ctx.fork()
        then_ctx.path_cond = simplify(T.bool_and(ctx.path_cond, cond), memo)
        self._exec_block(body, unit, then_ctx)
        else_ctx = ctx.fork()
        else_ctx.path_cond = simplify(
            T.bool_and(ctx.path_cond, T.bool_not(cond)), memo
        )
        self._exec_arm_chain(arms[1:], default_body, unit, else_ctx)
        ctx.store = merge_stores(cond, then_ctx.store, else_ctx.store, memo)
        ctx.exited = simplify(T.ite(cond, then_ctx.exited, else_ctx.exited), memo)

    # -- calls ----------------------------------------------------------------------------------

    def _exec_call(self, call: ast.MethodCall, unit: _Unit, ctx: _Context) -> None:
        method = call.method
        if method == "apply" and call.target is not None:
            self._apply_table(lvalue_path(call.target), unit, ctx)
            return
        if method == "setValid" and call.target is not None:
            path = lvalue_path(call.target) + VALID_SUFFIX
            self._write(ctx, path, T.TRUE)
            return
        if method == "setInvalid" and call.target is not None:
            path = lvalue_path(call.target) + VALID_SUFFIX
            self._write(ctx, path, T.FALSE)
            return
        if method in ("count", "execute", "write"):
            # counter.count(idx), meter.execute(idx), register.write(idx, v):
            # stateful effects are invisible to the data-plane model.
            return
        if method == "read" and call.target is not None:
            # register.read(dst, idx): dst gets an unconstrained value.
            self._extern_assign(call.args[0], lvalue_path(call.target), unit, ctx)
            return
        if method == "mark_to_drop":
            self._write(ctx, DROP_PATH, T.TRUE)
            return
        if method in ("hash", "update_checksum"):
            # hash(dst, fields...) — dst gets an unconstrained value.
            self._extern_assign(call.args[0], method, unit, ctx)
            return
        if method == "pkt_extract":
            self._exec_extract(call, unit, ctx)
            return
        # Direct action invocation from the apply block: args are evaluated
        # in the caller's context and bound to the action's parameters.
        action = self._find_action_or_none(unit, method)
        if action is not None and call.target is None:
            bindings = dict(unit.bindings)
            for param, arg in zip(action.params, call.args):
                width = self.env.width_of(param.type)
                bindings[param.name] = self.to_term(arg, unit, ctx, width)
            inner = _Unit(unit.name, unit.decl, bindings)
            self._exec_block(action.body, inner, ctx)
            return
        raise AnalysisError(f"unknown extern {method!r}")

    def _find_action_or_none(self, unit: _Unit, name: str):
        decl = unit.decl
        if isinstance(decl, ast.ControlDecl):
            return decl.actions_by_name().get(name)
        return None

    def _extern_assign(
        self, dst: ast.Expr, source_name: str, unit: _Unit, ctx: _Context
    ) -> None:
        path = lvalue_path(dst)
        if not ctx.store.has(path):
            path = f"{unit.name}.{path}"
        width = ctx.store.read(path).width
        self._write(ctx, path, self._fresh_data(source_name, width))

    def _exec_extract(self, call: ast.MethodCall, unit: _Unit, ctx: _Context) -> None:
        header_path = lvalue_path(call.args[0])
        self._write(ctx, header_path + VALID_SUFFIX, T.TRUE)
        if header_path not in self.model.extracted_headers:
            self.model.extracted_headers.append(header_path)

    # -- tables ----------------------------------------------------------------------------------------

    def _apply_table(self, table_name: str, unit: _Unit, ctx: _Context) -> Term:
        """Apply a match-action table; returns the hit condition."""
        control = unit.decl
        table_decl = _find_local(control, table_name, ast.TableDecl)
        qualified = f"{unit.name}.{table_name}"
        if qualified in self.model.tables:
            raise AnalysisError(
                f"table {qualified!r} applied more than once; "
                "the control-plane encoding assumes a single apply site"
            )
        keys: list[KeyInfo] = []
        for key in table_decl.keys:
            term = self.to_term(key.expr, unit, ctx)
            keys.append(KeyInfo(simplify(term, self._memo), key.match_kind, term.width))

        selector = T.control_var(f"{qualified}.action", TableInfo.SELECTOR_WIDTH)
        hit_bit = T.control_var(f"{qualified}.hit", 1)
        hit_cond = T.eq(hit_bit, T.bv_const(1, 1))

        action_order = [ref.name for ref in table_decl.actions]
        action_codes = {name: i for i, name in enumerate(action_order)}
        default_ref = table_decl.default_action
        if default_ref is None:
            default_name = action_order[-1] if action_order else ""
            default_args: tuple = ()
        else:
            default_name = default_ref.name
            default_args = tuple(
                eval_const_expr(a, self.env) for a in default_ref.args
            )
        if default_name and default_name not in action_codes:
            action_codes[default_name] = len(action_order)

        # Execute every action body on a fork, params bound to control symbols.
        action_params: dict[str, list[ActionParamInfo]] = {}
        branch_stores: dict[str, SymbolicStore] = {}
        all_actions = list(action_order)
        if default_name and default_name not in all_actions:
            all_actions.append(default_name)
        for action_name in all_actions:
            action_decl = _find_local(control, action_name, ast.ActionDecl)
            params: list[ActionParamInfo] = []
            bindings: dict[str, Term] = {}
            for param in action_decl.params:
                width = self.env.width_of(param.type)
                var = T.control_var(f"{qualified}.{action_name}.{param.name}", width)
                params.append(ActionParamInfo(param.name, width, var))
                bindings[param.name] = var
            action_params[action_name] = params
            branch_ctx = ctx.fork()
            branch_unit = _Unit(unit.name, unit.decl, bindings)
            self._exec_block(action_decl.body, branch_unit, branch_ctx)
            branch_stores[action_name] = branch_ctx.store

        # Merge action effects, selected by the action-selector symbol.  The
        # default action's store is the fallback (the selector assignment
        # resolves a miss to the default action's code).
        fallback = branch_stores.get(default_name, ctx.store)
        merged = fallback
        for action_name in reversed(all_actions):
            if action_name == default_name:
                continue
            code = action_codes[action_name]
            cond = T.eq(selector, T.bv_const(code, TableInfo.SELECTOR_WIDTH))
            merged = merge_stores(cond, branch_stores[action_name], merged, self._memo)
        written_paths = [
            path
            for path, value in merged.items()
            if not ctx.store.has(path) or value is not ctx.store.read(path)
        ]
        ctx.store = merged

        info = TableInfo(
            name=qualified,
            local_name=table_name,
            control=unit.name,
            keys=keys,
            action_order=action_order,
            action_codes=action_codes,
            default_action=default_name,
            default_args=default_args,
            action_params=action_params,
            size=table_decl.size,
            selector_var=selector,
            hit_var=hit_bit,
            apply_condition=ctx.path_cond,
        )
        self.model.tables[qualified] = info

        # Annotate: the selector in context, plus post-apply value snapshots.
        self._add_point(
            KIND_TABLE, f"{qualified}::selector", selector, context=qualified
        )
        for path in written_paths:
            self._add_point(
                KIND_ACTION_VALUE,
                f"{qualified}::after::{path}",
                ctx.store.read(path),
                context=path,
            )
        return hit_cond

    # -- parser ---------------------------------------------------------------------------------------------

    def _exec_parser(self, decl: ast.ParserDecl, ctx: _Context) -> _Context:
        unit = _Unit(decl.name, decl)
        for local in decl.locals:
            if isinstance(local, ast.ValueSetDecl):
                self._declare_value_set(decl.name, local)
        states = {state.name: state for state in decl.states}
        return self._exec_parser_state("start", states, unit, ctx, depth=0)

    def _declare_value_set(self, parser_name: str, decl: ast.ValueSetDecl) -> None:
        qualified = f"{parser_name}.{decl.name}"
        width = self.env.width_of(decl.elem_type)
        valid_vars = [
            T.control_var(f"{qualified}.valid{i}", 1) for i in range(decl.size)
        ]
        value_vars = [
            T.control_var(f"{qualified}.value{i}", width) for i in range(decl.size)
        ]
        self.model.value_sets[qualified] = ValueSetInfo(
            name=qualified,
            local_name=decl.name,
            parser=parser_name,
            width=width,
            size=decl.size,
            valid_vars=valid_vars,
            value_vars=value_vars,
        )

    def _exec_parser_state(
        self,
        name: str,
        states: dict[str, ast.ParserState],
        unit: _Unit,
        ctx: _Context,
        depth: int,
    ) -> _Context:
        if name == ast.ACCEPT:
            return ctx
        if name == ast.REJECT:
            self._write(ctx, PARSER_ERROR_PATH, T.TRUE)
            self._write(ctx, DROP_PATH, T.TRUE)
            return ctx
        if depth > _MAX_PARSER_DEPTH:
            raise AnalysisError(
                f"parser recursion exceeds {_MAX_PARSER_DEPTH} states; "
                "parsers must be loop-free for the analysis to terminate"
            )
        state = states.get(name)
        if state is None:
            raise AnalysisError(f"unknown parser state {name!r}")
        for stmt in state.statements:
            self._exec_stmt(stmt, unit, ctx)
        transition = state.transition
        if isinstance(transition, ast.TransitionDirect):
            return self._exec_parser_state(
                transition.state, states, unit, ctx, depth + 1
            )
        return self._exec_select(transition, states, unit, ctx, depth)

    def _exec_select(
        self,
        select: ast.TransitionSelect,
        states: dict[str, ast.ParserState],
        unit: _Unit,
        ctx: _Context,
        depth: int,
    ) -> _Context:
        memo = self._memo
        key_terms = [simplify(self.to_term(e, unit, ctx), memo) for e in select.exprs]
        branches: list[tuple[Term, str]] = []  # (guard, target-state)
        remaining = T.TRUE
        for case in select.cases:
            match = self._case_match(case, key_terms, unit)
            guard = simplify(T.bool_and(remaining, match), memo)
            branches.append((guard, case.state))
            self._add_point(
                KIND_SELECT,
                f"{unit.name}::select::{case.state}",
                guard,
                context=f"select -> {case.state}",
                node_id=id(case),
            )
            remaining = simplify(T.bool_and(remaining, T.bool_not(match)), memo)
        # A select with no matching case rejects.
        branches.append((remaining, ast.REJECT))

        # Execute each reachable branch on a fork, then merge right-to-left.
        results: list[tuple[Term, _Context]] = []
        for guard, target in branches:
            if guard is T.FALSE:
                continue
            branch_ctx = ctx.fork()
            branch_ctx.path_cond = simplify(T.bool_and(ctx.path_cond, guard), memo)
            results.append(
                (
                    guard,
                    self._exec_parser_state(
                        target, states, unit, branch_ctx, depth + 1
                    ),
                )
            )
        if not results:
            return ctx
        merged = results[-1][1]
        for guard, branch in reversed(results[:-1]):
            merged_store = merge_stores(guard, branch.store, merged.store, memo)
            merged_exited = simplify(
                T.ite(guard, branch.exited, merged.exited), memo
            )
            merged = _Context(merged_store, merged_exited, ctx.path_cond)
        return merged

    def _case_match(
        self, case: ast.SelectCase, key_terms: list[Term], unit: _Unit
    ) -> Term:
        conds: list[Term] = []
        for key, keyset in zip(key_terms, case.keys):
            if keyset.is_default:
                continue
            if keyset.value_set_name is not None:
                if keyset.value_set_name in self.env.constants:
                    const = self.env.constants[keyset.value_set_name]
                    conds.append(T.eq(key, T.bv_const(const, key.width)))
                    continue
                vs = self.model.value_set(f"{unit.name}.{keyset.value_set_name}")
                slots = [
                    T.bool_and(
                        T.eq(valid, T.bv_const(1, 1)),
                        T.eq(key, value),
                    )
                    for valid, value in zip(vs.valid_vars, vs.value_vars)
                ]
                conds.append(T.bool_or(*slots))
                continue
            value = _keyset_const(keyset.value, self.env, key.width)
            if keyset.mask is not None:
                mask = _keyset_const(keyset.mask, self.env, key.width)
                conds.append(
                    T.eq(
                        T.bv_and(key, T.bv_const(mask, key.width)),
                        T.bv_const(value & mask, key.width),
                    )
                )
            else:
                conds.append(T.eq(key, T.bv_const(value, key.width)))
        return T.bool_and(*conds) if conds else T.TRUE

    # -- controls ------------------------------------------------------------------------------------------------

    def _exec_control(self, decl: ast.ControlDecl, ctx: _Context) -> _Context:
        unit = _Unit(decl.name, decl)
        for local in decl.locals:
            if isinstance(local, ast.VarDeclStmt):
                self._exec_stmt(local, unit, ctx)
        self._exec_block(decl.apply, unit, ctx)
        return ctx


def _is_intrinsic_param(param) -> bool:
    """Intrinsic-metadata convention: a pipeline parameter named ``intr``
    (or whose type name contains "intrinsic") carries per-packet values
    supplied by the hardware, not by the program."""
    if param.name == "intr":
        return True
    type_name = getattr(param.type, "name", "")
    return "intrinsic" in str(type_name)


def _try_lvalue_path(expr: ast.Expr) -> Optional[str]:
    try:
        return lvalue_path(expr)
    except TypeCheckError:
        return None


def _find_local(control: ast.ControlDecl, name: str, kind):
    for local in control.locals:
        if isinstance(local, kind) and local.name == name:
            return local
    raise AnalysisError(f"control {control.name!r} has no {kind.__name__} {name!r}")


def _keyset_const(expr: ast.Expr, env: TypeEnv, width: int) -> int:
    value = eval_const_expr(expr, env)
    if value is None:
        raise AnalysisError(f"select keyset {expr!r} is not constant")
    return value & ((1 << width) - 1)


def analyze(
    program: ast.Program,
    env: Optional[TypeEnv] = None,
    skip_parser: bool = False,
) -> DataPlaneModel:
    """Run the data-plane analysis once and return the annotated model."""
    return SymbolicExecutor(program, env, skip_parser=skip_parser).analyze()
