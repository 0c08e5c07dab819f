"""Type environment and expression typing for the P4 subset.

The analysis layers need two things from the type system: the *width* of
every expression (terms are width-indexed) and the *flattened field paths*
of the header/metadata structs (symbolic stores are keyed by dotted paths
like ``hdr.eth.dst``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from repro.p4 import ast_nodes as ast
from repro.p4.errors import TypeCheckError


@dataclass(frozen=True)
class FieldInfo:
    """A flattened field: dotted path plus resolved width."""

    path: str
    width: int
    header: Optional[str] = None  # owning header instance path, if any


class TypeEnv:
    """Resolves names, typedefs, and field paths for one program."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.typedefs: dict[str, ast.Type] = {}
        self.headers: dict[str, ast.HeaderDecl] = {}
        self.structs: dict[str, ast.StructDecl] = {}
        self.constants: dict[str, int] = {}
        for decl in program.declarations:
            if isinstance(decl, ast.TypedefDecl):
                self.typedefs[decl.name] = decl.type
            elif isinstance(decl, ast.HeaderDecl):
                self.headers[decl.name] = decl
            elif isinstance(decl, ast.StructDecl):
                self.structs[decl.name] = decl
            elif isinstance(decl, ast.ConstDecl):
                self.constants[decl.name] = _const_value(decl, self)
            elif isinstance(decl, ast.ControlDecl):
                _check_switch_arms(decl, decl.apply)
        for decl in program.declarations:
            if isinstance(decl, ast.ControlDecl):
                _check_action_calls(decl, self)

    # -- type resolution -------------------------------------------------------

    def resolve(self, t: ast.Type) -> ast.Type:
        """Chase typedefs until a concrete type is reached."""
        seen: set[str] = set()
        while isinstance(t, ast.NamedType):
            if t.name in seen:
                raise TypeCheckError(f"typedef cycle through {t.name!r}")
            seen.add(t.name)
            if t.name in self.typedefs:
                t = self.typedefs[t.name]
            elif t.name in self.headers or t.name in self.structs:
                return t
            else:
                raise TypeCheckError(f"unknown type {t.name!r}")
        return t

    def width_of(self, t: ast.Type) -> int:
        resolved = self.resolve(t)
        if isinstance(resolved, ast.BitType):
            return resolved.width
        if isinstance(resolved, ast.BoolType):
            return 1
        raise TypeCheckError(f"type {t} has no scalar width")

    def is_header_type(self, t: ast.Type) -> bool:
        resolved = self.resolve(t)
        return isinstance(resolved, ast.NamedType) and resolved.name in self.headers

    def is_struct_type(self, t: ast.Type) -> bool:
        resolved = self.resolve(t)
        return isinstance(resolved, ast.NamedType) and resolved.name in self.structs

    def fields_of(self, t: ast.Type) -> tuple:
        resolved = self.resolve(t)
        if isinstance(resolved, ast.NamedType):
            if resolved.name in self.headers:
                return self.headers[resolved.name].fields
            if resolved.name in self.structs:
                return self.structs[resolved.name].fields
        raise TypeCheckError(f"type {t} has no fields")

    def member_type(self, t: ast.Type, field_name: str) -> ast.Type:
        for field in self.fields_of(t):
            if field.name == field_name:
                return field.type
        raise TypeCheckError(f"type {self.resolve(t)} has no field {field_name!r}")

    # -- flattening ---------------------------------------------------------------

    def flatten(self, prefix: str, t: ast.Type) -> Iterator[FieldInfo]:
        """Yield every scalar field under ``prefix`` of struct/header type ``t``.

        Header-typed subtrees also carry the owning header path so callers
        can associate fields with validity bits.
        """
        resolved = self.resolve(t)
        if isinstance(resolved, (ast.BitType, ast.BoolType)):
            yield FieldInfo(prefix, self.width_of(resolved))
            return
        if isinstance(resolved, ast.NamedType) and resolved.name in self.headers:
            for field in self.headers[resolved.name].fields:
                yield FieldInfo(
                    f"{prefix}.{field.name}", self.width_of(field.type), header=prefix
                )
            return
        if isinstance(resolved, ast.NamedType) and resolved.name in self.structs:
            for field in self.structs[resolved.name].fields:
                yield from self.flatten(f"{prefix}.{field.name}", field.type)
            return
        raise TypeCheckError(f"cannot flatten type {t}")

    def header_instances(self, prefix: str, t: ast.Type) -> Iterator[tuple[str, str]]:
        """Yield ``(instance_path, header_type_name)`` pairs under ``prefix``."""
        resolved = self.resolve(t)
        if isinstance(resolved, ast.NamedType):
            if resolved.name in self.headers:
                yield prefix, resolved.name
                return
            if resolved.name in self.structs:
                for field in self.structs[resolved.name].fields:
                    yield from self.header_instances(f"{prefix}.{field.name}", field.type)


class Scope:
    """Name → type bindings for one control/parser/action body."""

    def __init__(self, env: TypeEnv, parent: Optional["Scope"] = None) -> None:
        self.env = env
        self.parent = parent
        self.bindings: dict[str, ast.Type] = {}

    def bind(self, name: str, t: ast.Type) -> None:
        self.bindings[name] = t

    def lookup(self, name: str) -> ast.Type:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        raise TypeCheckError(f"unknown name {name!r}")

    def child(self) -> "Scope":
        return Scope(self.env, parent=self)


def scope_for_params(env: TypeEnv, params: tuple) -> Scope:
    scope = Scope(env)
    for param in params:
        scope.bind(param.name, param.type)
    return scope


def type_of(expr: ast.Expr, scope: Scope) -> ast.Type:
    """Infer the type of ``expr`` in ``scope``.

    Unsized integer literals get ``BitType(0)`` as a marker; callers that
    need a concrete width resolve it from context (assignment LHS, the
    other operand of a binary op, ...).
    """
    env = scope.env
    if isinstance(expr, ast.IntLit):
        return ast.BitType(expr.width or 0)
    if isinstance(expr, ast.BoolLit):
        return ast.BoolType()
    if isinstance(expr, ast.Ident):
        if expr.name in env.constants:
            return ast.BitType(0)
        return scope.lookup(expr.name)
    if isinstance(expr, ast.Member):
        base = type_of(expr.expr, scope)
        return env.member_type(base, expr.name)
    if isinstance(expr, ast.Slice):
        return ast.BitType(expr.hi - expr.lo + 1)
    if isinstance(expr, ast.Cast):
        return expr.type
    if isinstance(expr, ast.Unary):
        if expr.op == "!":
            return ast.BoolType()
        return type_of(expr.expr, scope)
    if isinstance(expr, ast.Binary):
        if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return ast.BoolType()
        if expr.op == "++":
            left = env.width_of(type_of(expr.left, scope))
            right = env.width_of(type_of(expr.right, scope))
            return ast.BitType(left + right)
        left_t = type_of(expr.left, scope)
        if isinstance(left_t, ast.BitType) and left_t.width == 0:
            return type_of(expr.right, scope)
        return left_t
    if isinstance(expr, ast.Ternary):
        then_t = type_of(expr.then, scope)
        if isinstance(then_t, ast.BitType) and then_t.width == 0:
            return type_of(expr.orelse, scope)
        return then_t
    if isinstance(expr, ast.MethodCall):
        if expr.method in ("isValid", "hit", "miss"):
            return ast.BoolType()
        raise TypeCheckError(f"call {expr.method!r} has no value type")
    raise TypeCheckError(f"cannot type expression {expr!r}")


def bit_width(expr: ast.Expr, scope: Scope, context_width: int = 0) -> int:
    """Concrete bit width of ``expr``, using ``context_width`` for unsized
    literals and named constants."""
    t = type_of(expr, scope)
    if isinstance(t, ast.BoolType):
        return 1
    if isinstance(t, ast.BitType) and t.width == 0:
        if context_width <= 0:
            raise TypeCheckError(
                f"cannot infer width of unsized literal {expr!r} without context"
            )
        return context_width
    return scope.env.width_of(t)


def lvalue_path(expr: ast.Expr) -> str:
    """Dotted path of an lvalue (``hdr.eth.dst``)."""
    if isinstance(expr, ast.Ident):
        return expr.name
    if isinstance(expr, ast.Member):
        return f"{lvalue_path(expr.expr)}.{expr.name}"
    raise TypeCheckError(f"not an lvalue: {expr!r}")


def _check_switch_arms(control: ast.ControlDecl, block: ast.Block) -> None:
    """Reject a ``switch`` arm naming an action its table does not list
    (nor runs by default): no selector code stands for it."""
    for stmt in block.statements:
        if isinstance(stmt, ast.IfStmt):
            _check_switch_arms(control, stmt.then)
            if stmt.orelse is not None:
                _check_switch_arms(control, stmt.orelse)
        elif isinstance(stmt, ast.SwitchStmt):
            table = control.tables_by_name().get(stmt.table)
            if table is not None:
                listed = {ref.name for ref in table.actions}
                if table.default_action is not None:
                    listed.add(table.default_action.name)
                for case in stmt.cases:
                    if case.action is not None and case.action not in listed:
                        raise TypeCheckError(
                            f"control {control.name!r}: switch on table "
                            f"{stmt.table!r} has an arm for action "
                            f"{case.action!r}, which the table does not list"
                        )
            for case in stmt.cases:
                _check_switch_arms(control, case.body)


def _check_action_calls(control: ast.ControlDecl, env: TypeEnv) -> None:
    """Reject a direct action call whose sized argument has another width
    than its ``bit<W>`` parameter: P4-16 converts no width implicitly, and
    the analysis would bind the parameter at the argument's width.  An
    unsized literal takes the parameter's width."""
    scope = scope_for_params(env, control.params)
    for local in control.locals:
        if isinstance(local, ast.VarDeclStmt):
            scope.bind(local.name, local.type)
    actions = control.actions_by_name()

    def check(block: ast.Block, scope: Scope) -> None:
        for stmt in block.statements:
            if isinstance(stmt, ast.VarDeclStmt):
                scope.bind(stmt.name, stmt.type)
            elif isinstance(stmt, ast.IfStmt):
                check(stmt.then, scope)
                if stmt.orelse is not None:
                    check(stmt.orelse, scope)
            elif isinstance(stmt, ast.SwitchStmt):
                for case in stmt.cases:
                    check(case.body, scope)
            elif isinstance(stmt, ast.MethodCallStmt):
                call = stmt.call
                action = actions.get(call.method) if call.target is None else None
                if action is not None:
                    for param, arg in zip(action.params, call.args):
                        _check_argument(control, action, param, arg, scope)

    for action in actions.values():
        inner = scope.child()
        for param in action.params:
            inner.bind(param.name, param.type)
        check(action.body, inner)
    check(control.apply, scope.child())


def _check_argument(control, action, param, arg, scope: Scope) -> None:
    param_type = scope.env.resolve(param.type)
    arg_type = scope.env.resolve(type_of(arg, scope))
    if not isinstance(param_type, ast.BitType) or not isinstance(arg_type, ast.BitType):
        return
    if arg_type.width and arg_type.width != param_type.width:
        raise TypeCheckError(
            f"control {control.name!r}: action {action.name!r} is called with a "
            f"{arg_type.width}-bit argument for its {param_type.width}-bit "
            f"parameter {param.name!r}"
        )


def _const_value(decl: ast.ConstDecl, env: TypeEnv) -> int:
    expr = decl.value
    value = eval_const_expr(expr, env)
    if value is None:
        raise TypeCheckError(f"constant {decl.name!r} is not a compile-time value")
    return value


def eval_const_expr(expr: ast.Expr, env: TypeEnv) -> Optional[int]:
    """Evaluate a compile-time constant expression, or ``None`` if not one."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return int(expr.value)
    if isinstance(expr, ast.Ident):
        return env.constants.get(expr.name)
    if isinstance(expr, ast.Unary):
        inner = eval_const_expr(expr.expr, env)
        if inner is None:
            return None
        if expr.op == "-":
            return -inner
        if expr.op == "~":
            return ~inner
        if expr.op == "!":
            return int(not inner)
    if isinstance(expr, ast.Binary):
        left = eval_const_expr(expr.left, env)
        right = eval_const_expr(expr.right, env)
        if left is None or right is None:
            return None
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "&": lambda a, b: a & b,
            "|": lambda a, b: a | b,
            "^": lambda a, b: a ^ b,
            "<<": lambda a, b: a << b,
            ">>": lambda a, b: a >> b,
        }
        if expr.op in ops:
            return ops[expr.op](left, right)
    return None
