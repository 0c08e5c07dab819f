"""Reference interpreter (the BMv2 stand-in).

Executes a program concretely on a packet under an installed control-plane
configuration.  Its role in the reproduction is the soundness oracle: for
every packet and every configuration, the original and the Flay-specialized
program must produce identical outputs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import FlayError, STAGE_INTERPRET
from repro.p4 import ast_nodes as ast
from repro.p4.errors import TypeCheckError
from repro.p4.types import TypeEnv, eval_const_expr, lvalue_path
from repro.runtime.entries import TableEntry, match_hits
from repro.targets.bmv2.packet import Packet, PacketUnderflow

DROP_PATH = "std.drop"
PARSER_ERROR_PATH = "std.parser_error"
VALID_SUFFIX = ".$valid"

_MAX_PARSER_STEPS = 512


class InterpreterError(FlayError, RuntimeError):
    """The program used a construct the interpreter cannot execute."""

    default_stage = STAGE_INTERPRET


class _ExitPipeline(Exception):
    """Raised by ``exit`` to unwind to the pipeline driver."""


class _ReturnAction(Exception):
    """Raised by ``return`` to unwind to the end of the action body."""


@dataclass
class ExecutionResult:
    """Concrete outputs of one packet's traversal."""

    store: dict  # path → int (booleans as 0/1)
    widths: dict  # path → bit width (0 for booleans)
    dropped: bool
    parser_error: bool
    trace: list = field(default_factory=list)  # human-readable steps

    def output_view(self, ignore_prefixes: tuple = ()) -> dict:
        """The comparable output: everything except ignored path prefixes."""
        return {
            path: value
            for path, value in sorted(self.store.items())
            if not any(path.startswith(p) for p in ignore_prefixes)
        }


class Interpreter:
    """Concrete executor for one program (original or specialized)."""

    def __init__(self, program: ast.Program, env: Optional[TypeEnv] = None) -> None:
        self.program = program
        self.env = env if env is not None else TypeEnv(program)
        self.pipeline = program.pipeline
        self.parser_decl = program.find(self.pipeline.parser)
        self.controls = [program.find(name) for name in self.pipeline.controls]

    # -- public API ------------------------------------------------------------

    def run(
        self,
        packet: Packet,
        control_plane=None,
        value_sets: Optional[dict] = None,
        registers: Optional[dict] = None,
        intrinsic: Optional[dict] = None,
    ) -> ExecutionResult:
        """Execute the full pipeline on ``packet``.

        ``control_plane`` is a :class:`repro.runtime.semantics.ControlPlaneState`
        (or None for all-empty tables); ``value_sets`` maps qualified or
        local PVS names to value tuples; ``registers`` maps register names
        to mutable lists (shared across packets if the caller keeps them).
        """
        packet.reset()
        state = _RunState(
            env=self.env,
            control_plane=control_plane,
            value_sets=value_sets or {},
            registers=registers if registers is not None else {},
        )
        self._init_store(state)
        for path, value in (intrinsic or {}).items():
            if path not in state.store:
                raise InterpreterError(f"unknown intrinsic path {path!r}")
            width = state.widths[path]
            state.store[path] = value & ((1 << width) - 1) if width else value
        try:
            self._run_parser(state, packet)
            if not state.store[PARSER_ERROR_PATH]:
                for control in self.controls:
                    self._run_control(control, state)
        except _ExitPipeline:
            pass
        return ExecutionResult(
            store=dict(state.store),
            widths=dict(state.widths),
            dropped=bool(state.store[DROP_PATH]),
            parser_error=bool(state.store[PARSER_ERROR_PATH]),
            trace=state.trace,
        )

    # -- store -------------------------------------------------------------------

    def _init_store(self, state: "_RunState") -> None:
        for param in self.parser_decl.params:
            resolved = self.env.resolve(param.type)
            if isinstance(resolved, (ast.BitType, ast.BoolType)):
                state.define(param.name, 0, self.env.width_of(resolved))
                continue
            for info in self.env.flatten(param.name, param.type):
                state.define(info.path, 0, info.width)
            for instance, _ in self.env.header_instances(param.name, param.type):
                state.define(instance + VALID_SUFFIX, 0, 0)
        state.define(DROP_PATH, 0, 0)
        state.define(PARSER_ERROR_PATH, 0, 0)

    # -- parser -------------------------------------------------------------------

    def _run_parser(self, state: "_RunState", packet: Packet) -> None:
        states = {s.name: s for s in self.parser_decl.states}
        unit = _Unit(self.parser_decl.name, self.parser_decl, {})
        current = "start"
        steps = 0
        while current not in (ast.ACCEPT, ast.REJECT):
            steps += 1
            if steps > _MAX_PARSER_STEPS:
                raise InterpreterError("parser did not terminate")
            parser_state = states.get(current)
            if parser_state is None:
                raise InterpreterError(f"unknown parser state {current!r}")
            state.trace.append(f"parser:{current}")
            try:
                for stmt in parser_state.statements:
                    self._exec_stmt(stmt, unit, state, packet)
                current = self._transition(parser_state.transition, unit, state)
            except PacketUnderflow:
                current = ast.REJECT
        if current == ast.REJECT:
            state.store[PARSER_ERROR_PATH] = 1
            state.store[DROP_PATH] = 1

    def _transition(self, transition, unit: "_Unit", state: "_RunState") -> str:
        if isinstance(transition, ast.TransitionDirect):
            return transition.state
        keys = [self._eval(e, unit, state) for e in transition.exprs]
        widths = [self._eval_width(e, unit, state) for e in transition.exprs]
        for case in transition.cases:
            if self._case_matches(case, keys, widths, unit, state):
                return case.state
        return ast.REJECT

    def _case_matches(self, case, keys, widths, unit, state) -> bool:
        for key, width, keyset in zip(keys, widths, case.keys):
            if keyset.is_default:
                continue
            if keyset.value_set_name is not None:
                if keyset.value_set_name in self.env.constants:
                    if key != self.env.constants[keyset.value_set_name]:
                        return False
                    continue
                values = state.lookup_value_set(unit.name, keyset.value_set_name)
                if key not in values:
                    return False
                continue
            value = eval_const_expr(keyset.value, self.env)
            if value is None:
                raise InterpreterError(f"non-constant keyset {keyset!r}")
            if keyset.mask is not None:
                mask = eval_const_expr(keyset.mask, self.env)
                if (key & mask) != (value & mask):
                    return False
            elif key != (value & ((1 << width) - 1)):
                return False
        return True

    # -- controls --------------------------------------------------------------------

    def _run_control(self, control: ast.ControlDecl, state: "_RunState") -> None:
        unit = _Unit(control.name, control, {})
        for local in control.locals:
            if isinstance(local, ast.VarDeclStmt):
                self._exec_stmt(local, unit, state, None)
            elif isinstance(local, ast.InstantiationDecl) and local.kind == "register":
                size = (
                    eval_const_expr(local.args[0], self.env) if local.args else 1024
                )
                state.registers.setdefault(
                    f"{control.name}.{local.name}", [0] * (size or 1024)
                )
        self._exec_block(control.apply, unit, state, None)

    # -- statements ----------------------------------------------------------------------

    def _exec_block(self, block: ast.Block, unit, state, packet) -> None:
        for stmt in block.statements:
            self._exec_stmt(stmt, unit, state, packet)

    def _exec_stmt(self, stmt, unit, state, packet) -> None:
        if isinstance(stmt, ast.AssignStmt):
            self._exec_assign(stmt, unit, state)
        elif isinstance(stmt, ast.VarDeclStmt):
            width = self.env.width_of(stmt.type)
            value = self._eval(stmt.init, unit, state, width) if stmt.init else 0
            state.define(f"{unit.name}.{stmt.name}", value, width)
        elif isinstance(stmt, ast.IfStmt):
            if self._eval_cond(stmt.cond, unit, state):
                self._exec_block(stmt.then, unit, state, packet)
            elif stmt.orelse is not None:
                self._exec_block(stmt.orelse, unit, state, packet)
        elif isinstance(stmt, ast.MethodCallStmt):
            self._exec_call(stmt.call, unit, state, packet)
        elif isinstance(stmt, ast.ExitStmt):
            raise _ExitPipeline()
        elif isinstance(stmt, ast.ReturnStmt):
            raise _ReturnAction()
        elif isinstance(stmt, ast.SwitchStmt):
            action_run = self._apply_table(stmt.table, unit, state)[1]
            default_body = None
            for case in stmt.cases:
                if case.action is None:
                    default_body = case.body
                elif case.action == action_run:
                    self._exec_block(case.body, unit, state, packet)
                    return
            if default_body is not None:
                self._exec_block(default_body, unit, state, packet)
        else:
            raise InterpreterError(f"cannot execute {stmt!r}")

    def _exec_assign(self, stmt: ast.AssignStmt, unit, state) -> None:
        if isinstance(stmt.lhs, ast.Slice):
            base_path = state.resolve_path(lvalue_path(stmt.lhs.expr), unit.name)
            old = state.store[base_path]
            hi, lo = stmt.lhs.hi, stmt.lhs.lo
            piece = self._eval(stmt.rhs, unit, state, hi - lo + 1)
            mask = ((1 << (hi - lo + 1)) - 1) << lo
            state.store[base_path] = (old & ~mask) | ((piece << lo) & mask)
            return
        path = state.resolve_path(lvalue_path(stmt.lhs), unit.name)
        width = state.widths[path]
        value = self._eval(stmt.rhs, unit, state, width)
        if width:
            value &= (1 << width) - 1
        state.store[path] = value

    def _exec_call(self, call: ast.MethodCall, unit, state, packet) -> None:
        method = call.method
        if method == "apply" and call.target is not None:
            self._apply_table(lvalue_path(call.target), unit, state)
            return
        if method == "pkt_extract":
            if packet is None:
                raise InterpreterError("pkt_extract outside the parser")
            self._extract(call, unit, state, packet)
            return
        if method == "setValid" and call.target is not None:
            state.store[lvalue_path(call.target) + VALID_SUFFIX] = 1
            return
        if method == "setInvalid" and call.target is not None:
            state.store[lvalue_path(call.target) + VALID_SUFFIX] = 0
            return
        if method == "mark_to_drop":
            state.store[DROP_PATH] = 1
            return
        if method in ("count", "execute"):
            return  # counters/meters: stateful but output-invisible
        if method == "read" and call.target is not None:
            reg = state.registers.get(
                f"{unit.name}.{lvalue_path(call.target)}"
            ) or state.registers.get(lvalue_path(call.target))
            dst = state.resolve_path(lvalue_path(call.args[0]), unit.name)
            index = self._eval(call.args[1], unit, state, 32)
            width = state.widths[dst]
            value = reg[index % len(reg)] if reg else 0
            state.store[dst] = value & ((1 << width) - 1) if width else value
            return
        if method == "write" and call.target is not None:
            reg = state.registers.setdefault(
                f"{unit.name}.{lvalue_path(call.target)}", [0] * 1024
            )
            index = self._eval(call.args[0], unit, state, 32)
            value = self._eval(call.args[1], unit, state, 64)
            reg[index % len(reg)] = value
            return
        if call.target is None and isinstance(unit.decl, ast.ControlDecl):
            # Direct action invocation from the apply block.
            local = unit.decl.actions_by_name().get(method)
            if local is not None:
                args = tuple(
                    self._eval(arg, unit, state, self.env.width_of(p.type))
                    for arg, p in zip(call.args, local.params)
                )
                self._run_action(unit.decl, unit, state, method, args)
                return
        if method in ("hash", "update_checksum"):
            dst = state.resolve_path(lvalue_path(call.args[0]), unit.name)
            width = state.widths[dst]
            material = b"".join(
                self._eval(arg, unit, state, 64).to_bytes(8, "big")
                for arg in call.args[1:]
            )
            digest = zlib.crc32(material)
            state.store[dst] = digest & ((1 << width) - 1) if width else digest & 1
            return
        raise InterpreterError(f"unknown extern {method!r}")

    def _extract(self, call: ast.MethodCall, unit, state, packet: Packet) -> None:
        header_path = lvalue_path(call.args[0])
        header_type = self._header_type_of(header_path)
        for field_decl in self.env.fields_of(header_type):
            width = self.env.width_of(field_decl.type)
            value = packet.extract_bits(width)
            state.store[f"{header_path}.{field_decl.name}"] = value
        state.store[header_path + VALID_SUFFIX] = 1
        state.trace.append(f"extract:{header_path}")

    def _header_type_of(self, header_path: str) -> ast.Type:
        root, _, rest = header_path.partition(".")
        for param in self.parser_decl.params:
            if param.name == root:
                t = param.type
                for part in rest.split("."):
                    t = self.env.member_type(t, part)
                return t
        raise InterpreterError(f"unknown header {header_path!r}")

    # -- tables --------------------------------------------------------------------------

    def _apply_table(self, table_name: str, unit, state) -> tuple[bool, str]:
        """Run a table; returns (hit, action_run)."""
        control = unit.decl
        decl = control.tables_by_name().get(table_name)
        if decl is None:
            raise InterpreterError(
                f"control {control.name!r} has no table {table_name!r}"
            )
        qualified = f"{unit.name}.{table_name}"
        entries: list[TableEntry] = []
        widths: list[int] = []
        if state.control_plane is not None:
            table_state = state.control_plane.tables.get(qualified)
            if table_state is not None:
                entries = table_state.ordered_entries()
                widths = table_state.info.key_widths()
        if not widths:
            widths = [self._eval_width(k.expr, unit, state) for k in decl.keys]
        keys = [
            self._eval(k.expr, unit, state, w) for k, w in zip(decl.keys, widths)
        ]

        for entry in entries:
            if all(
                match_hits(m, k, w)
                for m, k, w in zip(entry.matches, keys, widths)
            ):
                state.trace.append(f"table:{qualified}:hit:{entry.action}")
                self._run_action(control, unit, state, entry.action, entry.args)
                return True, entry.action
        # Miss: run the default action.
        default = decl.default_action
        if default is None:
            if not decl.actions:
                return False, ""
            default = ast.ActionRef(decl.actions[-1].name, ())
        args = tuple(
            eval_const_expr(a, self.env) or 0 for a in default.args
        )
        state.trace.append(f"table:{qualified}:miss:{default.name}")
        self._run_action(control, unit, state, default.name, args)
        return False, default.name

    def _run_action(self, control, unit, state, action_name: str, args: tuple) -> None:
        action = control.actions_by_name().get(action_name)
        if action is None:
            raise InterpreterError(
                f"control {control.name!r} has no action {action_name!r}"
            )
        bindings = {}
        for param, value in zip(action.params, args):
            width = self.env.width_of(param.type)
            bindings[param.name] = (value & ((1 << width) - 1), width)
        inner = _Unit(unit.name, control, bindings)
        try:
            self._exec_block(action.body, inner, state, None)
        except _ReturnAction:
            pass

    # -- expressions --------------------------------------------------------------------------

    def _eval_cond(self, expr, unit, state) -> bool:
        if (
            isinstance(expr, ast.Member)
            and expr.name in ("hit", "miss")
            and isinstance(expr.expr, ast.MethodCall)
            and expr.expr.method == "apply"
        ):
            hit, _ = self._apply_table(lvalue_path(expr.expr.target), unit, state)
            return hit if expr.name == "hit" else not hit
        if isinstance(expr, ast.Unary) and expr.op == "!":
            return not self._eval_cond(expr.expr, unit, state)
        return bool(self._eval(expr, unit, state))

    def _eval_width(self, expr, unit, state) -> int:
        if isinstance(expr, ast.IntLit):
            return expr.width or 32
        if isinstance(expr, ast.Ident):
            if expr.name in unit.bindings:
                return unit.bindings[expr.name][1]
            path = state.resolve_path(expr.name, unit.name, must_exist=False)
            if path is not None:
                return state.widths[path]
            return 32
        if isinstance(expr, ast.Member):
            path = state.resolve_path(lvalue_path(expr), unit.name, must_exist=False)
            if path is not None:
                return state.widths[path]
            return 32
        if isinstance(expr, ast.Slice):
            return expr.hi - expr.lo + 1
        if isinstance(expr, ast.Cast):
            return self.env.width_of(expr.type)
        if isinstance(expr, ast.Unary):
            return self._eval_width(expr.expr, unit, state)
        if isinstance(expr, ast.Binary):
            if expr.op == "++":
                return self._eval_width(expr.left, unit, state) + self._eval_width(
                    expr.right, unit, state
                )
            return max(
                self._eval_width(expr.left, unit, state),
                self._eval_width(expr.right, unit, state),
            )
        if isinstance(expr, ast.Ternary):
            return self._eval_width(expr.then, unit, state)
        return 32

    def _eval(self, expr, unit, state, width_hint: int = 0) -> int:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return int(expr.value)
        if isinstance(expr, ast.Ident):
            if expr.name in unit.bindings:
                return unit.bindings[expr.name][0]
            path = state.resolve_path(expr.name, unit.name, must_exist=False)
            if path is not None:
                return state.store[path]
            if expr.name in self.env.constants:
                return self.env.constants[expr.name]
            raise InterpreterError(f"unknown name {expr.name!r}")
        if isinstance(expr, ast.Member):
            path = state.resolve_path(lvalue_path(expr), unit.name, must_exist=False)
            if path is None:
                raise InterpreterError(f"unknown path {lvalue_path(expr)!r}")
            return state.store[path]
        if isinstance(expr, ast.Slice):
            inner = self._eval(expr.expr, unit, state)
            return (inner >> expr.lo) & ((1 << (expr.hi - expr.lo + 1)) - 1)
        if isinstance(expr, ast.Cast):
            width = self.env.width_of(expr.type)
            return self._eval(expr.expr, unit, state, width) & ((1 << width) - 1)
        if isinstance(expr, ast.Unary):
            if expr.op == "!":
                return int(not self._eval_cond(expr.expr, unit, state))
            width = self._eval_width(expr.expr, unit, state)
            inner = self._eval(expr.expr, unit, state, width)
            mask = (1 << width) - 1
            if expr.op == "~":
                return ~inner & mask
            if expr.op == "-":
                return -inner & mask
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, unit, state)
        if isinstance(expr, ast.Ternary):
            if self._eval_cond(expr.cond, unit, state):
                return self._eval(expr.then, unit, state, width_hint)
            return self._eval(expr.orelse, unit, state, width_hint)
        if isinstance(expr, ast.MethodCall):
            if expr.method == "isValid" and expr.target is not None:
                return state.store[lvalue_path(expr.target) + VALID_SUFFIX]
            raise InterpreterError(f"cannot evaluate call {expr.method!r}")
        raise InterpreterError(f"cannot evaluate {expr!r}")

    def _eval_binary(self, expr: ast.Binary, unit, state) -> int:
        op = expr.op
        if op in ("&&", "||"):
            left = self._eval_cond(expr.left, unit, state)
            if op == "&&":
                return int(left and self._eval_cond(expr.right, unit, state))
            return int(left or self._eval_cond(expr.right, unit, state))
        width = max(
            self._eval_width(expr.left, unit, state),
            self._eval_width(expr.right, unit, state),
        )
        mask = (1 << width) - 1
        left = self._eval(expr.left, unit, state, width) & mask
        right = self._eval(expr.right, unit, state, width) & mask
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        if op == "<":
            return int(left < right)
        if op == "<=":
            return int(left <= right)
        if op == ">":
            return int(left > right)
        if op == ">=":
            return int(left >= right)
        if op == "+":
            return (left + right) & mask
        if op == "-":
            return (left - right) & mask
        if op == "*":
            return (left * right) & mask
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            return (left << right) & mask if right < width else 0
        if op == ">>":
            return left >> right if right < width else 0
        if op == "++":
            rwidth = self._eval_width(expr.right, unit, state)
            lraw = self._eval(expr.left, unit, state)
            rraw = self._eval(expr.right, unit, state)
            return (lraw << rwidth) | rraw
        raise InterpreterError(f"unknown operator {op!r}")


@dataclass
class _Unit:
    name: str
    decl: object
    bindings: dict  # action params: name → (value, width)


@dataclass
class _RunState:
    env: TypeEnv
    control_plane: object
    value_sets: dict
    registers: dict
    store: dict = field(default_factory=dict)
    widths: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)

    def define(self, path: str, value: int, width: int) -> None:
        self.store[path] = value
        self.widths[path] = width

    def resolve_path(
        self, path: str, unit_name: str, must_exist: bool = True
    ) -> Optional[str]:
        qualified = f"{unit_name}.{path}"
        if qualified in self.store:
            return qualified
        if path in self.store:
            return path
        if must_exist:
            raise InterpreterError(f"unknown path {path!r}")
        return None

    def lookup_value_set(self, parser_name: str, local_name: str) -> tuple:
        qualified = f"{parser_name}.{local_name}"
        if qualified in self.value_sets:
            return tuple(self.value_sets[qualified])
        if local_name in self.value_sets:
            return tuple(self.value_sets[local_name])
        return ()
