"""The specializing transformer: verdicts → specialized program.

Implements the paper's partial-evaluation repertoire (§4.1):

* **dead-code elimination** — if/select branches whose guard is NEVER are
  dropped; unused table actions are removed (Fig. 3's vanishing ``drop``);
* **constant propagation** — assignments whose value is a constant under
  the current control plane are replaced by literals;
* **table inlining** — a table that can only ever run one action with
  constant action data is replaced by that action's body (Fig. 3 impl. A);
  an empty table running a no-op default disappears entirely;
* **match-kind narrowing** — a ternary key whose entries all use the full
  mask becomes exact, freeing TCAM (Fig. 3 impl. B);
* **parser specializations** — select branches that can never be taken
  (e.g. through an unconfigured value set) are removed, and unused headers
  at the tail of the parse graph are reclassified as payload.

The output is a new AST; the device compiler consumes it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.model import DataPlaneModel, TableInfo
from repro.errors import FlayError, OptionsError, STAGE_SPECIALIZE
from repro.engine.queries import ALWAYS, MAYBE, NEVER, PointVerdict, TableVerdict
from repro.p4 import ast_nodes as ast
from repro.p4.types import TypeEnv


@dataclass
class SpecializationReport:
    """What the specializer did, for resource accounting and the examples."""

    removed_tables: list = field(default_factory=list)
    inlined_tables: list = field(default_factory=list)
    removed_actions: dict = field(default_factory=dict)  # table → [action]
    narrowed_keys: dict = field(default_factory=dict)  # table → match plan
    removed_branches: int = 0
    removed_select_cases: int = 0
    pruned_headers: list = field(default_factory=list)
    constants_propagated: int = 0

    def merge(self, other: "SpecializationReport") -> None:
        """Record ``other``'s findings here, as if made after this one's."""
        self.removed_tables.extend(other.removed_tables)
        self.inlined_tables.extend(other.inlined_tables)
        for table, actions in other.removed_actions.items():
            self.removed_actions.setdefault(table, []).extend(actions)
        self.narrowed_keys.update(other.narrowed_keys)
        self.removed_branches += other.removed_branches
        self.removed_select_cases += other.removed_select_cases
        self.pruned_headers.extend(other.pruned_headers)
        self.constants_propagated += other.constants_propagated

    def summary(self) -> str:
        parts = []
        if self.removed_tables:
            parts.append(f"removed tables: {', '.join(self.removed_tables)}")
        if self.inlined_tables:
            parts.append(f"inlined tables: {', '.join(self.inlined_tables)}")
        for table, actions in self.removed_actions.items():
            parts.append(f"{table}: dropped actions {', '.join(actions)}")
        for table, plan in self.narrowed_keys.items():
            parts.append(f"{table}: match plan {plan}")
        if self.removed_branches:
            parts.append(f"removed {self.removed_branches} branches")
        if self.removed_select_cases:
            parts.append(f"removed {self.removed_select_cases} select cases")
        if self.pruned_headers:
            parts.append(f"pruned headers: {', '.join(self.pruned_headers)}")
        if self.constants_propagated:
            parts.append(f"propagated {self.constants_propagated} constants")
        return "; ".join(parts) if parts else "no specializations applied"


#: Specialization effort presets (the paper's second future-work axis:
#: trading specialization quality against respecialization time).
EFFORT_NONE = "none"      # pass the program through untouched
EFFORT_DCE = "dce"        # dead code only: branches, empty tables, actions
EFFORT_FULL = "full"      # + constant propagation, inlining, narrowing


class Specializer:
    """Specialization of one program against a verdict set, memoised.

    The output is built statement by statement, and every statement's
    output is kept until a verdict it read changes.  A warm call is told
    which verdicts moved and rebuilds only the statements that read them
    (and the statements, controls and parser that contain those); the
    rest is reused as the identical objects.  See :meth:`specialize`.
    """

    def __init__(
        self,
        program: ast.Program,
        model: DataPlaneModel,
        env: Optional[TypeEnv] = None,
        effort: str = EFFORT_FULL,
    ) -> None:
        if effort not in (EFFORT_NONE, EFFORT_DCE, EFFORT_FULL):
            raise OptionsError(
                f"unknown effort level {effort!r} "
                f"(choose one of: {EFFORT_NONE}, {EFFORT_DCE}, {EFFORT_FULL})"
            )
        self.program = program
        self.model = model
        self.env = env if env is not None else TypeEnv(program)
        self.effort = effort
        # Individual passes, derived from the effort preset.
        self.enable_dce = effort in (EFFORT_DCE, EFFORT_FULL)
        self.enable_constant_propagation = effort == EFFORT_FULL
        self.enable_inlining = effort == EFFORT_FULL
        self.enable_narrowing = effort == EFFORT_FULL
        pipeline = program.pipeline
        self._parser = pipeline.parser
        self._controls = frozenset(pipeline.controls)
        self._index = _ProgramIndex(program, model, self._controls, self._parser)
        self.reset()

    def reset(self) -> None:
        """Forget every memoised output: the next call builds from scratch."""
        # id(original statement / control / parser) or qualified table name
        # → (output, kept-table writes, report fragment, header instances).
        self._memo: dict = {}
        self._node_verdicts: dict[int, PointVerdict] = {}
        self._overapproximated: frozenset = frozenset()
        # (input parser, prunable headers, output) of the last tail pruning.
        self._stripped: Optional[tuple] = None

    def specialize(
        self,
        point_verdicts: dict[str, PointVerdict],
        table_verdicts: dict[str, TableVerdict],
        changed: Optional[list] = None,
    ) -> tuple[ast.Program, SpecializationReport]:
        """The program specialized for these verdicts, and what was done.

        ``changed=None`` builds from scratch.  Otherwise ``changed`` names
        the pids and tables whose verdicts moved (``same_specialization``)
        since the previous call, and only the statements that read them
        are rebuilt; the output is the same as a from-scratch build's.

        Why ``changed`` is enough: the output reads verdicts only through
        the node verdicts of apply-block statements and select cases
        (``executability``, ``is_constant``, ``constant``) and the table
        verdicts of applied tables (``feasible_actions``, ``hit``,
        ``const_params``, ``match_plan``) — exactly the fields
        ``same_specialization`` compares — plus
        ``TableVerdict.overapproximated``.  A flip of that one field can
        move the output: a one-action table without parameters is inlined
        when precise and kept when overapproximated, and a precise verdict
        with every action feasible drops a ``switch``'s default arm that
        has an arm next to it for every action, where an overapproximated
        one keeps the arms as declared — and in that case no
        ``same_specialization`` field moves.  So the overapproximated
        tables are compared here with the previous call's, and a flipped
        table is rebuilt as if it had changed; the warm path calls this
        method on a flip even when ``changed`` is empty
        (:meth:`overapproximation_moved`).  The
        output may still equal the previous one — most moved verdicts
        feed nothing the program prints — and the caller compares the two
        to decide between forward and recompile.

        Any exception clears the memo, so a failed call never leaves a
        half-updated one behind.
        """
        self.report = SpecializationReport()
        if self.effort == EFFORT_NONE:
            return self.program, self.report
        self.point_verdicts = point_verdicts
        self.table_verdicts = table_verdicts
        try:
            if changed is None or not self._memo:
                self._start_over()
            else:
                self._invalidate(changed)
            return self._build()
        except BaseException:
            self.reset()
            raise

    @property
    def built(self) -> bool:
        """Whether the memo holds the last call's output: a reset, which
        every failed call or decision makes, empties it."""
        return bool(self._memo) or self.effort == EFFORT_NONE

    def overapproximation_moved(self, table_verdicts: dict, tables) -> bool:
        """Whether one of ``tables`` crossed between precise and
        overapproximated since the previous call (a move no
        ``same_specialization`` field shows)."""
        held = self._overapproximated
        for name in tables:  # a loop: this runs on every forward
            if table_verdicts[name].overapproximated != (name in held):
                return True
        return False

    # -- the memo ------------------------------------------------------------

    def _start_over(self) -> None:
        self.reset()
        for node in self._index.pids:
            self._refresh_node(node)
        self._overapproximated = self._overapproximated_tables()

    def _invalidate(self, changed: list) -> None:
        """Drop the memo entries that read a verdict in ``changed``."""
        points = self.model.points
        pids = self._index.pids
        for name in changed:
            point = points.get(name)
            if point is None:
                self._invalidate_table(name)
            elif point.node_id in pids:
                self._refresh_node(point.node_id)
                self._invalidate_from(point.node_id)
        overapproximated = self._overapproximated_tables()
        for name in overapproximated ^ self._overapproximated:
            self._invalidate_table(name)
        self._overapproximated = overapproximated

    def _overapproximated_tables(self) -> frozenset:
        return frozenset(
            name for name, v in self.table_verdicts.items() if v.overapproximated
        )

    def _invalidate_table(self, name: str) -> None:
        self._memo.pop(name, None)
        for key in self._index.mentions.get(name, ()):
            self._invalidate_from(key)

    def _invalidate_from(self, key) -> None:
        """Drop ``key``'s entry and those of its memoised ancestors.

        An entry in the memo was built from entries that are still in it,
        so the climb stops at the first ancestor not in the memo: nothing
        memoised above it read this one.
        """
        memo, parent = self._memo, self._index.parent
        memo.pop(key, None)
        key = parent.get(key)
        while key in memo:
            del memo[key]
            key = parent.get(key)

    def _refresh_node(self, node: int) -> None:
        """Re-derive one node's verdict from its points' verdicts.

        A node can be annotated more than once; it is specialized only
        when every annotation agrees.
        """
        verdict = None
        for pid in self._index.pids[node]:
            current = self.point_verdicts.get(pid)
            if current is None:
                continue
            if verdict is None:
                verdict = current
            elif not verdict.same_specialization(current):
                verdict = None
                break
        if verdict is None:
            self._node_verdicts.pop(node, None)
        else:
            self._node_verdicts[node] = verdict

    def _memoized(self, key, build, arg):
        """``build(arg)``'s output, from the memo or built and recorded.

        Each entry carries the table declarations its output keeps, its own
        report fragment and the header instances its output references; a
        reuse replays all three into the caller's.
        """
        built = self._memo.get(key)
        if built is None:
            outer = self.report, self._kept, self._used
            self.report, self._kept, self._used = SpecializationReport(), [], set()
            out = build(arg)
            built = (out, self._kept, self.report, self._used)
            self.report, self._kept, self._used = outer
            self._memo[key] = built
        out, kept, fragment, used = built
        self._kept.extend(kept)
        self.report.merge(fragment)
        self._used |= used
        return out

    # -- plumbing ------------------------------------------------------------

    def _build(self) -> tuple[ast.Program, SpecializationReport]:
        self._kept: list = []
        self._used: set[str] = set()
        decls: list = []
        for decl in self.program.declarations:
            if isinstance(decl, ast.ControlDecl) and decl.name in self._controls:
                decl = self._memoized(id(decl), self._spec_control, decl)
            elif isinstance(decl, ast.ParserDecl) and decl.name == self._parser:
                decl = self._memoized(id(decl), self._spec_parser, decl)
            decls.append(decl)
        if self.effort == EFFORT_FULL:
            self._strip_parser_tail(decls)
        return ast.Program(tuple(decls)), self.report

    def _verdict_for_node(self, node_id: int) -> Optional[PointVerdict]:
        return self._node_verdicts.get(node_id)

    def _table_decl(self, control: ast.ControlDecl, name: str) -> ast.TableDecl:
        decl = control.tables_by_name().get(name)
        if decl is None:
            raise SpecializeError(f"control {control.name!r} has no table {name!r}")
        return decl

    def _action_decl(self, control: ast.ControlDecl, name: str) -> ast.ActionDecl:
        decl = control.actions_by_name().get(name)
        if decl is None:
            raise SpecializeError(f"control {control.name!r} has no action {name!r}")
        return decl

    # -- controls ---------------------------------------------------------------

    def _spec_control(self, decl: ast.ControlDecl) -> ast.ControlDecl:
        self._current = decl
        new_apply = ast.Block(tuple(self._spec_block(decl.apply)))
        kept_tables: dict[str, ast.TableDecl] = dict(self._kept)

        referenced_actions: set[str] = set()
        for table in kept_tables.values():
            referenced_actions.update(ref.name for ref in table.actions)
            if table.default_action is not None:
                referenced_actions.add(table.default_action.name)
        new_locals: list = []
        for local in decl.locals:
            if isinstance(local, ast.TableDecl):
                if local.name in kept_tables:
                    local = kept_tables[local.name]
                    new_locals.append(local)
                    _local_headers(local, self._used)
            elif isinstance(local, ast.ActionDecl):
                if local.name in referenced_actions:
                    new_locals.append(local)
                    _local_headers(local, self._used)
            else:
                new_locals.append(local)
        return ast.ControlDecl(decl.name, decl.params, tuple(new_locals), new_apply)

    def _spec_block(self, block: ast.Block) -> list:
        statements: list = []
        for stmt in block.statements:
            statements.extend(self._memoized(id(stmt), self._spec_stmt, stmt))
        return statements

    def _spec_stmt(self, stmt) -> list:
        """``stmt``'s output statements.  Each builder records the header
        instances of the output it makes itself in ``self._used``; those
        of nested statements' outputs come from their memo entries."""
        if isinstance(stmt, ast.IfStmt):
            return self._spec_if(stmt)
        if isinstance(stmt, ast.SwitchStmt):
            return self._spec_switch(stmt)
        if isinstance(stmt, ast.AssignStmt):
            out = [self._spec_assign(stmt)]
        elif (
            isinstance(stmt, ast.MethodCallStmt)
            and stmt.call.method == "apply"
            and stmt.call.target is not None
        ):
            out = self._spec_table_apply(_target_name(stmt.call.target))
        else:
            out = [stmt]
        return self._with_headers(out)

    def _with_headers(self, statements: list) -> list:
        """``statements``, their header instances recorded as used."""
        for stmt in statements:
            _stmt_headers(stmt, self._used)
        return statements

    def _spec_assign(self, stmt: ast.AssignStmt) -> ast.AssignStmt:
        if not self.enable_constant_propagation:
            return stmt
        verdict = self._verdict_for_node(id(stmt))
        if (
            verdict is not None
            and verdict.is_constant
            and not isinstance(stmt.rhs, (ast.IntLit, ast.BoolLit))
            and not isinstance(stmt.lhs, ast.Slice)
        ):
            width = self._lhs_width(stmt.lhs)
            if width is not None:
                self.report.constants_propagated += 1
                return ast.AssignStmt(stmt.lhs, ast.IntLit(verdict.constant, width))
        return stmt

    def _lhs_width(self, lhs) -> Optional[int]:
        from repro.p4.types import scope_for_params

        try:
            scope = scope_for_params(self.env, self._current.params)
            for local in self._current.locals:
                if isinstance(local, ast.VarDeclStmt):
                    scope.bind(local.name, local.type)
            from repro.p4.types import type_of

            t = type_of(lhs, scope)
            resolved = self.env.resolve(t)
            if isinstance(resolved, ast.BoolType):
                return None  # keep booleans textual
            return self.env.width_of(resolved)
        except Exception:
            return None

    def _spec_if(self, stmt: ast.IfStmt) -> list:
        # `if (t.apply().hit)` — decided by the table's hit verdict.
        hit_form = _match_apply_hit(stmt.cond)
        if hit_form is not None:
            table_name, want_hit = hit_form
            verdict = self.table_verdicts.get(
                f"{self._current.name}.{table_name}"
            )
            prefix = self._spec_table_apply(table_name)
            if verdict is None or verdict.hit == MAYBE:
                # Table must stay; reattach the condition around the apply.
                return [self._rebuild_if(stmt)]
            taken = (verdict.hit == ALWAYS) == want_hit
            self.report.removed_branches += 1
            prefix = self._with_headers(prefix)
            if taken:
                return prefix + self._spec_block(stmt.then)
            if stmt.orelse is not None:
                return prefix + self._spec_block(stmt.orelse)
            return prefix

        verdict = self._verdict_for_node(id(stmt)) if self.enable_dce else None
        if verdict is not None and verdict.executability == ALWAYS:
            self.report.removed_branches += 1
            return self._spec_block(stmt.then)
        if verdict is not None and verdict.executability == NEVER:
            self.report.removed_branches += 1
            return self._spec_block(stmt.orelse) if stmt.orelse is not None else []
        return [self._rebuild_if(stmt)]

    def _rebuild_if(self, stmt: ast.IfStmt) -> ast.IfStmt:
        """``stmt`` with both branches specialized."""
        _collect_expr_headers(stmt.cond, self._used)
        then = ast.Block(tuple(self._spec_block(stmt.then)))
        orelse = (
            ast.Block(tuple(self._spec_block(stmt.orelse)))
            if stmt.orelse is not None
            else None
        )
        return ast.IfStmt(stmt.cond, then, orelse)

    # -- tables -------------------------------------------------------------------

    def _spec_table_apply(self, table_name: str) -> list:
        # The same for every apply of the table, so memoised by its name.
        qualified = f"{self._current.name}.{table_name}"
        return self._memoized(qualified, self._spec_table, table_name)

    def _spec_table(self, table_name: str) -> list:
        control = self._current
        qualified = f"{control.name}.{table_name}"
        decl = self._table_decl(control, table_name)
        verdict = self.table_verdicts.get(qualified)
        info = self.model.tables.get(qualified)
        if verdict is None or info is None or verdict.overapproximated:
            self._kept.append((table_name, decl))
            return [_apply_stmt(table_name)]

        feasible = verdict.feasible_actions
        # A kept ``t.apply().hit`` test needs the table, whatever it runs.
        if len(feasible) == 1 and not (
            verdict.hit == MAYBE and qualified in self._index.hit_tested
        ):
            (action_name,) = feasible
            const_args = self._const_args_for(verdict, info, action_name)
            action_decl = self._action_decl(control, action_name)
            body_empty = not action_decl.body.statements
            # DCE-only effort may still *remove* an empty table (dead code)
            # but never inlines an effectful action body.
            if not self.enable_inlining and not body_empty:
                const_args = None
            if const_args is not None:
                body = self._inline_action(control, action_name, const_args)
                if not decl.keys and not body:
                    self.report.removed_tables.append(qualified)
                elif body:
                    self.report.inlined_tables.append(qualified)
                else:
                    self.report.removed_tables.append(qualified)
                return body

        # Keep the table; shed infeasible actions and narrow match kinds.
        kept_actions = tuple(
            ref for ref in decl.actions if ref.name in feasible
        )
        dropped = [ref.name for ref in decl.actions if ref.name not in feasible]
        if dropped:
            self.report.removed_actions.setdefault(qualified, []).extend(dropped)
        new_keys = []
        narrowed = False
        for key, plan_kind in zip(decl.keys, verdict.match_plan):
            if not self.enable_narrowing:
                new_keys.append(key)
                continue
            if plan_kind == "none":
                narrowed = True
                continue  # fully wildcarded key needs no match hardware
            if plan_kind != key.match_kind:
                narrowed = True
                new_keys.append(ast.KeyElement(key.expr, plan_kind))
            else:
                new_keys.append(key)
        if narrowed:
            self.report.narrowed_keys[qualified] = verdict.match_plan
        new_decl = ast.TableDecl(
            decl.name, tuple(new_keys), kept_actions, decl.default_action, decl.size
        )
        self._kept.append((table_name, new_decl))
        return [_apply_stmt(table_name)]

    def _const_args_for(
        self, verdict: TableVerdict, info: TableInfo, action_name: str
    ) -> Optional[dict[str, int]]:
        """Constant action data for ``action_name``, or None if any varies."""
        params = info.action_params.get(action_name, [])
        consts = dict(verdict.const_params)
        args: dict[str, int] = {}
        for param in params:
            value = consts.get((action_name, param.name))
            if value is None:
                return None
            args[param.name] = value
        return args

    def _inline_action(
        self, control: ast.ControlDecl, action_name: str, const_args: dict[str, int]
    ) -> list:
        action = self._action_decl(control, action_name)
        widths = {
            p.name: self.env.width_of(p.type) for p in action.params
        }
        substitution = {
            name: ast.IntLit(value, widths[name])
            for name, value in const_args.items()
        }
        body = [_subst_stmt(stmt, substitution) for stmt in action.body.statements]
        return [s for s in body if not isinstance(s, ast.ReturnStmt)]

    def _spec_switch(self, stmt: ast.SwitchStmt) -> list:
        control = self._current
        qualified = f"{control.name}.{stmt.table}"
        verdict = self.table_verdicts.get(qualified)
        info = self.model.tables.get(qualified)
        prefix = self._spec_table_apply(stmt.table)
        if verdict is None or info is None or verdict.overapproximated:
            cases = tuple(
                ast.SwitchCase(c.action, ast.Block(tuple(self._spec_block(c.body))))
                for c in stmt.cases
            )
            return [ast.SwitchStmt(stmt.table, cases)]
        feasible = verdict.feasible_actions
        labelled = {c.action for c in stmt.cases if c.action is not None}
        default_needed = bool(feasible - labelled)
        kept_cases: list[ast.SwitchCase] = []
        seen: set[str] = set()
        for case in stmt.cases:
            # An arm for an action an earlier arm took never runs.
            if case.action is not None and (
                case.action not in feasible or case.action in seen
            ):
                self.report.removed_branches += 1
                continue
            seen.add(case.action)
            if case.action is None and not default_needed:
                self.report.removed_branches += 1
                continue
            kept_cases.append(
                ast.SwitchCase(case.action, ast.Block(tuple(self._spec_block(case.body))))
            )
        # One feasible action leaves at most one arm (its own, or the
        # default); the table is then kept or inlined as the prefix says.
        if len(feasible) == 1 and len(kept_cases) <= 1:
            body = list(kept_cases[0].body.statements) if kept_cases else []
            return self._with_headers(prefix) + body
        return [ast.SwitchStmt(stmt.table, tuple(kept_cases))]

    # -- parser -----------------------------------------------------------------------

    def _spec_parser(self, decl: ast.ParserDecl) -> ast.ParserDecl:
        new_states: list[ast.ParserState] = []
        for state in decl.states:
            transition = state.transition
            if isinstance(transition, ast.TransitionSelect):
                transition = self._spec_select(transition)
            new_states.append(
                ast.ParserState(state.name, state.statements, transition)
            )
        reachable = _reachable_states(new_states)
        kept = tuple(s for s in new_states if s.name in reachable)
        out = ast.ParserDecl(decl.name, decl.params, decl.locals, kept)
        _select_headers(out, self._used)
        return out

    def _spec_select(self, select: ast.TransitionSelect) -> ast.Transition:
        kept_cases: list[ast.SelectCase] = []
        for case in select.cases:
            verdict = self._verdict_for_node(id(case))
            if verdict is not None and verdict.executability == NEVER:
                self.report.removed_select_cases += 1
                continue
            kept_cases.append(case)
            if verdict is not None and verdict.executability == ALWAYS:
                break  # later cases are unreachable
        if not kept_cases:
            return ast.TransitionDirect(ast.REJECT)
        if len(kept_cases) == 1 and (
            kept_cases[0].keys and all(k.is_default for k in kept_cases[0].keys)
        ):
            return ast.TransitionDirect(kept_cases[0].state)
        first = kept_cases[0]
        first_verdict = self._verdict_for_node(id(first))
        if first_verdict is not None and first_verdict.executability == ALWAYS:
            return ast.TransitionDirect(first.state)
        return ast.TransitionSelect(select.exprs, tuple(kept_cases))

    # -- parser-tail pruning ----------------------------------------------------------

    def _strip_parser_tail(self, decls: list) -> None:
        """Strip the extracts of unused tail headers from the parser in
        ``decls``, in place.

        A header instance is used when the output controls or parser
        reference it outside its own extract: the union of the memo
        entries' header sets, which ``_build`` has collected.  While the
        input parser is the identical object and the prunable set is the
        same, the last stripped parser is reused.
        """
        order = self.model.extracted_headers
        prunable: set[str] = set()
        for header in reversed(order):
            if header in self._used:
                break
            prunable.add(header)
        if not prunable:
            return
        self.report.pruned_headers.extend(h for h in order if h in prunable)
        for at, decl in enumerate(decls):
            if isinstance(decl, ast.ParserDecl) and decl.name == self._parser:
                stripped = self._stripped
                if stripped is None or stripped[0] is not decl or stripped[1] != prunable:
                    stripped = (decl, prunable, _strip_extracts(decl, prunable))
                    self._stripped = stripped
                decls[at] = stripped[2]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _target_name(expr) -> str:
    if isinstance(expr, ast.Ident):
        return expr.name
    raise TypeError(f"table target must be a bare name, got {expr!r}")


def _apply_stmt(table_name: str) -> ast.MethodCallStmt:
    return ast.MethodCallStmt(
        ast.MethodCall(ast.Ident(table_name), "apply", ())
    )


def _match_apply_hit(cond) -> Optional[tuple[str, bool]]:
    """Recognize ``t.apply().hit`` / ``t.apply().miss`` / negations."""
    want = True
    while isinstance(cond, ast.Unary) and cond.op == "!":
        want = not want
        cond = cond.expr
    if (
        isinstance(cond, ast.Member)
        and cond.name in ("hit", "miss")
        and isinstance(cond.expr, ast.MethodCall)
        and cond.expr.method == "apply"
        and isinstance(cond.expr.target, ast.Ident)
    ):
        if cond.name == "miss":
            want = not want
        return cond.expr.target.name, want
    return None


class SpecializeError(FlayError, KeyError):
    """A specialization invariant failed (missing table/action)."""

    default_stage = STAGE_SPECIALIZE


class _ProgramIndex:
    """Where verdicts land in one program; built once per specializer.

    Every key is the ``id`` of an original AST node.  ``parent`` maps each
    apply-block statement to the statement or control containing it, and
    each parser select case to its parser.  ``mentions`` maps a qualified
    table to the statements that apply it, test its ``.hit``/``.miss`` or
    switch on it, and ``hit_tested`` holds the tables whose
    ``.hit``/``.miss`` is tested.  ``pids`` lists the points annotating
    each indexed node.
    """

    def __init__(
        self, program: ast.Program, model: DataPlaneModel, controls, parser: str
    ) -> None:
        self.parent: dict[int, int] = {}
        self.mentions: dict[str, list[int]] = {}
        self.hit_tested: set[str] = set()
        for decl in program.declarations:
            if isinstance(decl, ast.ControlDecl) and decl.name in controls:
                self._index_block(decl.name, decl.apply, id(decl))
            elif isinstance(decl, ast.ParserDecl) and decl.name == parser:
                for state in decl.states:
                    if isinstance(state.transition, ast.TransitionSelect):
                        for case in state.transition.cases:
                            self.parent[id(case)] = id(decl)
        self.pids: dict[int, list[str]] = {}
        for pid, point in model.points.items():
            if point.node_id in self.parent:
                self.pids.setdefault(point.node_id, []).append(pid)

    def _index_block(self, control: str, block: ast.Block, parent: int) -> None:
        for stmt in block.statements:
            key = id(stmt)
            self.parent[key] = parent
            table = None
            if isinstance(stmt, ast.IfStmt):
                hit_form = _match_apply_hit(stmt.cond)
                if hit_form is not None:
                    table = hit_form[0]
                    self.hit_tested.add(f"{control}.{table}")
                self._index_block(control, stmt.then, key)
                if stmt.orelse is not None:
                    self._index_block(control, stmt.orelse, key)
            elif isinstance(stmt, ast.SwitchStmt):
                table = stmt.table
                for case in stmt.cases:
                    self._index_block(control, case.body, key)
            elif isinstance(stmt, ast.MethodCallStmt):
                call = stmt.call
                if call.method == "apply" and isinstance(call.target, ast.Ident):
                    table = call.target.name
            if table is not None:
                self.mentions.setdefault(f"{control}.{table}", []).append(key)


def _subst_stmt(stmt, mapping: dict[str, ast.Expr]):
    if isinstance(stmt, ast.AssignStmt):
        return ast.AssignStmt(
            _subst_expr(stmt.lhs, mapping), _subst_expr(stmt.rhs, mapping)
        )
    if isinstance(stmt, ast.IfStmt):
        return ast.IfStmt(
            _subst_expr(stmt.cond, mapping),
            ast.Block(tuple(_subst_stmt(s, mapping) for s in stmt.then.statements)),
            ast.Block(tuple(_subst_stmt(s, mapping) for s in stmt.orelse.statements))
            if stmt.orelse is not None
            else None,
        )
    if isinstance(stmt, ast.MethodCallStmt):
        call = stmt.call
        return ast.MethodCallStmt(
            ast.MethodCall(
                _subst_expr(call.target, mapping) if call.target is not None else None,
                call.method,
                tuple(_subst_expr(a, mapping) for a in call.args),
            )
        )
    return stmt


def _subst_expr(expr, mapping: dict[str, ast.Expr]):
    if isinstance(expr, ast.Ident) and expr.name in mapping:
        return mapping[expr.name]
    if isinstance(expr, ast.Member):
        return ast.Member(_subst_expr(expr.expr, mapping), expr.name)
    if isinstance(expr, ast.Slice):
        return ast.Slice(_subst_expr(expr.expr, mapping), expr.hi, expr.lo)
    if isinstance(expr, ast.Cast):
        return ast.Cast(expr.type, _subst_expr(expr.expr, mapping))
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, _subst_expr(expr.expr, mapping))
    if isinstance(expr, ast.Binary):
        return ast.Binary(
            expr.op, _subst_expr(expr.left, mapping), _subst_expr(expr.right, mapping)
        )
    if isinstance(expr, ast.Ternary):
        return ast.Ternary(
            _subst_expr(expr.cond, mapping),
            _subst_expr(expr.then, mapping),
            _subst_expr(expr.orelse, mapping),
        )
    if isinstance(expr, ast.MethodCall):
        return ast.MethodCall(
            _subst_expr(expr.target, mapping) if expr.target is not None else None,
            expr.method,
            tuple(_subst_expr(a, mapping) for a in expr.args),
        )
    return expr


def _reachable_states(states: list[ast.ParserState]) -> set[str]:
    by_name = {s.name: s for s in states}
    reachable: set[str] = set()
    stack = ["start"]
    while stack:
        name = stack.pop()
        if name in reachable or name in (ast.ACCEPT, ast.REJECT):
            continue
        reachable.add(name)
        state = by_name.get(name)
        if state is None:
            continue
        transition = state.transition
        if isinstance(transition, ast.TransitionDirect):
            stack.append(transition.state)
        else:
            stack.extend(case.state for case in transition.cases)
    return reachable


def _strip_extracts(decl: ast.ParserDecl, prunable: set[str]) -> ast.ParserDecl:
    new_states = []
    for state in decl.states:
        statements = tuple(
            s
            for s in state.statements
            if not (
                isinstance(s, ast.MethodCallStmt)
                and s.call.method == "pkt_extract"
                and _extract_target(s.call) in prunable
            )
        )
        new_states.append(ast.ParserState(state.name, statements, state.transition))
    return ast.ParserDecl(decl.name, decl.params, decl.locals, tuple(new_states))


def _extract_target(call: ast.MethodCall) -> Optional[str]:
    from repro.p4.types import lvalue_path

    try:
        return lvalue_path(call.args[0])
    except Exception:
        return None


def _local_headers(local, used: set[str]) -> None:
    if isinstance(local, ast.ActionDecl):
        _block_headers(local.body, used)
    else:
        for key in local.keys:
            _collect_expr_headers(key.expr, used)


def _select_headers(decl: ast.ParserDecl, used: set[str]) -> None:
    for state in decl.states:
        if isinstance(state.transition, ast.TransitionSelect):
            for expr in state.transition.exprs:
                _collect_expr_headers(expr, used)


def _block_headers(block: ast.Block, used: set[str]) -> None:
    for stmt in block.statements:
        _stmt_headers(stmt, used)


def _stmt_headers(stmt, used: set[str]) -> None:
    if isinstance(stmt, ast.AssignStmt):
        _collect_expr_headers(stmt.lhs, used)
        _collect_expr_headers(stmt.rhs, used)
    elif isinstance(stmt, ast.IfStmt):
        _collect_expr_headers(stmt.cond, used)
        _block_headers(stmt.then, used)
        if stmt.orelse is not None:
            _block_headers(stmt.orelse, used)
    elif isinstance(stmt, ast.MethodCallStmt):
        call = stmt.call
        if call.target is not None:
            _collect_expr_headers(call.target, used)
        for arg in call.args:
            _collect_expr_headers(arg, used)
    elif isinstance(stmt, ast.SwitchStmt):
        for case in stmt.cases:
            _block_headers(case.body, used)


def _collect_expr_headers(expr, used: set[str]) -> None:
    """Record ``<param>.<header>`` prefixes of member chains."""
    if isinstance(expr, ast.Member):
        chain: list[str] = []
        node = expr
        while isinstance(node, ast.Member):
            chain.append(node.name)
            node = node.expr
        if isinstance(node, ast.Ident):
            chain.append(node.name)
            chain.reverse()
            if len(chain) >= 2:
                used.add(f"{chain[0]}.{chain[1]}")
        return
    if isinstance(expr, (ast.Unary, ast.Cast, ast.Slice)):
        _collect_expr_headers(expr.expr, used)
    elif isinstance(expr, ast.Binary):
        _collect_expr_headers(expr.left, used)
        _collect_expr_headers(expr.right, used)
    elif isinstance(expr, ast.Ternary):
        _collect_expr_headers(expr.cond, used)
        _collect_expr_headers(expr.then, used)
        _collect_expr_headers(expr.orelse, used)
    elif isinstance(expr, ast.MethodCall):
        if expr.target is not None:
            _collect_expr_headers(expr.target, used)
        for arg in expr.args:
            _collect_expr_headers(arg, used)
