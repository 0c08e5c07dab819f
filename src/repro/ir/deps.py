"""Table dependency analysis for RMT stage allocation.

Walks each control's apply block in program order and extracts a sequence
of *logical table nodes* (match-action tables plus the gateway conditions
guarding them), each with read/write sets over flattened field paths.
Classic RMT dependency classes between earlier node A and later node B:

* **match dependency** — A writes a field B matches/reads → B must be in a
  strictly later stage;
* **action dependency** — A and B write the same field → strictly later;
* **control dependency** — B executes under a gateway fed by A's result →
  later stage (Tofino gateways resolve in-stage, but successor tables of a
  hit/miss branch still serialize).

A node's read/write sets come from one syntactic walk over its keys,
its actions' bodies and the bodies of the actions those call.  Every
field an expression mentions is a read, even one the action rebuilt
before using it.  Assignments, validity changes, ``mark_to_drop`` and
the destinations of ``hash``, ``update_checksum`` and ``register.read``
are writes.

The Tofino allocator consumes this graph to compute the stage count.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from repro.p4 import ast_nodes as ast
from repro.p4.types import TypeEnv, lvalue_path

MATCH_DEP = "match"
ACTION_DEP = "action"
CONTROL_DEP = "control"

#: Sticky flags: many tables OR into these, and RMT hardware folds such
#: writes into per-table bitmasks rather than ALU data hazards — they must
#: not create action dependencies between otherwise-independent tables.
STICKY_FIELDS = frozenset({"std.drop", "std.parser_error"})


@dataclass
class TableNode:
    """One logical table: a P4 table, or a gateway-only conditional."""

    name: str
    control: str
    is_gateway: bool
    reads: set[str] = dataclass_field(default_factory=set)
    writes: set[str] = dataclass_field(default_factory=set)
    key_bits: int = 0
    ternary_key_bits: int = 0
    lpm_key_bits: int = 0
    exact_key_bits: int = 0
    size: int = 512
    num_actions: int = 0
    action_param_bits: int = 0


@dataclass(frozen=True)
class DepEdge:
    src: str
    dst: str
    kind: str


@dataclass
class DependencyGraph:
    nodes: dict[str, TableNode]
    edges: list[DepEdge]
    order: list[str]  # program order of node names
    _into: Optional[dict[str, list[DepEdge]]] = dataclass_field(
        default=None, init=False, repr=False, compare=False
    )

    def successors(self, name: str) -> list[DepEdge]:
        return [e for e in self.edges if e.src == name]

    def predecessors(self, name: str) -> list[DepEdge]:
        """The edges into ``name``, in edge order (indexed on first use)."""
        if self._into is None:
            self._into = {}
            for edge in self.edges:
                self._into.setdefault(edge.dst, []).append(edge)
        return self._into.get(name, [])

    def longest_chain(self) -> int:
        """Length (in nodes) of the longest dependency chain."""
        depth: dict[str, int] = {}
        for name in self.order:
            best = 0
            for edge in self.predecessors(name):
                best = max(best, depth.get(edge.src, 0))
            depth[name] = best + 1
        return max(depth.values(), default=0)

    def components(self) -> list[frozenset[str]]:
        """Connected components of the (undirected) dependency graph.

        Two tables in the same component can observe each other's effects,
        so control-plane updates targeting them must be re-verdicted
        together; tables in different components are independent units
        of recompilation (the RMT observation the batch scheduler builds
        its conflict groups on).  Components are returned in program order
        of their first member.
        """
        parent: dict[str, str] = {name: name for name in self.order}

        def find(name: str) -> str:
            root = name
            while parent[root] != root:
                root = parent[root]
            while parent[name] != root:
                parent[name], name = root, parent[name]
            return root

        for edge in self.edges:
            ra, rb = find(edge.src), find(edge.dst)
            if ra != rb:
                parent[rb] = ra
        grouped: dict[str, list[str]] = {}
        for name in self.order:
            grouped.setdefault(find(name), []).append(name)
        return [frozenset(members) for members in grouped.values()]


#: Destination-writing externs: the first argument is assigned, the rest
#: are read.  ``register.read`` is target-dispatched; ``hash`` and
#: ``update_checksum`` are free-standing.
_DST_WRITE_METHODS = ("read", "hash", "update_checksum")


class NodeFacts:
    """Table nodes and gateway read sets, kept from one build to the next.

    Keyed by the identity of the AST objects they are read from: a table
    node by its ``TableDecl``, the control's parameters and variable
    declarations, and the action declarations it lists or they call; a
    gateway's read set by its condition.  Each build keeps only the
    entries it used, so the memo holds the last program's nodes and no
    more.  The facts also depend on the type environment, so a memo
    serves one program's type declarations (see ``TofinoCompiler``).
    """

    def __init__(self) -> None:
        self._entries: dict = {}
        self._used: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key):
        """The value stored under ``key`` by this build or the last one."""
        hit = self._used.get(key) or self._entries.get(key)
        if hit is not None:
            self._used[key] = hit
            return hit[-1]
        return None

    def store(self, key, held: tuple, value) -> None:
        """Record ``value``; ``held`` keeps the keyed objects (and so
        their ids) alive while the entry is."""
        self._used[key] = (held, value)

    def finish(self) -> None:
        """End a build: drop every entry it did not use."""
        self._entries, self._used = self._used, {}


def build_dependency_graph(
    program: ast.Program,
    env: Optional[TypeEnv] = None,
    *,
    facts: Optional[NodeFacts] = None,
) -> DependencyGraph:
    """The program's table dependency graph.

    With ``facts``, the table nodes and gateway read sets of AST objects
    the previous build saw are taken from it rather than recomputed.
    """
    env = env if env is not None else TypeEnv(program)
    builder = _Builder(program, env, facts=facts)
    for control_name in program.pipeline.controls:
        control = program.find(control_name)
        builder.walk_control(control)
    builder.connect()
    builder.facts.finish()
    return DependencyGraph(builder.nodes, builder.edges, builder.order)


class _Builder:
    def __init__(
        self,
        program: ast.Program,
        env: TypeEnv,
        facts: Optional[NodeFacts] = None,
    ) -> None:
        self.program = program
        self.env = env
        self.facts = facts if facts is not None else NodeFacts()
        self.nodes: dict[str, TableNode] = {}
        self.edges: list[DepEdge] = []
        self.order: list[str] = []
        self._gateway_counter = 0
        # (node, guard-source-nodes, branch-path) in program order.  The
        # branch path records (gateway, arm) pairs; two nodes whose paths
        # diverge at the same gateway are mutually exclusive and impose no
        # match/action dependency on each other.
        self._sequence: list[tuple[TableNode, frozenset[str], tuple]] = []

    # -- walking -------------------------------------------------------------

    def walk_control(self, control: ast.ControlDecl) -> None:
        self._tables = control.tables_by_name()
        self._actions = control.actions_by_name()
        var_decls = [
            local for local in control.locals if isinstance(local, ast.VarDeclStmt)
        ]
        # What a table node reads of its control besides its actions: the
        # parameters and variables its key widths resolve through.
        self._context = (control.params, tuple(var_decls))
        self._context_key = (control.name, id(control.params), *map(id, var_decls))
        self._scope: Optional[object] = None  # built on the first table miss
        self._walk_block(control, control.apply, guards=frozenset(), branch=())

    def _walk_block(
        self,
        control: ast.ControlDecl,
        block: ast.Block,
        guards: frozenset[str],
        branch: tuple,
    ) -> None:
        for stmt in block.statements:
            self._walk_stmt(control, stmt, guards, branch)

    def _walk_stmt(self, control, stmt, guards: frozenset[str], branch: tuple) -> None:
        if isinstance(stmt, ast.MethodCallStmt):
            call = stmt.call
            if call.method == "apply" and call.target is not None:
                self._add_table(control, lvalue_path(call.target), guards, branch)
            return
        if isinstance(stmt, ast.IfStmt):
            gateway = self._add_gateway(control, stmt.cond, guards, branch)
            inner = guards | {gateway.name}
            self._walk_block(control, stmt.then, inner, branch + ((gateway.name, 0),))
            if stmt.orelse is not None:
                self._walk_block(
                    control, stmt.orelse, inner, branch + ((gateway.name, 1),)
                )
            return
        if isinstance(stmt, ast.SwitchStmt):
            table = self._add_table(control, stmt.table, guards, branch)
            inner = guards | {table.name}
            for arm, case in enumerate(stmt.cases):
                self._walk_block(
                    control, case.body, inner, branch + ((table.name, arm),)
                )
            return
        # Straight-line statements contribute to the enclosing gateway-less
        # ALU work; they do not create table nodes.

    def _add_gateway(
        self, control, cond, guards: frozenset[str], branch: tuple
    ) -> TableNode:
        # `if (t.apply().hit)` — the table is the gateway.
        if (
            isinstance(cond, ast.Member)
            and cond.name in ("hit", "miss")
            and isinstance(cond.expr, ast.MethodCall)
            and cond.expr.method == "apply"
        ):
            return self._add_table(
                control, lvalue_path(cond.expr.target), guards, branch
            )
        self._gateway_counter += 1
        node = TableNode(
            name=f"{control.name}.$gw{self._gateway_counter}",
            control=control.name,
            is_gateway=True,
        )
        reads = self.facts.lookup(id(cond))
        if reads is None:
            reads = _expr_fields(cond)
            self.facts.store(id(cond), (cond,), reads)
        node.reads = reads
        self._register(node, guards, branch)
        return node

    def _add_table(
        self, control, table_name: str, guards: frozenset[str], branch: tuple
    ) -> TableNode:
        decl = self._tables.get(table_name)
        if decl is None:
            raise KeyError(f"control {control.name!r} has no table {table_name!r}")
        qualified = f"{control.name}.{table_name}"
        if qualified in self.nodes:
            return self.nodes[qualified]
        actions = _action_closure(
            [self._actions.get(ref.name) for ref in decl.actions], self._actions
        )
        key = (id(decl), self._context_key, *map(id, actions))
        node = self.facts.lookup(key)
        if node is None:
            node = self._table_node(control, qualified, decl, actions)
            self.facts.store(key, (decl, self._context, actions), node)
        self._register(node, guards, branch)
        return node

    def _table_node(
        self, control, qualified: str, decl: ast.TableDecl, actions: tuple
    ) -> TableNode:
        node = TableNode(
            name=qualified,
            control=control.name,
            is_gateway=False,
            size=decl.size or 512,
            num_actions=len(decl.actions),
        )
        if self._scope is None:
            self._scope = _control_scope(self.env, control)
        for key in decl.keys:
            node.reads |= _expr_fields(key.expr)
            width = _key_width(key.expr, self._scope, self.env)
            node.key_bits += width
            if key.match_kind == "ternary":
                node.ternary_key_bits += width
            elif key.match_kind == "lpm":
                node.lpm_key_bits += width
            else:
                node.exact_key_bits += width
        for ref in decl.actions:
            action = self._actions.get(ref.name)
            if action is None:
                raise KeyError(f"control {control.name!r} has no action {ref.name!r}")
            node.action_param_bits += sum(
                self.env.width_of(p.type) for p in action.params
            )
        for action in actions:  # the listed ones and those they call
            reads, writes = _action_reads_writes(action)
            node.reads |= reads
            node.writes |= writes
        return node

    def _register(self, node: TableNode, guards: frozenset[str], branch: tuple) -> None:
        self.nodes[node.name] = node
        self.order.append(node.name)
        self._sequence.append((node, guards, branch))

    # -- edges ----------------------------------------------------------------

    def connect(self) -> None:
        # Earlier nodes by the fields they write: a node depends only on
        # writers of a field it reads or (non-sticky) writes.  Visiting them
        # in sequence order gives the edges of the all-pairs scan, in order.
        # Every edge into a node is made in that node's turn, so a pair
        # repeats only as a guard edge after a match/action edge.
        edges = self.edges
        writers: dict[str, list[int]] = {}
        for i, (later, later_guards, later_branch) in enumerate(self._sequence):
            dst = later.name
            candidates: set[int] = set()
            for path in later.reads:
                candidates.update(writers.get(path, ()))
            for path in later.writes:
                if path not in STICKY_FIELDS:
                    candidates.update(writers.get(path, ()))
            sources: set[str] = set()
            for j in sorted(candidates):
                earlier, _, earlier_branch = self._sequence[j]
                if _mutually_exclusive(earlier_branch, later_branch):
                    continue
                if earlier.writes.isdisjoint(later.reads):
                    kind = ACTION_DEP
                else:
                    kind = MATCH_DEP
                sources.add(earlier.name)
                edges.append(DepEdge(earlier.name, dst, kind))
            for guard in later_guards:
                if guard not in sources and guard != dst:
                    edges.append(DepEdge(guard, dst, CONTROL_DEP))
            for path in later.writes:
                writers.setdefault(path, []).append(i)


# ---------------------------------------------------------------------------
# Field extraction helpers
# ---------------------------------------------------------------------------


def _mutually_exclusive(branch_a: tuple, branch_b: tuple) -> bool:
    """True when the two branch paths diverge at a common gateway/switch."""
    for (gw_a, arm_a), (gw_b, arm_b) in zip(branch_a, branch_b):
        if gw_a != gw_b:
            return False
        if arm_a != arm_b:
            return True
    return False


def _expr_fields(expr) -> set[str]:
    """Flattened field paths an expression reads."""
    fields: set[str] = set()
    _collect_fields(expr, fields)
    return fields


def _collect_fields(expr, out: set[str]) -> None:
    if isinstance(expr, ast.Member):
        path = _maybe_path(expr)
        if path is not None:
            out.add(path)
            return
        _collect_fields(expr.expr, out)
    elif isinstance(expr, ast.Ident):
        out.add(expr.name)
    elif isinstance(expr, (ast.Unary, ast.Cast, ast.Slice)):
        _collect_fields(expr.expr, out)
    elif isinstance(expr, ast.Binary):
        _collect_fields(expr.left, out)
        _collect_fields(expr.right, out)
    elif isinstance(expr, ast.Ternary):
        _collect_fields(expr.cond, out)
        _collect_fields(expr.then, out)
        _collect_fields(expr.orelse, out)
    elif isinstance(expr, ast.MethodCall):
        if expr.target is not None and expr.method == "isValid":
            path = _maybe_path(expr.target)
            if path is not None:
                out.add(path + ".$valid")
                return
        for arg in expr.args:
            _collect_fields(arg, out)


def _maybe_path(expr) -> Optional[str]:
    try:
        return lvalue_path(expr)
    except Exception:
        return None


def _action_reads_writes(action: ast.ActionDecl) -> tuple[set[str], set[str]]:
    """The fields an action may read and may write, parameters excluded.

    Every field an expression mentions is a read, even one the action
    wrote earlier.
    """
    param_names = {p.name for p in action.params}
    reads: set[str] = set()
    writes: set[str] = set()
    _block_reads_writes(action.body, param_names, reads, writes)
    return reads, writes


def _action_closure(roots: list, actions: dict) -> tuple:
    """``roots`` and every action they call, directly or through another
    action, each once, in the order first reached.

    ``actions`` maps the control's action names to their declarations; a
    root that is None (an action the control lacks) is kept as it is.
    """
    closure = list(roots)
    seen = {id(action) for action in closure}
    for action in closure:  # grows while it is walked
        if action is None:
            continue
        for name in _called_names(action.body):
            called = actions.get(name)
            if called is not None and id(called) not in seen:
                seen.add(id(called))
                closure.append(called)
    return tuple(closure)


def _called_names(block: ast.Block):
    """The names of the free functions (actions) a block calls."""
    for stmt in block.statements:
        if isinstance(stmt, ast.MethodCallStmt) and stmt.call.target is None:
            yield stmt.call.method
        elif isinstance(stmt, ast.IfStmt):
            yield from _called_names(stmt.then)
            if stmt.orelse is not None:
                yield from _called_names(stmt.orelse)


def _block_reads_writes(block: ast.Block, params: set[str], reads, writes) -> None:
    for stmt in block.statements:
        if isinstance(stmt, ast.AssignStmt):
            lhs = stmt.lhs.expr if isinstance(stmt.lhs, ast.Slice) else stmt.lhs
            path = _maybe_path(lhs)
            if path is not None and path not in params:
                writes.add(path)
            reads.update(f for f in _expr_fields(stmt.rhs) if f not in params)
        elif isinstance(stmt, ast.IfStmt):
            reads.update(f for f in _expr_fields(stmt.cond) if f not in params)
            _block_reads_writes(stmt.then, params, reads, writes)
            if stmt.orelse is not None:
                _block_reads_writes(stmt.orelse, params, reads, writes)
        elif isinstance(stmt, ast.MethodCallStmt):
            call = stmt.call
            if call.method == "mark_to_drop":
                writes.add("std.drop")
            elif call.method in ("setValid", "setInvalid") and call.target is not None:
                path = _maybe_path(call.target)
                if path is not None:
                    writes.add(path + ".$valid")
            elif call.method in _DST_WRITE_METHODS and call.args:
                path = _maybe_path(call.args[0])
                if path is not None and path not in params:
                    writes.add(path)
                for arg in call.args[1:]:
                    reads.update(f for f in _expr_fields(arg) if f not in params)
            else:
                for arg in call.args:
                    reads.update(f for f in _expr_fields(arg) if f not in params)


def _control_scope(env: TypeEnv, control: ast.ControlDecl):
    from repro.p4.types import scope_for_params

    scope = scope_for_params(env, control.params)
    for local in control.locals:
        if isinstance(local, ast.VarDeclStmt):
            scope.bind(local.name, local.type)
    return scope


def _key_width(expr, scope, env: TypeEnv) -> int:
    from repro.p4.types import bit_width

    try:
        return bit_width(expr, scope, context_width=32)
    except Exception:
        return 32
