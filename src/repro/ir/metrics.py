"""Program metrics: statement counts, control-path counts, McCabe complexity.

The "Program statements" column of the paper's Table 2 and the
"exponential in the number of control paths" observation (§4.2) both come
from here.

This module also hosts the cache instrumentation shared by the
cross-update evaluation caches (delta substitution, solver verdict
memoization, active-entry elision): every cache layer
owns a :class:`CacheCounter`, and :class:`CacheReport` aggregates them for
the ``--stats`` CLI flag and the cache benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.p4 import ast_nodes as ast


# ---------------------------------------------------------------------------
# Cache instrumentation
# ---------------------------------------------------------------------------


@dataclass
class CacheCounter:
    """Hit/miss/invalidation counters for one cache layer.

    ``hits`` are lookups answered from the cache, ``misses`` are lookups
    that had to compute (and usually then populate the cache), and
    ``invalidations`` counts entries dropped because a control-plane update
    made them stale — the delta the incremental pipeline actually pays for.
    """

    name: str
    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    def hit(self, n: int = 1) -> None:
        self.hits += n

    def miss(self, n: int = 1) -> None:
        self.misses += n

    def invalidate(self, n: int = 1) -> None:
        self.invalidations += n

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> "CacheCounter":
        """A frozen copy, for before/after deltas in benchmarks."""
        return CacheCounter(self.name, self.hits, self.misses, self.invalidations)

    def since(self, baseline: "CacheCounter") -> "CacheCounter":
        """Counter activity between ``baseline`` and now."""
        return CacheCounter(
            self.name,
            self.hits - baseline.hits,
            self.misses - baseline.misses,
            self.invalidations - baseline.invalidations,
        )

    def reset(self) -> None:
        self.hits = self.misses = self.invalidations = 0

    def describe(self) -> str:
        return (
            f"{self.name:<14} {self.hits:>10} {self.misses:>10} "
            f"{self.invalidations:>13} {self.hit_rate * 100:>8.1f}%"
        )


@dataclass
class CacheReport:
    """All cache layers of one pipeline instance, printable as a table."""

    counters: list = field(default_factory=list)

    def add(self, counter: CacheCounter) -> None:
        self.counters.append(counter)

    def get(self, name: str) -> CacheCounter:
        for counter in self.counters:
            if counter.name == name:
                return counter
        raise KeyError(f"no cache counter named {name!r}")

    @property
    def total_hits(self) -> int:
        return sum(c.hits for c in self.counters)

    @property
    def total_misses(self) -> int:
        return sum(c.misses for c in self.counters)

    @property
    def total_invalidations(self) -> int:
        return sum(c.invalidations for c in self.counters)

    def describe(self) -> str:
        lines = [
            f"{'cache':<14} {'hits':>10} {'misses':>10} "
            f"{'invalidations':>13} {'hit rate':>9}"
        ]
        lines.extend(c.describe() for c in self.counters)
        lines.append(
            f"{'total':<14} {self.total_hits:>10} {self.total_misses:>10} "
            f"{self.total_invalidations:>13}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class ProgramMetrics:
    statements: int
    tables: int
    actions: int
    keys: int
    if_statements: int
    parser_states: int
    registers: int
    control_paths: int  # product/sum of branch choices (capped)
    mccabe: int  # decision points + 1

    def __str__(self) -> str:
        return (
            f"{self.statements} stmts, {self.tables} tables, "
            f"{self.actions} actions, {self.control_paths} paths"
        )


_PATH_CAP = 10**12


def measure(program: ast.Program) -> ProgramMetrics:
    counter = _Counter()
    for decl in program.declarations:
        if isinstance(decl, ast.ControlDecl):
            counter.control(decl)
        elif isinstance(decl, ast.ParserDecl):
            counter.parser(decl)
    return ProgramMetrics(
        statements=counter.statements,
        tables=counter.tables,
        actions=counter.actions,
        keys=counter.keys,
        if_statements=counter.ifs,
        parser_states=counter.states,
        registers=counter.registers,
        control_paths=min(counter.paths, _PATH_CAP),
        mccabe=counter.decisions + 1,
    )


def statement_count(program: ast.Program) -> int:
    return measure(program).statements


class _Counter:
    def __init__(self) -> None:
        self.statements = 0
        self.tables = 0
        self.actions = 0
        self.keys = 0
        self.ifs = 0
        self.states = 0
        self.registers = 0
        self.decisions = 0
        self.paths = 1

    def control(self, decl: ast.ControlDecl) -> None:
        action_choices: dict[str, int] = {}
        for local in decl.locals:
            if isinstance(local, ast.ActionDecl):
                self.actions += 1
                self.block(local.body)
            elif isinstance(local, ast.TableDecl):
                self.tables += 1
                self.keys += len(local.keys)
                self.statements += 1  # the table declaration itself
                # Each apply multiplies paths by the number of actions.
                action_choices[local.name] = max(1, len(local.actions))
            elif isinstance(local, ast.InstantiationDecl):
                self.statements += 1
                if local.kind == "register":
                    self.registers += 1
            elif isinstance(local, ast.VarDeclStmt):
                self.statements += 1
        self.paths = _cap_mul(self.paths, self._block_paths(decl.apply, action_choices))
        self.block(decl.apply)

    def parser(self, decl: ast.ParserDecl) -> None:
        state_paths = 1
        for state in decl.states:
            self.states += 1
            for stmt in state.statements:
                self.stmt(stmt)
            if isinstance(state.transition, ast.TransitionSelect):
                choices = len(state.transition.cases) + 1
                self.decisions += choices - 1
                state_paths = _cap_mul(state_paths, choices)
        self.paths = _cap_mul(self.paths, state_paths)

    def block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self.stmt(stmt)

    def stmt(self, stmt) -> None:
        self.statements += 1
        if isinstance(stmt, ast.IfStmt):
            self.ifs += 1
            self.decisions += 1
            self.block(stmt.then)
            if stmt.orelse is not None:
                self.block(stmt.orelse)
        elif isinstance(stmt, ast.SwitchStmt):
            self.decisions += max(1, len(stmt.cases)) - 1
            for case in stmt.cases:
                self.block(case.body)

    def _block_paths(self, block: ast.Block, action_choices: dict[str, int]) -> int:
        paths = 1
        for stmt in block.statements:
            paths = _cap_mul(paths, self._stmt_paths(stmt, action_choices))
        return paths

    def _stmt_paths(self, stmt, action_choices: dict[str, int]) -> int:
        if isinstance(stmt, ast.IfStmt):
            then_paths = self._block_paths(stmt.then, action_choices)
            else_paths = (
                self._block_paths(stmt.orelse, action_choices)
                if stmt.orelse is not None
                else 1
            )
            return min(_PATH_CAP, then_paths + else_paths)
        if isinstance(stmt, ast.SwitchStmt):
            total = action_choices.get(stmt.table, 1)
            for case in stmt.cases:
                total = min(
                    _PATH_CAP, total + self._block_paths(case.body, action_choices)
                )
            return total
        if isinstance(stmt, ast.MethodCallStmt) and stmt.call.method == "apply":
            if stmt.call.target is not None and isinstance(stmt.call.target, ast.Ident):
                return action_choices.get(stmt.call.target.name, 1)
        return 1


def _cap_mul(a: int, b: int) -> int:
    return min(_PATH_CAP, a * b)
