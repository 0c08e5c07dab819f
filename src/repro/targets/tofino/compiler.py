"""Monolithic device-compiler model (the bf-p4c stand-in).

The paper's Table 1 point is that device compilers treat the program as a
monolith and take tens of seconds per compile; Flay's value is avoiding
those compiles.  Real bf-p4c is unavailable, so this model (a) *actually
performs* the expensive whole-program work we can do (dependency analysis
+ stage allocation + a placement refinement sweep), and (b) reports a
*modeled* wall-clock time from a cost model calibrated against Table 1.

Calibration targets (bf-p4c, Table 1): switch.p4 106 s, scion 38 s,
Beaucoup 22 s, ACCTurbo 28 s, DTA 25 s.  The model charges a base cost,
a per-statement cost, a per-table-per-stage placement cost, and a
superlinear term in the dependency-chain length (placement backtracking).

Each compile after the first also prices §6's "recompilation of just the
modules (such as specific tables) that have changed": the table-granular
:class:`ProgramDelta` against the last program compiled, charged by
:meth:`CostModel.modular`.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from itertools import filterfalse
from typing import NamedTuple, Optional

from repro.ir.deps import NodeFacts, build_dependency_graph
from repro.ir.metrics import measure
from repro.p4 import ast_nodes as ast
from repro.p4.types import TypeEnv
from repro.targets.base import Target
from repro.targets.tofino.allocator import allocate
from repro.targets.tofino.resources import PipelineSpec, ResourceReport, TOFINO2


class ProgramDelta(NamedTuple):
    """Table-granular difference between two compiled programs."""

    added_tables: tuple
    removed_tables: tuple
    changed_tables: tuple
    unchanged_tables: tuple
    parser_changed: bool

    @property
    def touched(self) -> int:
        return len(self.added_tables) + len(self.removed_tables) + len(self.changed_tables)

    def describe(self) -> str:
        return (
            f"+{len(self.added_tables)} -{len(self.removed_tables)} "
            f"~{len(self.changed_tables)} tables "
            f"({len(self.unchanged_tables)} untouched"
            f"{', parser changed' if self.parser_changed else ''})"
        )


@dataclass
class CompileReport:
    """Result of one (modeled) device compile; ``delta`` and
    ``modular_seconds`` are ``None`` on a compiler's first compile."""

    program_name: str
    modeled_seconds: float  # what bf-p4c would take (cost model)
    actual_seconds: float  # what our pipeline actually took
    resources: ResourceReport
    statements: int
    tables: int
    delta: Optional[ProgramDelta] = None
    modular_seconds: Optional[float] = None  # what a modular compiler would take

    def describe(self) -> str:
        modular = "" if self.delta is None else (
            f"; modular {self.modular_seconds:.1f} s ({self.delta.describe()})"
        )
        return (
            f"{self.program_name}: modeled {self.modeled_seconds:.1f} s "
            f"({self.statements} stmts, {self.tables} tables) — "
            f"{self.resources.describe()}{modular}"
        )


@dataclass(frozen=True)
class CostModel:
    """Calibrated against the paper's Table 1.

    The coefficients are the exact solution of the 5x5 system mapping our
    corpus programs' features (statements, match key bits, registers,
    allocated stages) to bf-p4c's published times; see EXPERIMENTS.md.
    Negative coefficients arise because the features are correlated — the
    model is clamped below at ``floor_seconds``.
    The last four fields price §6's modular compiler: a relink, per touched
    table, per key bit of the added and changed tables, and a re-placement
    when the parser changed.
    """

    base_seconds: float = 17.583
    per_statement: float = -0.11475
    per_key_bit: float = 0.023723
    per_register: float = -0.96725
    per_stage: float = 2.0672
    floor_seconds: float = 1.0
    relink_seconds: float = 1.5
    per_table_seconds: float = 0.45
    per_key_bit_seconds: float = 0.004
    parser_rebuild_seconds: float = 6.0

    def estimate(
        self,
        statements: int,
        key_bits: int,
        registers: int,
        stages: int,
    ) -> float:
        return max(
            self.floor_seconds,
            self.base_seconds
            + self.per_statement * statements
            + self.per_key_bit * key_bits
            + self.per_register * registers
            + self.per_stage * stages,
        )

    def modular(self, delta: ProgramDelta, key_bits: int) -> float:
        seconds = (
            self.relink_seconds
            + self.per_table_seconds * delta.touched
            + self.per_key_bit_seconds * key_bits
        )
        if delta.parser_changed:
            seconds += self.parser_rebuild_seconds
        return seconds


#: The declarations a ``TypeEnv`` is built from.
_TYPE_DECLS = (ast.TypedefDecl, ast.HeaderDecl, ast.StructDecl, ast.ConstDecl)


class TofinoCompiler(Target):
    """Whole-program ("from scratch") compiler for the RMT target."""

    name = "tofino"
    update_micros = 8.0  # ASIC driver table write

    def __init__(
        self,
        spec: PipelineSpec = TOFINO2,
        cost_model: Optional[CostModel] = None,
        program_name: str = "program",
    ) -> None:
        self.spec = spec
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.program_name = program_name
        self.compile_count = 0
        # The type environment and the dependency-graph memo (table nodes
        # and gateway read sets by AST identity) of the last compile; both
        # are kept while a program's type declarations are the previous
        # program's objects, as they are across one program's
        # specializations.
        self._types: tuple = ()
        self._env: Optional[TypeEnv] = None
        self.facts = NodeFacts()
        # The next delta's baseline: the last parser, pipeline controls'
        # ``_tables``, sorted table names, and last no-op (delta, seconds).
        self._parser: Optional[ast.ParserDecl] = None
        self._controls: dict = {}
        self._table_names: tuple = ()
        self._noop: tuple = (None, None)

    def _type_env(self, program: ast.Program) -> TypeEnv:
        types = tuple(d for d in program.declarations if isinstance(d, _TYPE_DECLS))
        if (
            self._env is None
            or len(types) != len(self._types)
            or not all(map(operator.is_, types, self._types))
        ):
            self._types, self._env, self.facts = types, TypeEnv(program), NodeFacts()
        return self._env

    def compile(self, program: ast.Program) -> CompileReport:
        start = time.perf_counter()
        env = self._type_env(program)
        graph = build_dependency_graph(program, env, facts=self.facts)
        resources = allocate(program, self.spec, env, graph=graph)
        metrics = measure(program)
        key_bits = sum(
            node.key_bits for node in graph.nodes.values() if not node.is_gateway
        )
        modeled = self.cost_model.estimate(
            statements=metrics.statements,
            key_bits=key_bits,
            registers=metrics.registers,
            stages=resources.stages_used,
        )
        delta, modular = self._modular(program, graph.nodes)
        self.compile_count += 1
        return CompileReport(
            program_name=self.program_name,
            modeled_seconds=modeled,
            actual_seconds=time.perf_counter() - start,
            resources=resources,
            statements=metrics.statements,
            tables=resources.total_tables,
            delta=delta,
            modular_seconds=modular,
        )

    def _modular(self, program: ast.Program, nodes: dict) -> tuple:
        """The delta from the last compiled program and its modular seconds
        (``None`` on the first compile).  Identical controls are skipped; in
        any other, a table is unchanged when its ``TableDecl`` and listed
        ``ActionDecl``s are identical or equal (AST equality is structural,
        positions aside) to the last ones; the parser likewise."""
        pipeline = program.pipeline
        previous, current, parser = self._controls, {}, None
        added, removed, changed = [], [], []
        for decl in program.declarations:
            kind = type(decl)
            if kind is ast.ParserDecl and decl.name == pipeline.parser:
                parser = decl
            elif kind is ast.ControlDecl and decl.name in pipeline.controls:
                before = previous.get(decl.name)
                if before is None or before[0] is not decl:
                    before = _tables(decl, before, added, removed, changed)
                current[decl.name] = before
        for name in previous.keys() - current.keys():
            removed.extend(entry[0] for entry in previous[name][1].values())
        parser_changed = parser is not self._parser and parser != self._parser
        self._controls, self._parser, names = current, parser, self._table_names
        if added or removed:
            names = tuple(sorted(set(names).difference(removed).union(added)))
            self._table_names = names
        if self.compile_count == 0:
            return None, None
        if not (added or removed or changed or parser_changed):
            # One shared report pair while the table names stay the same.
            if self._noop[0] is None or self._noop[0].unchanged_tables is not names:
                delta = ProgramDelta((), (), (), names, False)
                self._noop = delta, self.cost_model.modular(delta, 0)
            return self._noop
        touched = set(added).union(changed)
        key_bits = sum(nodes[name].key_bits for name in touched if name in nodes)
        delta = ProgramDelta(
            tuple(sorted(added)),
            tuple(sorted(removed)),
            tuple(sorted(changed)),
            tuple(filterfalse(touched.__contains__, names)) if touched else names,
            parser_changed,
        )
        return delta, self.cost_model.modular(delta, key_bits)


def _tables(control, before, added: list, removed: list, changed: list) -> tuple:
    """(control, its tables: name → (qualified name, TableDecl, the
    ActionDecls it lists)).  Tables new since ``before`` (the last such
    pair, or ``None``) go to ``added``, gone ones to ``removed``, differing
    ones to ``changed``; a table that stays keeps its qualified name."""
    actions = control.actions_by_name()
    old = before[1] if before is not None else {}
    # Dict and tuple comparisons try identity before ``==`` per item.
    same_actions = before is not None and actions == before[0].actions_by_name()
    tables = {}
    for name, decl in control.tables_by_name().items():
        entry = old.get(name)
        if entry is None or not same_actions or entry[1] is not decl:
            listed = tuple([actions.get(ref.name) for ref in decl.actions])
            if entry is None:
                entry = (f"{control.name}.{name}",)
                added.append(entry[0])
            elif entry[1:] != (decl, listed):
                changed.append(entry[0])
            entry = (entry[0], decl, listed)
        tables[name] = entry
    if len(tables) != len(old) or added:
        removed.extend(entry[0] for name, entry in old.items() if name not in tables)
    return control, tables
