"""The data-plane model: annotated program points + table metadata.

Running the state-merging symbolic executor over a program produces a
:class:`DataPlaneModel` — the paper's "Annotated P4C-IR" (Fig. 4).  Each
program point of interest (if-condition, table apply, assignment, parser
select) carries a *hermetic* expression over data-plane symbols (``@x@``)
and control-plane symbols (``|x|``); the taint map sends every control-plane
symbol to the points it can influence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import FlayError, STAGE_RUNTIME
from repro.smt import terms as T
from repro.smt.terms import Term


class UnknownTableError(FlayError, KeyError):
    """A control-plane name does not resolve to a table or value set."""

    default_stage = STAGE_RUNTIME


# Program point kinds.
KIND_IF = "if"
KIND_TABLE = "table"
KIND_ASSIGN = "assign"
KIND_SELECT = "select"
KIND_ACTION_VALUE = "action-value"

_NO_NAMES: frozenset[str] = frozenset()


def control_var_names(
    term: Term, memo: dict[int, frozenset[str]]
) -> frozenset[str]:
    """The names of the control-plane symbols in ``term``.

    ``memo`` maps the ``id`` of every node already visited to its names: a
    control symbol's own, an interior node's the union of its children's
    (sharing a child's set when it already holds the others).  Points
    whose expressions share sub-DAGs therefore walk each node once across
    all of them.  ``id`` keys are sound because the memo lives for one
    analysis run and no term collection runs inside one.
    """
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        if not expanded:
            stack.append((node, True))
            for child in node.args:
                if id(child) not in memo:
                    stack.append((child, False))
            continue
        if node.is_control_var:
            memo[id(node)] = frozenset((node.name,))
            continue
        names = _NO_NAMES
        for child in node.args:
            child_names = memo[id(child)]
            if not child_names <= names:
                names = child_names if not names else names | child_names
        memo[id(node)] = names
    return memo[id(term)]


@dataclass(frozen=True)
class ProgramPoint:
    """One annotated point: a stable id plus its data-plane expression."""

    pid: str
    kind: str
    expr: Term
    # Human-oriented context: source construct this point describes.
    context: str = ""
    # Identity (id()) of the AST node this point annotates, so the
    # specializer can map verdicts back onto the tree.  None for synthetic
    # points with no single source construct.
    node_id: Optional[int] = None

    def control_vars(self) -> set[str]:
        return {v.name for v in T.control_variables(self.expr)}


@dataclass(frozen=True)
class KeyInfo:
    """One table key: its symbolic value at the apply site."""

    term: Term
    match_kind: str  # exact | ternary | lpm
    width: int


@dataclass(frozen=True)
class ActionParamInfo:
    name: str
    width: int
    var: Term  # the control-plane symbol standing for this parameter


@dataclass
class TableInfo:
    """Everything the control-plane encoder needs to know about one table.

    The *action selector* control symbol takes the code of the action the
    table will run (the miss case selects the default action's code), and
    the *hit* symbol is 1 iff some entry matched.  Per-action parameter
    symbols stand for the winning entry's action data.
    """

    name: str  # fully qualified: "<control>.<table>"
    local_name: str
    control: str
    keys: list[KeyInfo]
    action_order: list[str]  # declared action names, in order
    action_codes: dict[str, int]
    default_action: str
    default_args: tuple
    action_params: dict[str, list[ActionParamInfo]]
    size: Optional[int]
    selector_var: Term
    hit_var: Term  # 1-bit
    apply_condition: Term  # path condition under which the apply executes

    SELECTOR_WIDTH = 8

    def control_var_names(self) -> set[str]:
        names = {self.selector_var.name, self.hit_var.name}
        for params in self.action_params.values():
            names.update(p.var.name for p in params)
        return names

    def key_widths(self) -> list[int]:
        return [k.width for k in self.keys]


@dataclass
class ValueSetInfo:
    """A parser value set: per-slot (valid, value) control symbols."""

    name: str  # fully qualified: "<parser>.<pvs>"
    local_name: str
    parser: str
    width: int
    size: int
    valid_vars: list[Term]
    value_vars: list[Term]

    def control_var_names(self) -> set[str]:
        names = {v.name for v in self.valid_vars}
        names.update(v.name for v in self.value_vars)
        return names


@dataclass
class DataPlaneModel:
    """The complete annotated program."""

    points: dict[str, ProgramPoint] = field(default_factory=dict)
    tables: dict[str, TableInfo] = field(default_factory=dict)
    value_sets: dict[str, ValueSetInfo] = field(default_factory=dict)
    # Final symbolic store at pipeline end: output field path → term.
    final_store: dict[str, Term] = field(default_factory=dict)
    # Taint map: control symbol name → pids of points it can influence.
    taint: dict[str, set[str]] = field(default_factory=dict)
    # Headers extracted by the parser, in extraction order (for tail pruning).
    extracted_headers: list[str] = field(default_factory=list)
    # Analysis bookkeeping.
    analysis_seconds: float = 0.0
    skipped_parser: bool = False

    def add_point(
        self,
        point: ProgramPoint,
        taint_memo: Optional[dict[int, frozenset[str]]] = None,
    ) -> None:
        """Register ``point`` and index it under each control symbol in it.

        ``taint_memo`` is the executor's run-long memo for
        :func:`control_var_names`; without one the point's DAG is walked
        afresh.
        """
        if point.pid in self.points:
            raise ValueError(f"duplicate program point {point.pid!r}")
        self.points[point.pid] = point
        memo = {} if taint_memo is None else taint_memo
        for var_name in control_var_names(point.expr, memo):
            self.taint.setdefault(var_name, set()).add(point.pid)

    def points_for_control_vars(self, names: Iterable[str]) -> set[str]:
        """Program points tainted by any of the given control symbols."""
        affected: set[str] = set()
        for name in names:
            affected.update(self.taint.get(name, ()))
        return affected

    def table(self, name: str) -> TableInfo:
        """Look up a table by qualified or local name."""
        if name in self.tables:
            return self.tables[name]
        matches = [t for t in self.tables.values() if t.local_name == name]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise UnknownTableError(f"no table named {name!r}")
        raise UnknownTableError(
            f"table name {name!r} is ambiguous: {[t.name for t in matches]}"
        )

    def value_set(self, name: str) -> ValueSetInfo:
        if name in self.value_sets:
            return self.value_sets[name]
        matches = [v for v in self.value_sets.values() if v.local_name == name]
        if len(matches) == 1:
            return matches[0]
        raise UnknownTableError(f"no value set named {name!r}")

    @property
    def point_count(self) -> int:
        return len(self.points)

    def total_expression_size(self) -> int:
        """Sum of DAG sizes across all annotations (complexity metric)."""
        seen: set[int] = set()
        total = 0
        for point in self.points.values():
            for node in T.iter_dag(point.expr):
                if id(node) not in seen:
                    seen.add(id(node))
                    total += 1
        return total
