"""AST for the P4-16 subset.

The shape mirrors the P4-16 grammar restricted to the constructs Flay's
analysis relies on: headers/structs, parsers with select-based state
machines and value sets, controls with actions and match-action tables,
straight-line apply blocks with if/else, and a small extern surface
(registers, counters, drop, checksums).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitType:
    """``bit<N>``."""

    width: int

    def __str__(self) -> str:
        return f"bit<{self.width}>"


@dataclass(frozen=True)
class BoolType:
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class NamedType:
    """A reference to a typedef, header, or struct by name."""

    name: str

    def __str__(self) -> str:
        return self.name


Type = Union[BitType, BoolType, NamedType]

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int
    width: Optional[int] = None  # None = unsized literal


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Member:
    """``expr.name`` — header field access, ``.hit``, ``.isValid()``-target."""

    expr: "Expr"
    name: str


@dataclass(frozen=True)
class Slice:
    """``expr[hi:lo]``."""

    expr: "Expr"
    hi: int
    lo: int


@dataclass(frozen=True)
class Cast:
    """``(bit<N>) expr``."""

    type: Type
    expr: "Expr"


@dataclass(frozen=True)
class Unary:
    op: str  # one of ~ - !
    expr: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * & | ^ << >> ++ == != < <= > >= && ||
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"


@dataclass(frozen=True)
class MethodCall:
    """``target.method(args)`` or a free function call (``target is None``)."""

    target: Optional["Expr"]
    method: str
    args: tuple


Expr = Union[IntLit, BoolLit, Ident, Member, Slice, Cast, Unary, Binary, Ternary, MethodCall]

# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    statements: tuple

    def __iter__(self):
        return iter(self.statements)

    def __len__(self):
        return len(self.statements)


@dataclass(frozen=True)
class AssignStmt:
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class IfStmt:
    cond: Expr
    then: Block
    orelse: Optional[Block]


@dataclass(frozen=True)
class MethodCallStmt:
    call: MethodCall


@dataclass(frozen=True)
class VarDeclStmt:
    name: str
    type: Type
    init: Optional[Expr]


@dataclass(frozen=True)
class ExitStmt:
    """``exit;``."""


@dataclass(frozen=True)
class ReturnStmt:
    """``return;``."""


@dataclass(frozen=True)
class SwitchCase:
    """One arm of ``switch (t.apply().action_run)``."""

    action: Optional[str]  # None = default arm
    body: Block


@dataclass(frozen=True)
class SwitchStmt:
    """``switch (table.apply().action_run) { action1: {...} ... }``."""

    table: str
    cases: tuple


Stmt = Union[
    AssignStmt, IfStmt, MethodCallStmt, VarDeclStmt, ExitStmt, ReturnStmt, SwitchStmt
]

# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructField:
    name: str
    type: Type


@dataclass(frozen=True)
class HeaderDecl:
    name: str
    fields: tuple  # of StructField


@dataclass(frozen=True)
class StructDecl:
    name: str
    fields: tuple  # of StructField


@dataclass(frozen=True)
class TypedefDecl:
    name: str
    type: Type


@dataclass(frozen=True)
class ConstDecl:
    name: str
    type: Type
    value: Expr


@dataclass(frozen=True)
class Param:
    direction: str  # "", "in", "out", "inout"
    type: Type
    name: str


@dataclass(frozen=True)
class ActionDecl:
    name: str
    params: tuple  # of Param
    body: Block


@dataclass(frozen=True)
class KeyElement:
    expr: Expr
    match_kind: str  # exact | ternary | lpm


@dataclass(frozen=True)
class ActionRef:
    name: str
    # Bound arguments for the default action, empty for table action lists.
    args: tuple = ()


@dataclass(frozen=True)
class TableDecl:
    name: str
    keys: tuple  # of KeyElement
    actions: tuple  # of ActionRef
    default_action: Optional[ActionRef]
    size: Optional[int] = None


@dataclass(frozen=True)
class InstantiationDecl:
    """``register<bit<32>>(1024) counts;`` and friends."""

    kind: str  # register | counter | meter | ...
    type_args: tuple  # of Type
    args: tuple  # of Expr
    name: str


@dataclass(frozen=True)
class ValueSetDecl:
    """``value_set<bit<16>>(4) pvs;`` — parser value set (PVS)."""

    name: str
    elem_type: Type
    size: int


@dataclass(frozen=True)
class ControlDecl:
    name: str
    params: tuple  # of Param
    locals: tuple  # of ActionDecl | TableDecl | InstantiationDecl | VarDeclStmt
    apply: Block

    def tables_by_name(self) -> dict[str, TableDecl]:
        """This control's tables by name; the first of a repeated name wins."""
        return self._locals_by_name[0]

    def actions_by_name(self) -> dict[str, ActionDecl]:
        """This control's actions by name; the first of a repeated name wins."""
        return self._locals_by_name[1]

    @cached_property
    def _locals_by_name(self) -> tuple:
        """Both maps, built once per control object; not to be mutated."""
        tables, actions = {}, {}
        for local in self.locals:
            if isinstance(local, TableDecl):
                tables.setdefault(local.name, local)
            elif isinstance(local, ActionDecl):
                actions.setdefault(local.name, local)
        return tables, actions


# -- parsers --------------------------------------------------------------


@dataclass(frozen=True)
class SelectCaseKey:
    """One keyset expression in a select case.

    ``value``/``mask`` of ``None`` with ``is_default`` set means the
    ``default`` keyset; a ``value_set_name`` refers to a PVS.
    """

    value: Optional[Expr] = None
    mask: Optional[Expr] = None
    is_default: bool = False
    value_set_name: Optional[str] = None


@dataclass(frozen=True)
class SelectCase:
    keys: tuple  # of SelectCaseKey, one per select expression
    state: str


@dataclass(frozen=True)
class TransitionSelect:
    exprs: tuple  # of Expr
    cases: tuple  # of SelectCase


@dataclass(frozen=True)
class TransitionDirect:
    state: str


Transition = Union[TransitionSelect, TransitionDirect]

#: The distinguished accept/reject parser states.
ACCEPT = "accept"
REJECT = "reject"


@dataclass(frozen=True)
class ParserState:
    name: str
    statements: tuple  # of Stmt (extract calls, assignments)
    transition: Transition


@dataclass(frozen=True)
class ParserDecl:
    name: str
    params: tuple  # of Param
    locals: tuple  # of ValueSetDecl | VarDeclStmt
    states: tuple  # of ParserState


@dataclass(frozen=True)
class PipelineDecl:
    """Simplified package instantiation: ``Pipeline(P(), Ig(), Eg()) main;``"""

    parser: str
    controls: tuple  # control names, in execution order


@dataclass(frozen=True)
class Program:
    declarations: tuple

    def find(self, name: str):
        """Look up a top-level declaration by name."""
        for decl in self.declarations:
            if getattr(decl, "name", None) == name:
                return decl
        raise KeyError(name)

    @cached_property
    def pipeline(self) -> PipelineDecl:
        for decl in self.declarations:
            if isinstance(decl, PipelineDecl):
                return decl
        raise KeyError("program has no pipeline instantiation")

    def headers(self) -> list[HeaderDecl]:
        return [d for d in self.declarations if isinstance(d, HeaderDecl)]

    def structs(self) -> list[StructDecl]:
        return [d for d in self.declarations if isinstance(d, StructDecl)]

    def controls(self) -> list[ControlDecl]:
        return [d for d in self.declarations if isinstance(d, ControlDecl)]

    def parsers(self) -> list[ParserDecl]:
        return [d for d in self.declarations if isinstance(d, ParserDecl)]
