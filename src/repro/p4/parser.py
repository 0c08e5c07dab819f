"""Recursive-descent parser for the P4-16 subset.

Entry point: :func:`parse_program`.  The grammar is the standard P4-16
grammar restricted to the constructs in :mod:`repro.p4.ast_nodes`; see that
module for the shape of the tree.
"""

from __future__ import annotations

from typing import Optional

from repro.p4 import ast_nodes as ast
from repro.p4.errors import ParseError
from repro.p4.lexer import EOF, IDENT, INT, PUNCT, Token, tokenize

#: Extern-like instantiations we recognize at control/parser scope.
INSTANTIATION_KINDS = frozenset(
    {"register", "counter", "direct_counter", "meter", "direct_meter", "action_profile"}
)


def parse_program(source: str) -> ast.Program:
    """Parse a full program (declaration sequence + pipeline instantiation)."""
    return _Parser(tokenize(source)).parse_program()


def parse_expr(source: str) -> ast.Expr:
    """Parse a standalone expression — handy in tests."""
    parser = _Parser(tokenize(source))
    expr = parser._expression()
    parser._expect_eof()
    return expr


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0

    # -- token plumbing --------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        i = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != EOF:
            self.index += 1
        return token

    def _check(self, text: str) -> bool:
        return self._peek().text == text and self._peek().kind in (PUNCT, IDENT)

    def _accept(self, text: str) -> bool:
        if self._check(text):
            self._advance()
            return True
        return False

    def _expect(self, text: str) -> Token:
        token = self._peek()
        if token.text != text:
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.pos)
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind != IDENT:
            raise ParseError(f"expected identifier, found {token.text!r}", token.pos)
        return self._advance()

    def _expect_int(self) -> Token:
        token = self._peek()
        if token.kind != INT:
            raise ParseError(f"expected integer, found {token.text!r}", token.pos)
        return self._advance()

    def _expect_close_angle(self) -> None:
        """Consume one ``>``, splitting a ``>>`` token if necessary.

        Nested type arguments like ``register<bit<32>>`` lex their closing
        brackets as a single shift token; the grammar needs them one at a
        time (the same wrinkle C++ templates have).
        """
        token = self._peek()
        if token.text == ">>":
            self.tokens[self.index] = Token(PUNCT, ">", token.pos)
            return
        self._expect(">")

    def _expect_eof(self) -> None:
        token = self._peek()
        if token.kind != EOF:
            raise ParseError(f"trailing input starting at {token.text!r}", token.pos)

    def _skip_annotation(self) -> None:
        """Skip ``@name(...)`` style annotations."""
        while self._accept("@"):
            self._expect_ident()
            if self._accept("("):
                depth = 1
                while depth:
                    token = self._advance()
                    if token.kind == EOF:
                        raise ParseError("unterminated annotation", token.pos)
                    if token.text == "(":
                        depth += 1
                    elif token.text == ")":
                        depth -= 1

    # -- program ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        decls: list = []
        while self._peek().kind != EOF:
            decls.append(self._declaration())
        return ast.Program(tuple(decls))

    def _declaration(self):
        self._skip_annotation()
        token = self._peek()
        if token.text == "header":
            return self._header_decl()
        if token.text == "struct":
            return self._struct_decl()
        if token.text == "typedef":
            return self._typedef_decl()
        if token.text == "const":
            return self._const_decl()
        if token.text == "parser":
            return self._parser_decl()
        if token.text == "control":
            return self._control_decl()
        if token.kind == IDENT:
            return self._pipeline_decl()
        raise ParseError(f"unexpected token {token.text!r} at top level", token.pos)

    # -- types ------------------------------------------------------------------------

    def _type(self) -> ast.Type:
        token = self._peek()
        if token.text == "bit":
            self._advance()
            self._expect("<")
            width = self._expect_int().value
            self._expect_close_angle()
            return ast.BitType(width)
        if token.text == "bool":
            self._advance()
            return ast.BoolType()
        name = self._expect_ident()
        return ast.NamedType(name.text)

    # -- simple declarations ------------------------------------------------------------

    def _field_list(self) -> tuple:
        fields: list[ast.StructField] = []
        self._expect("{")
        while not self._accept("}"):
            self._skip_annotation()
            field_type = self._type()
            name = self._expect_ident()
            self._expect(";")
            fields.append(ast.StructField(name.text, field_type))
        return tuple(fields)

    def _header_decl(self) -> ast.HeaderDecl:
        self._expect("header")
        name = self._expect_ident()
        return ast.HeaderDecl(name.text, self._field_list())

    def _struct_decl(self) -> ast.StructDecl:
        self._expect("struct")
        name = self._expect_ident()
        return ast.StructDecl(name.text, self._field_list())

    def _typedef_decl(self) -> ast.TypedefDecl:
        self._expect("typedef")
        target = self._type()
        name = self._expect_ident()
        self._expect(";")
        return ast.TypedefDecl(name.text, target)

    def _const_decl(self) -> ast.ConstDecl:
        self._expect("const")
        const_type = self._type()
        name = self._expect_ident()
        self._expect("=")
        value = self._expression()
        self._expect(";")
        return ast.ConstDecl(name.text, const_type, value)

    def _pipeline_decl(self) -> ast.PipelineDecl:
        # <PackageName> ( <Name>(), <Name>(), ... ) main ;
        self._expect_ident()  # package name, e.g. V1Switch / Pipeline
        self._expect("(")
        stages: list[str] = []
        while not self._check(")"):
            stage = self._expect_ident()
            self._expect("(")
            self._expect(")")
            stages.append(stage.text)
            if not self._accept(","):
                break
        self._expect(")")
        self._expect_ident()  # instance name, conventionally `main`
        self._expect(";")
        if not stages:
            raise ParseError("pipeline instantiation needs at least a parser")
        return ast.PipelineDecl(parser=stages[0], controls=tuple(stages[1:]))

    # -- parameters ------------------------------------------------------------------------

    def _params(self) -> tuple:
        self._expect("(")
        params: list[ast.Param] = []
        while not self._check(")"):
            direction = ""
            if self._peek().text in ("in", "out", "inout"):
                direction = self._advance().text
            param_type = self._type()
            name = self._expect_ident()
            params.append(ast.Param(direction, param_type, name.text))
            if not self._accept(","):
                break
        self._expect(")")
        return tuple(params)

    # -- parser declarations ---------------------------------------------------------------

    def _parser_decl(self) -> ast.ParserDecl:
        self._expect("parser")
        name = self._expect_ident()
        params = self._params()
        self._expect("{")
        locals_: list = []
        states: list[ast.ParserState] = []
        while not self._accept("}"):
            self._skip_annotation()
            if self._check("value_set"):
                locals_.append(self._value_set_decl())
            elif self._check("state"):
                states.append(self._parser_state())
            else:
                token = self._peek()
                raise ParseError(
                    f"unexpected {token.text!r} in parser body", token.pos
                )
        return ast.ParserDecl(name.text, params, tuple(locals_), tuple(states))

    def _value_set_decl(self) -> ast.ValueSetDecl:
        self._expect("value_set")
        self._expect("<")
        elem_type = self._type()
        self._expect_close_angle()
        self._expect("(")
        size = self._expect_int().value
        self._expect(")")
        name = self._expect_ident()
        self._expect(";")
        return ast.ValueSetDecl(name.text, elem_type, size)

    def _parser_state(self) -> ast.ParserState:
        self._expect("state")
        name = self._expect_ident()
        self._expect("{")
        statements: list = []
        transition: ast.Transition = ast.TransitionDirect(ast.REJECT)
        while not self._accept("}"):
            if self._check("transition"):
                transition = self._transition()
            else:
                statements.append(self._statement())
        return ast.ParserState(name.text, tuple(statements), transition)

    def _transition(self) -> ast.Transition:
        self._expect("transition")
        if self._accept("select"):
            self._expect("(")
            exprs: list[ast.Expr] = [self._expression()]
            while self._accept(","):
                exprs.append(self._expression())
            self._expect(")")
            self._expect("{")
            cases: list[ast.SelectCase] = []
            while not self._accept("}"):
                cases.append(self._select_case(len(exprs)))
            return ast.TransitionSelect(tuple(exprs), tuple(cases))
        state = self._expect_ident()
        self._expect(";")
        return ast.TransitionDirect(state.text)

    def _select_case(self, arity: int) -> ast.SelectCase:
        keys: list[ast.SelectCaseKey]
        if self._accept("("):
            keys = [self._select_keyset()]
            while self._accept(","):
                keys.append(self._select_keyset())
            self._expect(")")
        else:
            keys = [self._select_keyset()]
        if len(keys) == 1 and keys[0].is_default and arity > 1:
            # A bare `default` covers the whole tuple.
            keys = [ast.SelectCaseKey(is_default=True) for _ in range(arity)]
        if len(keys) != arity:
            token = self._peek()
            raise ParseError(
                f"select case has {len(keys)} keysets, expected {arity}", token.pos
            )
        self._expect(":")
        state = self._expect_ident()
        self._expect(";")
        return ast.SelectCase(tuple(keys), state.text)

    def _select_keyset(self) -> ast.SelectCaseKey:
        token = self._peek()
        if token.text in ("default", "_"):
            self._advance()
            return ast.SelectCaseKey(is_default=True)
        if token.kind == IDENT:
            # A bare identifier keyset refers to a value set (PVS) unless it
            # is a named constant — the type checker resolves which.
            name = self._advance()
            return ast.SelectCaseKey(value_set_name=name.text)
        value = self._expression()
        mask: Optional[ast.Expr] = None
        if self._accept("&&&"):
            mask = self._expression()
        return ast.SelectCaseKey(value=value, mask=mask)

    # -- control declarations -------------------------------------------------------------------

    def _control_decl(self) -> ast.ControlDecl:
        self._expect("control")
        name = self._expect_ident()
        params = self._params()
        self._expect("{")
        locals_: list = []
        apply_block: Optional[ast.Block] = None
        while not self._accept("}"):
            self._skip_annotation()
            token = self._peek()
            if token.text == "action":
                locals_.append(self._action_decl())
            elif token.text == "table":
                locals_.append(self._table_decl())
            elif token.text == "apply":
                self._advance()
                apply_block = self._block()
            elif token.text in INSTANTIATION_KINDS:
                locals_.append(self._instantiation())
            elif token.text in ("bit", "bool") or (
                token.kind == IDENT and self._peek(1).kind == IDENT
            ):
                locals_.append(self._var_decl())
            else:
                raise ParseError(
                    f"unexpected {token.text!r} in control body", token.pos
                )
        if apply_block is None:
            raise ParseError(f"control {name.text!r} has no apply block", name.pos)
        return ast.ControlDecl(name.text, params, tuple(locals_), apply_block)

    def _action_decl(self) -> ast.ActionDecl:
        self._expect("action")
        name = self._expect_ident()
        params = self._params()
        body = self._block()
        return ast.ActionDecl(name.text, params, body)

    def _table_decl(self) -> ast.TableDecl:
        self._expect("table")
        name = self._expect_ident()
        self._expect("{")
        keys: tuple = ()
        actions: tuple = ()
        default_action: Optional[ast.ActionRef] = None
        size: Optional[int] = None
        while not self._accept("}"):
            prop = self._peek()
            if prop.text == "key":
                self._advance()
                self._expect("=")
                keys = self._table_keys()
            elif prop.text == "actions":
                self._advance()
                self._expect("=")
                actions = self._table_actions()
            elif prop.text in ("default_action", "default"):
                self._advance()
                self._expect("=")
                default_action = self._action_ref()
                self._expect(";")
            elif prop.text == "size":
                self._advance()
                self._expect("=")
                size = self._expect_int().value
                self._expect(";")
            else:
                raise ParseError(
                    f"unknown table property {prop.text!r}", prop.pos
                )
        return ast.TableDecl(name.text, keys, actions, default_action, size)

    def _table_keys(self) -> tuple:
        self._expect("{")
        keys: list[ast.KeyElement] = []
        while not self._accept("}"):
            expr = self._expression()
            self._expect(":")
            kind = self._expect_ident().text
            if kind not in ("exact", "ternary", "lpm"):
                raise ParseError(f"unknown match kind {kind!r}")
            self._expect(";")
            keys.append(ast.KeyElement(expr, kind))
        return tuple(keys)

    def _table_actions(self) -> tuple:
        self._expect("{")
        actions: list[ast.ActionRef] = []
        while not self._accept("}"):
            self._skip_annotation()
            name = self._expect_ident()
            self._expect(";")
            actions.append(ast.ActionRef(name.text))
        return tuple(actions)

    def _action_ref(self) -> ast.ActionRef:
        name = self._expect_ident()
        args: list[ast.Expr] = []
        if self._accept("("):
            while not self._check(")"):
                args.append(self._expression())
                if not self._accept(","):
                    break
            self._expect(")")
        return ast.ActionRef(name.text, tuple(args))

    def _instantiation(self) -> ast.InstantiationDecl:
        kind = self._expect_ident().text
        type_args: list[ast.Type] = []
        if self._accept("<"):
            type_args.append(self._type())
            while self._accept(","):
                type_args.append(self._type())
            self._expect_close_angle()
        self._expect("(")
        args: list[ast.Expr] = []
        while not self._check(")"):
            args.append(self._expression())
            if not self._accept(","):
                break
        self._expect(")")
        name = self._expect_ident()
        self._expect(";")
        return ast.InstantiationDecl(kind, tuple(type_args), tuple(args), name.text)

    def _var_decl(self) -> ast.VarDeclStmt:
        var_type = self._type()
        name = self._expect_ident()
        init: Optional[ast.Expr] = None
        if self._accept("="):
            init = self._expression()
        self._expect(";")
        return ast.VarDeclStmt(name.text, var_type, init)

    # -- statements -----------------------------------------------------------------------------

    def _block(self) -> ast.Block:
        self._expect("{")
        statements: list = []
        while not self._accept("}"):
            statements.append(self._statement())
        return ast.Block(tuple(statements))

    def _statement(self):
        token = self._peek()
        if token.text == "if":
            return self._if_statement()
        if token.text == "switch":
            return self._switch_statement()
        if token.text == "exit":
            self._advance()
            self._expect(";")
            return ast.ExitStmt()
        if token.text == "return":
            self._advance()
            self._expect(";")
            return ast.ReturnStmt()
        if token.text in ("bit", "bool"):
            return self._var_decl()
        if token.kind == IDENT and self._peek(1).kind == IDENT:
            return self._var_decl()
        # Assignment or method-call statement.
        expr = self._postfix_expression()
        if self._accept("="):
            rhs = self._expression()
            self._expect(";")
            return ast.AssignStmt(expr, rhs)
        if self._check("["):
            # Slice assignment: x[hi:lo] = rhs
            self._advance()
            hi = self._expect_int().value
            self._expect(":")
            lo = self._expect_int().value
            self._expect("]")
            self._expect("=")
            rhs = self._expression()
            self._expect(";")
            return ast.AssignStmt(ast.Slice(expr, hi, lo), rhs)
        self._expect(";")
        if not isinstance(expr, ast.MethodCall):
            raise ParseError("expression statement must be a call", token.pos)
        return ast.MethodCallStmt(expr)

    def _if_statement(self) -> ast.IfStmt:
        self._expect("if")
        self._expect("(")
        cond = self._expression()
        self._expect(")")
        then = self._block_or_single()
        orelse: Optional[ast.Block] = None
        if self._accept("else"):
            if self._check("if"):
                orelse = ast.Block((self._if_statement(),))
            else:
                orelse = self._block_or_single()
        return ast.IfStmt(cond, then, orelse)

    def _block_or_single(self) -> ast.Block:
        if self._check("{"):
            return self._block()
        return ast.Block((self._statement(),))

    def _switch_statement(self) -> ast.SwitchStmt:
        self._expect("switch")
        self._expect("(")
        table = self._expect_ident().text
        self._expect(".")
        self._expect("apply")
        self._expect("(")
        self._expect(")")
        self._expect(".")
        run = self._expect_ident()
        if run.text != "action_run":
            raise ParseError("switch scrutinee must be table.apply().action_run", run.pos)
        self._expect(")")
        self._expect("{")
        cases: list[ast.SwitchCase] = []
        while not self._accept("}"):
            if self._accept("default"):
                label: Optional[str] = None
            else:
                label = self._expect_ident().text
            self._expect(":")
            body = self._block()
            cases.append(ast.SwitchCase(label, body))
        return ast.SwitchStmt(table, tuple(cases))

    # -- expressions --------------------------------------------------------------------------------

    # Precedence levels, loosest to tightest.
    _BINARY_LEVELS = [
        ["||"],
        ["&&"],
        ["==", "!="],
        ["<", "<=", ">", ">="],
        ["|"],
        ["^"],
        ["&"],
        ["<<", ">>"],
        ["++"],
        ["+", "-"],
        ["*"],
    ]

    def _expression(self) -> ast.Expr:
        return self._ternary()

    def _ternary(self) -> ast.Expr:
        cond = self._binary(0)
        if self._accept("?"):
            then = self._expression()
            self._expect(":")
            orelse = self._expression()
            return ast.Ternary(cond, then, orelse)
        return cond

    def _binary(self, level: int) -> ast.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._unary()
        ops = self._BINARY_LEVELS[level]
        left = self._binary(level + 1)
        while True:
            token = self._peek()
            if token.kind == PUNCT and token.text in ops:
                # `>` closes type argument lists; inside expressions it is
                # always comparison in our subset, so no special case needed.
                self._advance()
                right = self._binary(level + 1)
                left = ast.Binary(token.text, left, right)
            else:
                return left

    def _unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == PUNCT and token.text in ("~", "-", "!"):
            self._advance()
            return ast.Unary(token.text, self._unary())
        if token.text == "(" and self._peek(1).text in ("bit", "bool"):
            self._advance()
            cast_type = self._type()
            self._expect(")")
            return ast.Cast(cast_type, self._unary())
        return self._postfix_expression()

    def _postfix_expression(self) -> ast.Expr:
        expr = self._primary()
        while True:
            token = self._peek()
            if token.text == ".":
                self._advance()
                name = self._expect_ident()
                if self._check("("):
                    args = self._call_args()
                    expr = ast.MethodCall(expr, name.text, args)
                else:
                    expr = ast.Member(expr, name.text)
            elif token.text == "[" and self._peek(1).kind == INT:
                self._advance()
                hi = self._expect_int().value
                self._expect(":")
                lo = self._expect_int().value
                self._expect("]")
                expr = ast.Slice(expr, hi, lo)
            else:
                return expr

    def _call_args(self) -> tuple:
        self._expect("(")
        args: list[ast.Expr] = []
        while not self._check(")"):
            args.append(self._expression())
            if not self._accept(","):
                break
        self._expect(")")
        return tuple(args)

    def _primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == INT:
            self._advance()
            return ast.IntLit(token.value, token.width)
        if token.text == "true":
            self._advance()
            return ast.BoolLit(True)
        if token.text == "false":
            self._advance()
            return ast.BoolLit(False)
        if token.text == "(":
            self._advance()
            expr = self._expression()
            self._expect(")")
            return expr
        if token.kind == IDENT:
            self._advance()
            if self._check("(") :
                args = self._call_args()
                return ast.MethodCall(None, token.text, args)
            return ast.Ident(token.text)
        raise ParseError(f"unexpected token {token.text!r} in expression", token.pos)
