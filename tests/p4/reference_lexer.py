"""A character-at-a-time P4 tokenizer: the specification for ``tokenize``.

This is the scanner :mod:`repro.p4.lexer` used before it became one
compiled regular expression.  It reads one character, decides what can
start there, and consumes the token with ``str`` predicates
(``isalpha``/``isdigit``/``isalnum``), tracking line and column as it
advances.  ``tests/p4/test_lexer.py`` holds the production lexer to it:
the same tokens (kind, text, position, value, width) and the same
``LexError`` message and position on every input.
"""

from __future__ import annotations

from typing import Iterator

from repro.p4.errors import LexError, SourcePos
from repro.p4.lexer import EOF, IDENT, INT, PUNCT, Token

# Multi-character punctuation, longest first so maximal munch works.
PUNCTUATION = [
    "&&&",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++",
    "(", ")", "{", "}", "[", "]", "<", ">", ";", ":", ",", ".",
    "=", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "?", "@",
]


def reference_tokenize(source: str) -> list[Token]:
    return list(_Lexer(source))


class _Lexer:
    def __init__(self, source: str) -> None:
        self.source = source
        self.index = 0
        self.line = 1
        self.column = 1

    def __iter__(self) -> Iterator[Token]:
        while True:
            token = self._next_token()
            yield token
            if token.kind == EOF:
                return

    def _pos(self) -> SourcePos:
        return SourcePos(self.line, self.column)

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.index < len(self.source) and self.source[self.index] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.index += 1

    def _peek(self, offset: int = 0) -> str:
        i = self.index + offset
        return self.source[i] if i < len(self.source) else ""

    def _skip_trivia(self) -> None:
        while self.index < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.index < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._pos()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self.index >= len(self.source):
                        raise LexError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
            elif ch == "#":
                # Preprocessor-style lines (e.g. #include) are ignored.
                while self.index < len(self.source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        pos = self._pos()
        if self.index >= len(self.source):
            return Token(EOF, "", pos)
        ch = self._peek()
        if ch.isalpha() or ch == "_":
            return self._lex_word(pos)
        if ch.isdigit():
            return self._lex_number(pos)
        if ch == '"':
            return self._lex_string(pos)
        for punct in PUNCTUATION:
            if self.source.startswith(punct, self.index):
                self._advance(len(punct))
                return Token(PUNCT, punct, pos)
        raise LexError(f"unexpected character {ch!r}", pos)

    def _lex_word(self, pos: SourcePos) -> Token:
        start = self.index
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.index]
        return Token(IDENT, text, pos)

    def _lex_string(self, pos: SourcePos) -> Token:
        # Strings only appear inside annotations; return them as idents.
        self._advance()
        start = self.index
        while self._peek() != '"':
            if self.index >= len(self.source):
                raise LexError("unterminated string", pos)
            self._advance()
        text = self.source[start : self.index]
        self._advance()
        return Token(IDENT, text, pos)

    def _lex_number(self, pos: SourcePos) -> Token:
        start = self.index
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.index]
        # Width-prefixed literal: <width>w<value>, e.g. 8w0xFF or 9w1.
        if "w" in text:
            width_text, _, value_text = text.partition("w")
            try:
                width = int(width_text)
                value = _parse_int(value_text)
            except ValueError as exc:
                raise LexError(f"malformed literal {text!r}", pos) from exc
            return Token(INT, text, pos, value=value, width=width)
        try:
            value = _parse_int(text)
        except ValueError as exc:
            raise LexError(f"malformed literal {text!r}", pos) from exc
        return Token(INT, text, pos, value=value, width=None)


def _parse_int(text: str) -> int:
    text = text.replace("_", "")
    if text.lower().startswith("0x"):
        return int(text, 16)
    if text.lower().startswith("0b"):
        return int(text, 2)
    return int(text, 10)
