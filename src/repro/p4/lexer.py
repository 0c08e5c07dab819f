"""Tokenizer for the P4-16 subset.

Handles the lexical features our corpus programs use: identifiers, keywords,
decimal/hex/binary integer literals with optional width prefixes
(``8w0xFF``) and ``_`` separators, strings (annotation arguments, returned
as identifiers), and both comment styles plus ``#`` lines, which are
skipped.

:func:`tokenize` is one compiled alternation matched at an index with
``Pattern.match``: trivia, a word, a string, then the punctuation list
longest first (Python tries alternatives in order, so that is maximal
munch).  Line and column come from counting the newlines in each match.
A word is ``\\w+``, which is exactly a run of ``isalnum()`` or ``_``
characters, and its first character decides identifier, number or error.
``tests/p4/reference_lexer.py`` keeps the character-at-a-time scanner this
replaced as the specification: the same tokens and positions, and the same
``LexError`` message at the same position, on every input.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from repro.p4.errors import LexError, SourcePos

# Token kinds.
IDENT = "ident"
INT = "int"
PUNCT = "punct"
EOF = "eof"

KEYWORDS = frozenset(
    {
        "action", "actions", "apply", "bit", "bool", "const", "control",
        "default", "default_action", "else", "entries", "enum", "exit",
        "false", "header", "if", "in", "inout", "key", "out", "package",
        "parser", "return", "select", "size", "state", "struct", "switch",
        "table", "transition", "true", "typedef", "value_set",
    }
)

# Multi-character punctuation, longest first so maximal munch works.
_PUNCTUATION = [
    "&&&",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++",
    "(", ")", "{", "}", "[", "]", "<", ">", ";", ":", ",", ".",
    "=", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "?", "@",
]

_TOKEN = re.compile(
    r"(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|\#[^\n]*|/\*.*?\*/)+)"
    r"|(?P<word>\w+)"
    r'|"(?P<string>[^"]*)"'
    r"|(?P<open_comment>/\*)"
    r'|(?P<open_string>")'
    r"|(?P<punct>" + "|".join(re.escape(p) for p in _PUNCTUATION) + ")",
    re.DOTALL,
)


class Token(NamedTuple):
    """One token; a named tuple because the lexer builds one per token and
    a tuple is the cheapest immutable record to construct."""

    kind: str
    text: str
    pos: SourcePos
    # For INT tokens: the numeric value and the explicit width (or None).
    value: Optional[int] = None
    width: Optional[int] = None

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r} @ {self.pos})"


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source``; raises :class:`LexError` on malformed input."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    end = len(source)
    index = 0
    line = 1
    line_start = 0  # index of the first character of the current line
    while index < end:
        found = match(source, index)
        pos = SourcePos(line, index - line_start + 1)
        if found is None:
            raise LexError(f"unexpected character {source[index]!r}", pos)
        group = found.lastgroup
        text = found.group(group)
        if group == "word":
            first = text[0]
            if first.isalpha() or first == "_":
                append(Token(IDENT, text, pos))
            elif first.isdigit():
                append(_number(text, pos))
            else:
                raise LexError(f"unexpected character {first!r}", pos)
        elif group == "punct":
            append(Token(PUNCT, text, pos))
        elif group == "open_comment":
            raise LexError("unterminated block comment", pos)
        elif group == "open_string":
            raise LexError("unterminated string", pos)
        else:  # trivia or a string, the two that may span lines
            if group == "string":
                append(Token(IDENT, text, pos))
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = source.rindex("\n", index, found.end()) + 1
        index = found.end()
    append(Token(EOF, "", SourcePos(line, index - line_start + 1)))
    return tokens


def _number(text: str, pos: SourcePos) -> Token:
    # Width-prefixed literal: <width>w<value>, e.g. 8w0xFF or 9w1.
    try:
        if "w" in text:
            width_text, _, value_text = text.partition("w")
            width = int(width_text)
            return Token(INT, text, pos, value=_parse_int(value_text), width=width)
        return Token(INT, text, pos, value=_parse_int(text), width=None)
    except ValueError as exc:
        raise LexError(f"malformed literal {text!r}", pos) from exc


def _parse_int(text: str) -> int:
    text = text.replace("_", "")
    if text.lower().startswith("0x"):
        return int(text, 16)
    if text.lower().startswith("0b"):
        return int(text, 2)
    return int(text, 10)
