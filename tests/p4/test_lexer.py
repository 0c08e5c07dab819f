"""Tests for the P4 tokenizer."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.p4.errors import LexError
from repro.p4.lexer import EOF, IDENT, INT, KEYWORDS, PUNCT, tokenize
from repro.programs import registry
from tests.p4.reference_lexer import PUNCTUATION, reference_tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source) if t.kind != EOF]


class TestTokens:
    def test_identifiers_and_keywords_share_kind(self):
        tokens = kinds("table foo_bar2")
        assert tokens == [(IDENT, "table"), (IDENT, "foo_bar2")]

    def test_punctuation_maximal_munch(self):
        tokens = [t.text for t in tokenize("a<<b >= c != d &&& e && f ++ g") if t.kind == PUNCT]
        assert tokens == ["<<", ">=", "!=", "&&&", "&&", "++"]

    def test_decimal_literal(self):
        token = tokenize("1234")[0]
        assert token.kind == INT and token.value == 1234 and token.width is None

    def test_hex_literal(self):
        token = tokenize("0xDEAD")[0]
        assert token.value == 0xDEAD

    def test_binary_literal(self):
        token = tokenize("0b1010")[0]
        assert token.value == 10

    def test_width_prefixed_literal(self):
        token = tokenize("8w0xFF")[0]
        assert token.value == 255 and token.width == 8

    def test_width_prefixed_decimal(self):
        token = tokenize("9w256")[0]
        assert token.value == 256 and token.width == 9

    def test_underscored_literal(self):
        token = tokenize("1_000")[0]
        assert token.value == 1000

    def test_malformed_width_literal(self):
        with pytest.raises(LexError):
            tokenize("8wxyz")

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestTrivia:
    def test_line_comment(self):
        assert kinds("a // comment here\nb") == [(IDENT, "a"), (IDENT, "b")]

    def test_block_comment(self):
        assert kinds("a /* multi\nline */ b") == [(IDENT, "a"), (IDENT, "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_preprocessor_lines_skipped(self):
        assert kinds("#include <core.p4>\nheader") == [(IDENT, "header")]

    def test_positions_track_lines(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].pos.line == 1 and tokens[0].pos.column == 1
        assert tokens[1].pos.line == 2 and tokens[1].pos.column == 3

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind == EOF


# -- the character-at-a-time scanner is the specification -------------------


def _stream(lex, source):
    """Every token field, or the error's message and position."""
    try:
        return [
            (t.kind, t.text, t.pos.line, t.pos.column, t.value, t.width)
            for t in lex(source)
        ]
    except LexError as exc:
        return ("error", exc.message, exc.pos)


_IDENTIFIERS = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
)
_INTEGERS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(0, 2**32).map(lambda v: f"0x{v:X}"),
    st.integers(0, 255).map(lambda v: f"0b{v:b}"),
    st.sampled_from(["1_000", "0xFF_FF", "0b1010_0101", "1__2"]),
    st.tuples(st.integers(1, 64), st.integers(0, 2**16)).map(
        lambda wv: f"{wv[0]}w{wv[1]}"
    ),
    st.sampled_from(["8w0xFF", "9w256", "16w0b101", "4w1_0"]),
)
_STRINGS = st.sampled_from(['"name"', '""', '"two\nlines"', '"a b\tc"'])
_COMMENTS = st.sampled_from(
    ["// note", "// x\n", "/* one */", "/* multi\nline */", "/**/",
     "/* a * / b */", "#include <core.p4>", "#define X 1\n"]
)
_TRIVIA = st.sampled_from([" ", "\t", "\r", "\n", "\r\n", "  \n\t"])
# Malformed input: characters no token starts with (ASCII and Unicode,
# including a superscript digit, a vulgar fraction and an Arabic-Indic
# digit, which the ``str`` predicates classify differently), bad
# literals, and an unterminated comment or string.
_BAD = st.sampled_from(
    ["$", "`", "\\", "'", "\x0b", "\xa0", "é", "²", "½", "٣", "8wxyz",
     "0x", "0b2", "12ab", "3w", "/* never closed", '"never closed']
)
_GOOD = st.one_of(
    _IDENTIFIERS, _INTEGERS, st.sampled_from(PUNCTUATION), _STRINGS,
    _COMMENTS, _TRIVIA,
)


def _sources(fragment):
    # Joined with and without separators, so neighbours also fuse
    # (``<`` ``<`` is ``<<``, ``/`` ``/`` starts a comment, ``a`` ``1`` is
    # one word).
    return st.lists(
        st.tuples(fragment, st.sampled_from(["", " ", "\n"])), max_size=30
    ).map(lambda parts: "".join(text + sep for text, sep in parts))


class TestMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(_sources(_GOOD))
    def test_well_formed_sources(self, source):
        assert _stream(tokenize, source) == _stream(reference_tokenize, source)

    @settings(max_examples=400, deadline=None)
    @given(_sources(st.one_of(_GOOD, _BAD)))
    def test_sources_with_errors(self, source):
        assert _stream(tokenize, source) == _stream(reference_tokenize, source)

    @pytest.mark.parametrize(
        "source",
        ["a /* never", 'x = "open', "a\n\t$", "  8wxyz", "x\r\n/**/ ½",
         "٣w٣ ²", "/*/ */ a", "//*\nb", "a // end"],
    )
    def test_edge_cases(self, source):
        assert _stream(tokenize, source) == _stream(reference_tokenize, source)


def _corpus_sources():
    sources = [(name, entry.source()) for name, entry in registry.CORPUS.items()]
    root = Path(__file__).resolve().parents[2]
    sources += [
        (str(path.relative_to(root)), path.read_text())
        for path in sorted(root.rglob("*.p4"))
    ]
    return sources


@pytest.mark.parametrize("name, source", _corpus_sources())
def test_corpus_tokens_match_reference(name, source):
    assert tokenize(source) == reference_tokenize(source)
