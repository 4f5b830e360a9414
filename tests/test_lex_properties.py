"""Properties of token positions: every token is found in the source where
its line and column say, every literal token prints as its text, and every
lexical error names a position inside the source."""

from hypothesis import given, settings, strategies as st

from yulkit.ast import to_source
from yulkit.syntax import ParseError, lex

# Token pieces, trivia and error triggers; joined at random they give texts
# that often lex in full and often fail in each of the lexer's error paths.
FRAGMENTS = (
    "x", "Z_$", "hex", "let", "true", "0", "7", "0x", "0xA1", "00", "12",
    '"', '"a"', '"\\x4f"', "\\", "\\n", "\\u", "\\q", 'hex"', 'hex"0a"', 'hex"abc"',
    "//", "/*", "*/", "-", "->", ":", ":=", "{", "}", "(", ")", ",", ".",
    " ", "\t", "\n", "\r", "\r\n", "\x01", "#", "é",
)
TEXTS = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=20).map("".join),
    st.text(max_size=30),
)


def _offset(source: str, line: int, column: int) -> int:
    """The offset of a 1-based (line, column) in the source."""
    line_start = 0
    for _ in range(line - 1):
        line_start = source.index("\n", line_start) + 1
    return line_start + column - 1


@settings(max_examples=600, deadline=None, derandomize=True)
@given(TEXTS)
def test_tokens_are_where_their_positions_say(source):
    try:
        tokens = lex(source)
    except ParseError as exc:
        offset = _offset(source, exc.line, exc.column)
        assert 0 <= offset < len(source)
        assert "\n" not in source[offset - exc.column + 1 : offset]
        return
    for tok in tokens:
        offset = _offset(source, tok.line, tok.column)
        assert "\n" not in source[offset - tok.column + 1 : offset]
        assert source.startswith(tok.text, offset)
        if tok.literal is not None:
            assert to_source(tok.literal) == tok.text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TEXTS, st.data())
def test_positions_made_on_demand_agree_with_offsets(source, data):
    try:
        tokens = lex(source)
    except ParseError:
        return
    for i, tok in enumerate(tokens):
        assert _offset(source, tok.line, tok.column) == tokens.offsets[i]
    if tokens:
        i = data.draw(st.integers(-len(tokens), len(tokens) - 1))
        assert tokens[i] == list(tokens)[i]
