"""Lexer and parser behavior, frozen error positions, and print round-trips."""

import dataclasses
import pathlib
import re
import time

import pytest

from yulkit.ast import (
    KEYWORDS,
    Block,
    DecNumber,
    Expression,
    For,
    FunCall,
    FunCallExpr,
    FunDefStmt,
    HexEscape,
    HexNumber,
    HexString,
    Identifier,
    Leave,
    Literal,
    Path,
    PathExpr,
    PlainString,
    RawChar,
    SimpleEscape,
    Statement,
    VariableSingle,
    to_source,
    walk_statements,
)
from yulkit.dynamics import EVM_PURE
from yulkit.generate import GenConfig, gen_program
from yulkit.statics import Judgments, check_safe_top
from yulkit.syntax import MAX_NESTING, ParseError, lex, parse_program

from conftest import SCOPING_SRC


# --- lexing ---


def test_lex_single_identifier():
    toks = lex("xy")
    assert len(toks) == 1 and toks[0].kind == "ident" and toks[0].text == "xy"


def test_lex_declaration_with_hex_literal():
    toks = lex("let x := 0xff0012")
    assert [t.kind for t in toks] == ["keyword", "ident", "symbol", "literal"]
    assert toks[3].literal == HexNumber("ff0012")


def test_lex_empty():
    assert lex("") == []


def test_lex_comments_dropped():
    toks = lex("let // to end of line\n/* and\nblocks */ x")
    assert [t.text for t in toks] == ["let", "x"]


def test_lex_positions_are_one_based():
    toks = lex("{\n  let x\n}")
    let_tok = toks[1]
    assert (let_tok.line, let_tok.column) == (2, 3)


def test_lex_leading_zero_rejected():
    with pytest.raises(ParseError, match="leading zeros"):
        lex("007")


def test_lex_bare_0x_rejected():
    with pytest.raises(ParseError, match="hex digit"):
        lex("0x")


def test_lex_unterminated_string():
    with pytest.raises(ParseError, match="unterminated string"):
        lex('"abc')
    with pytest.raises(ParseError, match="unterminated string"):
        lex('"abc\ndef"')


def test_lex_unknown_escape():
    with pytest.raises(ParseError, match="unknown escape"):
        lex(r'"\q"')


def test_lex_unicode_escape_unsupported():
    src = '"' + chr(92) + 'u0041"'
    with pytest.raises(ParseError, match="not implemented"):
        lex(src)


def test_lex_hex_string():
    toks = lex('hex"90a4"')
    assert toks[0].literal == HexString("90a4")
    with pytest.raises(ParseError, match="odd number"):
        lex('hex"90a"')


def test_lex_unterminated_comment():
    with pytest.raises(ParseError, match="unterminated block comment"):
        lex("/* no end")


# Unclosed comments and strings, repeated: a scan that retried each of them
# would be quadratic in the input.
ADVERSARIAL = {
    "unclosed comments": (
        "{ " + "/* " * 20000,
        "line 1, column 3: unterminated block comment",
    ),
    "unclosed strings": (
        '"a\\' * 20000,
        "line 1, column 60000: unknown escape '\\'",
    ),
    "unclosed hex strings": (
        'hex"' * 15000,
        "line 1, column 5: bad hex string digit 'h'",
    ),
}


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_lex_is_linear_on_unclosed_pieces(name):
    source, error = ADVERSARIAL[name]
    for stage in (lex, parse_program):
        start = time.perf_counter()
        with pytest.raises(ParseError) as e:
            stage(source)
        assert time.perf_counter() - start < 0.5
        assert str(e.value) == error


def test_lex_tokens_are_a_read_only_sequence():
    toks = lex("{\n  let x := 0x1 // c\n}")
    assert toks.texts == ["{", "let", "x", ":=", "0x1", "}"]
    assert toks.offsets == [0, 4, 8, 10, 13, 22]
    assert toks[-1] == ("symbol", "}", 3, 1, None)
    assert toks[4].literal == HexNumber("1")
    assert [t.text for t in toks[1:3]] == ["let", "x"]
    assert list(toks) == [toks[i] for i in range(len(toks))]


# --- parsing ---


def test_parse_let_then_fundef():
    block = parse_program("{ let x function f () { } }")
    assert isinstance(block.statements[0], VariableSingle)
    assert block.statements[0] == VariableSingle(Identifier("x"), None)
    fd = block.statements[1]
    assert isinstance(fd, FunDefStmt)
    assert fd.fundef.name == Identifier("f")
    assert fd.fundef.inputs == () and fd.fundef.outputs == ()
    assert fd.fundef.body == Block(())


def test_parse_for_header():
    block = parse_program("{ for { let i } lt(i, n) { } { } }")
    loop = block.statements[0]
    expected = For(
        init=Block((VariableSingle(Identifier("i"), None),)),
        test=FunCallExpr(
            FunCall(
                Identifier("lt"),
                (
                    PathExpr(Path((Identifier("i"),))),
                    PathExpr(Path((Identifier("n"),))),
                ),
            )
        ),
        update=Block(()),
        body=Block(()),
    )
    assert loop == expected
    # cross-check the hand-built tree through the printer
    assert parse_program(to_source(Block((expected,)))) == Block((expected,))


def test_parse_empty_block():
    assert parse_program("{ }") == Block(())


def test_parse_leave():
    assert parse_program("{ leave }") == Block((Leave(),))


def test_parse_scoping_listing_shape():
    block = parse_program(SCOPING_SRC)
    kinds = [type(s).__name__ for s in block.statements]
    assert kinds == ["VariableSingle", "FunDefStmt", "FunDefStmt"]
    f = block.statements[1].fundef
    assert [type(s).__name__ for s in f.body.statements] == [
        "FunDefStmt",
        "VariableSingle",
        "BlockStmt",
    ]
    inner = f.body.statements[2].block
    assert inner == Block((VariableSingle(Identifier("z"), None),))


def test_parse_trailing_garbage():
    with pytest.raises(ParseError, match="column 5"):
        parse_program("{ } {")


def test_parse_type_annotations_rejected():
    with pytest.raises(ParseError):
        parse_program("{ let x : u256 := 1 }")


def test_parse_string_elements():
    block = parse_program(r'{ let s := "hi\n\x7f" }')
    lit = block.statements[0].init.literal
    assert lit == PlainString(
        (RawChar("h"), RawChar("i"), SimpleEscape("n"), HexEscape("7f"))
    )


def test_parse_multi_declaration_requires_call():
    parse_program("{ let a, b := f() }")
    with pytest.raises(ParseError):
        parse_program("{ let a, b := 1 }")
    with pytest.raises(ParseError):
        parse_program("{ let a, b := c }")


def test_parse_switch_shapes():
    block = parse_program('{ switch x case 0 { } case "s" { } default { } }')
    sw = block.statements[0]
    assert len(sw.cases) == 2 and sw.default == Block(())
    with pytest.raises(ParseError):
        parse_program("{ switch x }")


def test_parse_dotted_path():
    block = parse_program("{ a.b := 1 }")
    assert block.statements[0].target == Path((Identifier("a"), Identifier("b")))


def test_parse_nesting_cap():
    deep = "{" * (MAX_NESTING + 1) + "}" * (MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nest"):
        parse_program(deep)


def test_parse_nesting_cap_at_end_of_input_names_the_last_token():
    # the expression after `if` is the 1025th level, and no token is left
    with pytest.raises(ParseError) as e:
        parse_program("{" * MAX_NESTING + " if")
    assert str(e.value) == f"line 1, column {MAX_NESTING + 2}: nesting deeper than {MAX_NESTING}"


@pytest.mark.parametrize("argument", ["y", "1", "a.b"])
def test_parse_call_arguments_up_to_the_nesting_cap(argument):
    # the argument is the 1024th level: one call more is past the cap
    calls = MAX_NESTING - 2
    block = parse_program("{ x := " + "f(" * calls + argument + ")" * calls + " }")
    expr = block.statements[0].value
    for _ in range(calls):
        (expr,) = expr.call.args
    assert to_source(expr) == argument


def test_parse_keyword_as_name_rejected():
    with pytest.raises(ParseError):
        parse_program("{ let break }")


def test_grammar_words_are_case_sensitive():
    # RFC 5234 quoted strings match either case, but the parser's keywords
    # are lower case only: each quoted word is marked %s (RFC 7405).
    grammar = (pathlib.Path(__file__).parents[1] / "docs" / "grammar.abnf").read_text()
    quoted = re.findall(r'<[^>]*>|;[^\n]*|((?:%[si])?"[^"]*")', grammar)
    words = [q for q in quoted if re.search("[A-Za-z]", q)]
    assert all(q.startswith('%s"') for q in words), words
    assert {q[3:-1] for q in words} >= KEYWORDS
    assert parse_program("{ let LET := 1 }").statements[0].name.text == "LET"


def test_parse_makes_one_identifier_per_name():
    block = parse_program("{ let x := add(x, y) y := x }")
    let, assign = block.statements
    uses = [let.name] + [a.path.parts[0] for a in let.init.call.args] + [assign.value.path.parts[0]]
    assert uses[0] is uses[1] is uses[3]
    assert assign.target.parts[0] is uses[2]
    assert parse_program("{ let x }").statements[0].name is not let.name


def _reachable(node):
    """Every node object under `node`, itself included, once per position."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        for f in dataclasses.fields(n):
            value = getattr(n, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if dataclasses.is_dataclass(v):
                    stack.append(v)


SHARED_NAMES = (
    "{ let x := 1 x := add(x, 1) if lt(x, 1) { x := x } function f(a) -> b { b := add(a, 1) }"
    " for { } lt(x, f(x)) { x := add(x, 1) } { } switch x case 1 { x := 1 } default { } }"
)


def test_parse_shares_only_names_and_single_part_paths():
    # Judgments and the soundness tracer key statements, expressions and
    # blocks by id(), so only identifiers and single-part paths may repeat
    block = parse_program(SHARED_NAMES)
    nodes = list(_reachable(block))
    paths = [n for n in nodes if isinstance(n, Path) and n.parts[0].text == "x"]
    assert len(paths) == 11 and all(p is paths[0] for p in paths)
    fresh = [n for n in nodes if not isinstance(n, (Identifier, Path))]
    assert len({id(n) for n in fresh}) == len(fresh)
    assert {type(n).__bases__[0] for n in fresh} >= {Expression, Statement, Literal}
    assert sum(isinstance(n, Block) for n in fresh) == 8
    judged = Judgments()
    check_safe_top(block, EVM_PURE.funtable(), judged)
    assert len(judged.statements) == sum(1 for _ in walk_statements(block))
    assert len(judged.expressions) == sum(isinstance(n, Expression) for n in fresh)


def test_parse_twice_gives_equal_trees_of_distinct_nodes():
    first, second = parse_program(SHARED_NAMES), parse_program(SHARED_NAMES)
    assert first == second
    assert not {id(n) for n in _reachable(first)} & {id(n) for n in _reachable(second)}


# Declaration and call errors name the offending token and give its position.
DECLARATION_ERRORS = {
    "{ let a, a := f() }": "line 1, column 10: name a repeated in declaration, found 'a'",
    "{ let a, b, a }": "line 1, column 13: name a repeated in declaration, found 'a'",
    "{ function f(a, a) { } }": "line 1, column 17: repeated parameter a in function f, found 'a'",
    "{ function f(a) -> a { } }": "line 1, column 20: repeated parameter a in function f, found 'a'",
    "{ let a, b := 1 }": (
        "line 1, column 15: multi-variable declaration needs a function call initializer,"
        " found literal 1"
    ),
    "{ a, b := c }": (
        "line 1, column 11: multi-assignment needs a function call on the right, found 'c'"
    ),
    # a call through a dotted path, at the path's first token
    "{ a.b(1) }": "line 1, column 3: function name a.b must be a single identifier, found 'a'",
    "{ x := a.b(1) }": (
        "line 1, column 8: function name a.b must be a single identifier, found 'a'"
    ),
    "{ f(1, a.b.c()) }": (
        "line 1, column 8: function name a.b.c must be a single identifier, found 'a'"
    ),
}


@pytest.mark.parametrize("source", DECLARATION_ERRORS)
def test_parse_declaration_errors_point_at_the_offending_token(source):
    with pytest.raises(ParseError) as e:
        parse_program(source)
    assert str(e.value) == DECLARATION_ERRORS[source]


# --- round-trips ---


def test_round_trip_fixed_programs():
    sources = [
        "{ }",
        "{ let x := 0x2a { x := add(x, 1) } }",
        '{ switch 1 case 0x0 { } default { leave } }',
        "{ for { let i := 0 } 1 { i := i } { break } }",
        '{ let s := "a\\\\b" let h := hex"00ff" }',
    ]
    for src in sources:
        tree = parse_program(src)
        assert parse_program(to_source(tree)) == tree


def test_round_trip_generated_programs():
    # small sample here; the acceptance suite runs 2000
    for seed in range(100):
        tree = gen_program(GenConfig(seed=seed))
        assert parse_program(to_source(tree)) == tree


def test_literal_details_preserved():
    # 0x2a and 42 denote the same value but are different trees
    hex_tree = parse_program("{ let x := 0x2a }")
    dec_tree = parse_program("{ let x := 42 }")
    assert hex_tree != dec_tree
    assert hex_tree.statements[0].init.literal == HexNumber("2a")
    assert dec_tree.statements[0].init.literal == DecNumber("42")
    assert "0x2a" in to_source(hex_tree)
