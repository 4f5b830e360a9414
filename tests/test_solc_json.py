"""Conversion from solc's Yul AST JSON: node coverage, the ignored-keys
contract, error paths with JSON pointers, and the fixture pairs."""

import json

import pytest

from yulkit.ast import (
    Break,
    HexEscape,
    HexNumber,
    Identifier,
    Path,
    RawChar,
    SimpleEscape,
    TrueLit,
)
from yulkit.ast import to_source
from yulkit.cli import EXIT_INPUT, EXIT_OK, main
from yulkit.renaming import check_disambiguation
from yulkit.solc_json import ConvertError, convert
from yulkit.syntax import MAX_NESTING, ParseError, parse_program

from conftest import FIXTURES, run_fresh


def block_of(*statements):
    return {"nodeType": "YulBlock", "statements": list(statements)}


def ident(name):
    return {"nodeType": "YulIdentifier", "name": name}


def typed(name):
    return {"nodeType": "YulTypedName", "name": name, "type": ""}


def lit(kind, value):
    return {"nodeType": "YulLiteral", "kind": kind, "value": value, "type": ""}


# --- basic nodes ---


def test_break_node():
    block = convert(block_of({"nodeType": "YulBreak"}))
    assert block.statements == (Break(),)


def test_bool_literal():
    block = convert(
        block_of(
            {
                "nodeType": "YulVariableDeclaration",
                "variables": [typed("x")],
                "value": lit("bool", "true"),
            }
        )
    )
    assert block == parse_program("{ let x := true }")
    assert block.statements[0].init.literal == TrueLit()


def test_empty_object_rejected_at_root():
    with pytest.raises(ConvertError) as e:
        convert({})
    assert e.value.path == "/"


def test_number_forms():
    hex_block = convert(
        block_of(
            {
                "nodeType": "YulVariableDeclaration",
                "variables": [typed("x")],
                "value": lit("number", "0x2a"),
            }
        )
    )
    assert hex_block.statements[0].init.literal == HexNumber("2a")
    assert hex_block == parse_program("{ let x := 0x2a }")
    dec_block = convert(
        block_of(
            {
                "nodeType": "YulVariableDeclaration",
                "variables": [typed("x")],
                "value": lit("number", "42"),
            }
        )
    )
    assert dec_block == parse_program("{ let x := 42 }")


def test_bad_number_rejected():
    # The numeral classes are the ones the tree's literal constructors check.
    for bad in ("0x", "007", "4 2", "", "0X1F", "0xg", "1e3", "-1", "٣", "0x2a\n"):
        with pytest.raises(ConvertError) as e:
            convert(
                block_of(
                    {
                        "nodeType": "YulVariableDeclaration",
                        "variables": [typed("x")],
                        "value": lit("number", bad),
                    }
                )
            )
        assert str(e.value) == f"/statements/0/value/value: malformed numeral {bad!r}"


def test_string_reencoding():
    # printable ASCII comes through raw, control chars pick their short
    # escapes, anything else becomes UTF-8 byte escapes
    block = convert(
        block_of(
            {
                "nodeType": "YulVariableDeclaration",
                "variables": [typed("s")],
                "value": lit("string", "hi\né"),
            }
        )
    )
    elements = block.statements[0].init.literal.elements
    assert elements == (
        RawChar("h"),
        RawChar("i"),
        SimpleEscape("n"),
        HexEscape("c3"),
        HexEscape("a9"),
    )


def test_dotted_identifier_multi_part_path():
    block = convert(
        block_of(
            {
                "nodeType": "YulAssignment",
                "variableNames": [ident("a.b")],
                "value": ident("c")
            }
        )
    )
    target = block.statements[0].target
    assert target == Path((Identifier("a"), Identifier("b")))
    assert block == parse_program("{ a.b := c }")


def test_malformed_dotted_identifier():
    for bad in ("a..b", ".a", "a.", "."):
        with pytest.raises(ConvertError, match="malformed identifier"):
            convert(
                block_of(
                    {
                        "nodeType": "YulAssignment",
                        "variableNames": [ident(bad)],
                        "value": ident("c"),
                    }
                )
            )


def test_dotted_function_name_rejected():
    node = block_of(
        {
            "nodeType": "YulExpressionStatement",
            "expression": {
                "nodeType": "YulFunctionCall",
                "functionName": ident("a.b"),
                "arguments": [],
            },
        }
    )
    with pytest.raises(ConvertError):
        convert(node)


# --- the consumed-keys contract ---


def test_unconsumed_keys_ignored():
    node = block_of({"nodeType": "YulBreak", "src": "1:2:0", "nativeSrc": "x"})
    node["src"] = "0:9:0"
    node["documentation"] = "ignored"
    assert convert(node).statements == (Break(),)


def test_empty_type_accepted_nonempty_rejected():
    ok = block_of(
        {
            "nodeType": "YulVariableDeclaration",
            "variables": [{"nodeType": "YulTypedName", "name": "x", "type": ""}],
            "value": None,
        }
    )
    assert convert(ok) == parse_program("{ let x }")
    no_type_key = block_of(
        {
            "nodeType": "YulVariableDeclaration",
            "variables": [{"nodeType": "YulTypedName", "name": "x"}],
            "value": None,
        }
    )
    assert convert(no_type_key) == parse_program("{ let x }")
    typed_decl = block_of(
        {
            "nodeType": "YulVariableDeclaration",
            "variables": [
                {"nodeType": "YulTypedName", "name": "x", "type": "u256"}
            ],
            "value": None,
        }
    )
    with pytest.raises(ConvertError, match="type"):
        convert(typed_decl)


# --- error paths name the failing node ---


def test_error_path_points_into_tree():
    node = block_of(
        {"nodeType": "YulIf", "condition": ident("c"), "body": {"nodeType": "YulBreak"}}
    )
    with pytest.raises(ConvertError) as e:
        convert(node)
    assert e.value.path == "/statements/0/body"


def test_unknown_node_type():
    with pytest.raises(ConvertError, match="YulBogus"):
        convert(block_of({"nodeType": "YulBogus"}))


def test_statement_expression_must_be_call():
    node = block_of({"nodeType": "YulExpressionStatement", "expression": ident("x")})
    with pytest.raises(ConvertError):
        convert(node)


def test_multi_declaration_initializer_must_be_call():
    node = block_of(
        {
            "nodeType": "YulVariableDeclaration",
            "variables": [typed("a"), typed("b")],
            "value": lit("number", "1"),
        }
    )
    with pytest.raises(ConvertError):
        convert(node)


def test_switch_default_handling():
    case = lambda v: {
        "nodeType": "YulCase",
        "value": v,
        "body": block_of(),
    }
    ok = block_of(
        {
            "nodeType": "YulSwitch",
            "expression": lit("number", "1"),
            "cases": [case(lit("number", "0")), case("default")],
        }
    )
    assert convert(ok) == parse_program("{ switch 1 case 0 { } default { } }")
    two_defaults = block_of(
        {
            "nodeType": "YulSwitch",
            "expression": lit("number", "1"),
            "cases": [case("default"), case("default")],
        }
    )
    with pytest.raises(ConvertError, match="second default"):
        convert(two_defaults)
    no_clauses = block_of(
        {"nodeType": "YulSwitch", "expression": lit("number", "1"), "cases": []}
    )
    with pytest.raises(ConvertError):
        convert(no_clauses)


def function_definition(**arrays):
    node = {"nodeType": "YulFunctionDefinition", "name": "f", "body": block_of()}
    node.update(arrays)
    return block_of(node)


@pytest.mark.parametrize(
    "key, value", [("parameters", 5), ("returnVariables", "ab"), ("parameters", None)]
)
def test_function_arrays_must_be_arrays(key, value, tmp_path, capsys):
    # an optional array that is present goes through the same check as any
    # other: a number raised TypeError, a string was read by character
    tree = function_definition(**{key: value})
    with pytest.raises(ConvertError) as e:
        convert(tree)
    assert str(e.value) == f"/statements/0/{key}: expected an array"
    source = tmp_path / "tree.json"
    source.write_text(json.dumps(tree))
    assert main(["import-json", str(source)]) == EXIT_INPUT
    assert capsys.readouterr().err.endswith(f"/statements/0/{key}: expected an array\n")


def test_function_arrays_are_optional():
    assert convert(function_definition()) == parse_program("{ function f() { } }")


# --- nesting: a tree converts iff its printed text parses ---


# The parser counts open blocks and open expressions; so does `convert`.


def nested_blocks(n):
    """n nested blocks, the innermost at nesting n, as JSON text and as Yul
    text."""
    return '{"nodeType":"YulBlock","statements":[' * n + "]}" * n, "{" * n + "}" * n


def nested_calls(n):
    """A block declaring x from n - 2 nested calls of iszero around a
    literal, the literal at nesting n, as JSON text and as Yul text."""
    call = '{"nodeType":"YulFunctionCall","functionName":{"nodeType":"YulIdentifier","name":"iszero"},"arguments":['
    leaf = '{"nodeType":"YulLiteral","kind":"number","value":"0"}'
    declaration = '{"nodeType":"YulVariableDeclaration","variables":[{"nodeType":"YulTypedName","name":"x"}],"value":'
    k = n - 2
    tree = '{"nodeType":"YulBlock","statements":[' + declaration + call * k + leaf + "]}" * k + "}]}"
    return tree, "{ let x := " + "iszero(" * k + "0" + ")" * k + " }"


@pytest.mark.parametrize(
    "nested, past_cap_path",
    [
        (nested_blocks, "/statements/0" * MAX_NESTING),
        (nested_calls, "/statements/0/value" + "/arguments/0" * (MAX_NESTING - 1)),
    ],
    ids=["blocks", "calls"],
)
def test_nesting_cap_is_the_parsers(nested, past_cap_path, tmp_path, capsys):
    tree_text, source = nested(MAX_NESTING)
    tree = convert(json.loads(tree_text))
    assert tree == parse_program(source)
    assert parse_program(to_source(tree)) == tree

    tree_text, source = nested(MAX_NESTING + 1)
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING}"):
        parse_program(source)
    with pytest.raises(ConvertError) as e:
        convert(json.loads(tree_text))
    assert (e.value.path, e.value.reason) == (past_cap_path, f"nesting deeper than {MAX_NESTING}")

    source_file = tmp_path / "tree.json"
    source_file.write_text(tree_text)
    assert main(["import-json", str(source_file)]) == EXIT_INPUT
    assert f"nesting deeper than {MAX_NESTING}" in capsys.readouterr().err
    source_file.write_text(nested(MAX_NESTING)[0])
    assert main(["import-json", str(source_file)]) == EXIT_OK
    assert parse_program(capsys.readouterr().out) == tree


def test_deep_tree_refused_from_a_fresh_interpreter():
    # far past the cap, at the default recursion limit: a ConvertError, not
    # a RecursionError
    run_fresh(
        "from yulkit.solc_json import ConvertError, convert\n"
        "tree = {'nodeType': 'YulBlock', 'statements': []}\n"
        "for _ in range(3000):\n"
        "    tree = {'nodeType': 'YulBlock', 'statements': [tree]}\n"
        "try:\n"
        "    convert(tree)\n"
        "except ConvertError as exc:\n"
        "    assert exc.reason == 'nesting deeper than 1024', exc\n"
        "else:\n"
        "    raise AssertionError('converted')\n"
    )


def test_non_object_rejected():
    with pytest.raises(ConvertError):
        convert("not a node")
    with pytest.raises(ConvertError):
        convert(block_of("not a statement"))


# --- fixtures ---


def fixture_pairs():
    for json_path in sorted(FIXTURES.glob("*.json")):
        yul_path = json_path.with_suffix(".yul")
        assert yul_path.exists(), f"fixture {json_path.name} lacks paired Yul text"
        yield json_path, yul_path


def test_fixture_convert_matches_parse():
    count = 0
    for json_path, yul_path in fixture_pairs():
        tree = json.loads(json_path.read_text())
        assert convert(tree) == parse_program(yul_path.read_text()), json_path.name
        count += 1
    assert count >= 4


def test_fixture_disambiguation_pair_accepted():
    old = convert(json.loads((FIXTURES / "scoping.json").read_text()))
    new = convert(
        json.loads((FIXTURES / "scoping_disambiguated.json").read_text())
    )
    cert = check_disambiguation(old, new)
    assert cert.function_renaming.pairs == (("f", "f"), ("g", "g"))
