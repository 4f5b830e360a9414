"""Tree construction invariants, printing, and the structural helpers."""

import dataclasses
import inspect

import pytest

from yulkit import ast
from yulkit.ast import (
    AssignSingle,
    Block,
    BlockStmt,
    DecNumber,
    FunCall,
    FunCallStmt,
    FunDef,
    HexString,
    Identifier,
    LiteralExpr,
    Path,
    PathExpr,
    VariableMulti,
    VariableSingle,
    declarations,
    hoisted_fundefs,
    literal_value,
    map_blocks,
    string_bytes,
    sub_blocks,
    to_source,
    walk_statements,
)
from yulkit.syntax import parse_program

from conftest import SCOPING_SRC


# --- construction invariants ---


def test_identifier_charset():
    Identifier("x")
    Identifier("_a$1")
    with pytest.raises(ValueError):
        Identifier("1x")
    with pytest.raises(ValueError):
        Identifier("a-b")
    with pytest.raises(ValueError):
        Identifier("a.b")
    with pytest.raises(ValueError):
        Identifier("")


def test_identifier_rejects_keywords():
    for kw in ("let", "function", "leave", "true", "false"):
        with pytest.raises(ValueError):
            Identifier(kw)


def test_path_nonempty():
    Path((Identifier("a"), Identifier("b")))
    with pytest.raises(ValueError):
        Path(())


def test_decnumber_digits():
    DecNumber("0")
    DecNumber("64738")
    with pytest.raises(ValueError):
        DecNumber("")
    with pytest.raises(ValueError):
        DecNumber("1_0")
    with pytest.raises(ValueError):
        DecNumber("-1")


def test_hexstring_even_digit_count():
    HexString("90a4")
    HexString("")
    with pytest.raises(ValueError):
        HexString("90a")


def test_variable_multi_needs_two_names():
    names = (Identifier("a"), Identifier("b"))
    VariableMulti(names, None)
    with pytest.raises(ValueError):
        VariableMulti((Identifier("a"),), None)


def test_fundef_params_distinct_and_disjoint():
    a, b = Identifier("a"), Identifier("b")
    FunDef(Identifier("f"), (a,), (b,), Block(()))
    with pytest.raises(ValueError):
        FunDef(Identifier("f"), (a, a), (), Block(()))
    with pytest.raises(ValueError):
        FunDef(Identifier("f"), (a,), (a,), Block(()))


# --- printing ---


# One program holding a node of every class.
EVERY_NODE_CLASS = r"""{
    function f(a, b) -> r, s { leave }
    let x := 0x1F
    let y, z := f(1, "a\n\x41")
    x := true
    y, z := f(false, hex"ab")
    g(x)
    if x { break }
    switch x case 0 { continue } default { }
    for { } lt(x, 2) { } { { } }
}"""


def _nodes_by_class(node, found):
    if dataclasses.is_dataclass(node):
        found.setdefault(type(node), []).append(node)
        for f in dataclasses.fields(node):
            _nodes_by_class(getattr(node, f.name), found)
    elif isinstance(node, tuple):
        for item in node:
            _nodes_by_class(item, found)
    return found


NODE_CLASSES = sorted(
    (c for c in vars(ast).values() if isinstance(c, type) and dataclasses.is_dataclass(c)), key=lambda c: c.__name__
)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_every_node_class_is_built_by_its_slot_setters(cls):
    # `_node`'s __init__, not the dataclass's, with the fields' names as
    # its parameters.
    names = [f.name for f in dataclasses.fields(cls)]
    assert cls.__init__.__code__.co_filename == f"<_node {cls.__name__}>"
    assert list(inspect.signature(cls.__init__).parameters)[1:] == names


def test_node_constructors_keep_the_dataclass_contract():
    found = _nodes_by_class(parse_program(EVERY_NODE_CLASS), {})
    assert set(found) == set(NODE_CLASSES)
    for cls, nodes in found.items():
        names = [f.name for f in dataclasses.fields(cls)]
        for node in nodes:
            values = [getattr(node, name) for name in names]
            by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
            assert by_position == by_keyword == node and by_position is not node
            assert hash(by_position) == hash(node) == hash(tuple(values))
            assert dataclasses.replace(node) == node
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, name, getattr(node, name))
        # Each node becomes any other of its class by replacing its fields.
        for node, other in zip(nodes, nodes[1:]):
            changed = dataclasses.replace(node, **{name: getattr(other, name) for name in names})
            assert changed == other and (changed == node) == (other == node)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Identifier("let"),
        lambda: DecNumber("007"),
        lambda: HexString("abc"),
        lambda: Path(()),
        lambda: VariableMulti((Identifier("a"),), None),
        lambda: FunDef(Identifier("f"), (Identifier("a"),), (Identifier("a"),), Block(())),
        lambda: FunDef(name=Identifier("f"), inputs=(Identifier("a"), Identifier("a")), outputs=(), body=Block(())),
    ],
)
def test_validating_node_constructors_still_refuse(build):
    with pytest.raises(ValueError):
        build()


def test_print_variable_single():
    assert to_source(VariableSingle(Identifier("x"), None)) == "let x"


def test_print_assign_single():
    stmt = AssignSingle(
        Path((Identifier("x"),)), LiteralExpr(DecNumber("17"))
    )
    assert to_source(stmt) == "x := 17"


def test_print_empty_block():
    assert to_source(Block(())) == "{ }"


def test_print_parses_back():
    block = parse_program(SCOPING_SRC)
    assert parse_program(to_source(block)) == block


# --- structural helpers ---


@pytest.mark.parametrize(
    "source, expected",
    [
        # two y declarations and two h definitions, each listed where it is
        (SCOPING_SRC, [
            (False, "x"), (True, "f"), (True, "h"), (False, "y"), (False, "z"),
            (True, "g"), (False, "y"), (True, "h"),
        ]),
        ("{ }", []),
        ("{ let a let a }", [(False, "a"), (False, "a")]),  # unsafe but traversable
        ("{ function f(p) -> q { let r } }", [(True, "f"), (False, "p"), (False, "q"), (False, "r")]),
    ],
    ids=["scoping-listing", "empty", "duplicates", "params"],
)
def test_declarations_of(source, expected):
    assert list(declarations(parse_program(source))) == expected


# One statement of every kind: its source, the blocks written directly in it
# (in source order), and its source once each of those blocks starts with
# `marked()`.
EVERY_KIND = [
    ("{ a() }", ["{ a() }"], "{ marked() a() }"),
    ("let x := 1", [], "let x := 1"),
    ("let x, y := f()", [], "let x, y := f()"),
    ("x := 1", [], "x := 1"),
    ("x, y := f()", [], "x, y := f()"),
    ("f(1)", [], "f(1)"),
    ("if c { a() }", ["{ a() }"], "if c { marked() a() }"),
    (
        "switch x case 1 { a() } case 2 { } default { b() }",
        ["{ a() }", "{ }", "{ b() }"],
        "switch x case 1 { marked() a() } case 2 { marked() } default { marked() b() }",
    ),
    ("switch x case 1 { a() }", ["{ a() }"], "switch x case 1 { marked() a() }"),
    (
        "for { let i } lt(i, 2) { i := add(i, 1) } { a() }",
        ["{ let i }", "{ i := add(i, 1) }", "{ a() }"],
        "for { marked() let i } lt(i, 2) { marked() i := add(i, 1) } { marked() a() }",
    ),
    ("break", [], "break"),
    ("continue", [], "continue"),
    ("leave", [], "leave"),
    ("function f(p) -> q { q := p }", ["{ q := p }"], "function f(p) -> q { marked() q := p }"),
]


def _stmt(src):
    return parse_program("{ " + src + " }").statements[0]


def _mark(block):
    return Block((FunCallStmt(FunCall(Identifier("marked"), ())),) + block.statements)


@pytest.mark.parametrize("src,blocks,marked", EVERY_KIND)
def test_sub_blocks_in_source_order(src, blocks, marked):
    assert [to_source(b) for b in sub_blocks(_stmt(src))] == blocks


@pytest.mark.parametrize("src,blocks,marked", EVERY_KIND)
def test_map_blocks_changes_exactly_the_sub_blocks(src, blocks, marked):
    stmt = _stmt(src)
    seen = []

    def mark(block):
        seen.append(block)
        return _mark(block)

    out = map_blocks(stmt, mark)
    assert seen == list(sub_blocks(stmt))
    assert out == _stmt(marked)
    if not blocks:
        assert out is stmt


WALKED = """{
    let a
    for { let i function g(p) -> q { let w } } i { let u } { let v, v2 }
    function f(x, y) -> r {
        if x { let b }
        switch y case 0 { let c } default { function h() { } }
    }
}"""


def test_walk_statements_in_source_order():
    kinds = [type(s).__name__ for s in walk_statements(parse_program(WALKED))]
    assert kinds == [
        "VariableSingle",  # let a
        "For",
        "VariableSingle",  # let i
        "FunDefStmt",  # g
        "VariableSingle",  # let w
        "VariableSingle",  # let u
        "VariableMulti",  # let v, v2
        "FunDefStmt",  # f
        "If",
        "VariableSingle",  # let b
        "Switch",
        "VariableSingle",  # let c
        "FunDefStmt",  # h
    ]


def test_walk_statements_deep_nesting_needs_no_stack():
    block = Block(())
    for _ in range(5000):
        block = Block((BlockStmt(block),))
    assert sum(1 for _ in walk_statements(block)) == 5000


def test_declarations_in_source_order():
    assert list(declarations(parse_program(WALKED))) == [
        (False, "a"),
        (False, "i"),
        (True, "g"), (False, "p"), (False, "q"),
        (False, "w"),
        (False, "u"),
        (False, "v"), (False, "v2"),
        (True, "f"), (False, "x"), (False, "y"), (False, "r"),
        (False, "b"),
        (False, "c"),
        (True, "h"),
    ]


# --- literal values ---


def test_string_bytes_decodes_escapes_and_utf8():
    lit = parse_program('{ let s := "a\\x00\\n\\"é" }').statements[0].init.literal
    assert string_bytes(lit) == b"a\x00\n\"" + "é".encode("utf-8")
    assert string_bytes(HexString("90a4")) == bytes([0x90, 0xA4])
    assert string_bytes(HexString("")) == b""


def test_literal_value_of_every_kind():
    values = {
        "true": 1,
        "false": 0,
        "42": 42,
        "0x2a": 42,
        '"*"': 42,  # "*" is byte 0x2a
        'hex"002a"': 42,
        '""': 0,
    }
    for src, value in values.items():
        lit = parse_program("{ let v := " + src + " }").statements[0].init.literal
        assert literal_value(lit) == value, src


def test_hoisted_fundefs_top_block():
    block = parse_program(SCOPING_SRC)
    assert [fd.name.text for fd in hoisted_fundefs(block)] == ["f", "g"]


def test_hoisted_fundefs_inner_block():
    block = parse_program(SCOPING_SRC)
    f_body = block.statements[1].fundef.body
    assert [fd.name.text for fd in hoisted_fundefs(f_body)] == ["h"]


def test_hoisted_fundefs_does_not_recurse():
    block = parse_program("{ if c { function f() { } } }")
    assert hoisted_fundefs(block) == ()


def test_expression_printing():
    expr = parse_program("{ x := f(a.b, 1) }").statements[0].value
    assert to_source(expr) == "f(a.b, 1)"
    assert to_source(PathExpr(Path((Identifier("a"), Identifier("b"))))) == "a.b"
