"""Abstract syntax trees for Yul.

Nodes are immutable dataclasses with slots (no per-node `__dict__`), compared
structurally.  Literals keep their lexical form (digits, escapes, hex case) so
that printing a tree and parsing the result yields an identical tree.  Types
and source positions are not represented: the dialect handled here is
untyped, and comments/whitespace are formatting, not syntax.

Every node class is made by `_node`: a frozen slots dataclass whose
`__init__` sets each field through its slot, then runs the class's
`__post_init__` check if it has one.  Positional and keyword construction,
`dataclasses.replace`, equality, hashing and `FrozenInstanceError` are the
dataclass's own; only building a node costs less, and the parser and the
generator build many.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Optional, Tuple, Union

from ._stack import ensure_recursion_headroom

KEYWORDS = frozenset(
    "let function if switch case default for break continue leave true false".split()
)

# Lexical classes, shared with the lexer's master pattern.
IDENT_PATTERN = r"[A-Za-z_$][A-Za-z0-9_$]*"
DEC_PATTERN = r"[0-9]+"
HEX_DIGIT = r"[0-9a-fA-F]"

_IDENT_RE = re.compile(IDENT_PATTERN + r"\Z")
_HEX_RE = re.compile(HEX_DIGIT + r"*\Z")
_DEC_RE = re.compile(DEC_PATTERN + r"\Z")

# escape code -> the byte it denotes
SIMPLE_ESCAPES = {"\\": 0x5C, '"': 0x22, "'": 0x27, "n": 0x0A, "r": 0x0D, "t": 0x09}


def _node(cls: type) -> type:
    """`cls` as a frozen slots dataclass with a faster `__init__` of the same
    parameters.  The dataclass's own sets each field with
    `object.__setattr__`, which looks the name up on every call; this one
    calls each slot's descriptor directly.  Its code is filed under
    `<_node Cls>`, so a profile tells the classes' constructors apart."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    scope = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    lines = [f"    _set_{name}(self, {name})" for name in names]
    if "__post_init__" in cls.__dict__:
        scope["_post_init"] = cls.__post_init__
        lines.append("    _post_init(self)")
    params = "".join(", " + name for name in names)
    source = f"def __init__(self{params}):\n" + ("\n".join(lines) or "    pass") + "\n"
    exec(compile(source, f"<_node {cls.__name__}>", "exec"), scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


@_node
class Identifier:
    """A Yul identifier.  Keywords are not identifiers; dots are not allowed
    (dotted names are paths of several identifiers)."""

    text: str

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.text):
            raise ValueError(f"malformed identifier: {self.text!r}")
        if self.text in KEYWORDS:
            raise ValueError(f"keyword used as identifier: {self.text!r}")

    def __str__(self) -> str:
        return self.text


@_node
class Path:
    """One or more identifiers separated by dots.  Paths of length > 1 are
    accepted by the grammar but rejected by the static checker."""

    parts: Tuple[Identifier, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("empty path")

    def __str__(self) -> str:
        if len(self.parts) == 1:
            return self.parts[0].text
        return ".".join([p.text for p in self.parts])


# --- string literal elements -------------------------------------------------

@_node
class RawChar:
    """A character written as itself inside a plain string literal."""

    char: str

    def __post_init__(self) -> None:
        c = self.char
        if len(c) != 1 or c in ('"', "\\") or ord(c) < 0x20:
            raise ValueError(f"character must be escaped in a string literal: {c!r}")


@_node
class SimpleEscape:
    r"""A backslash escape: one of \\ \" \' \n \r \t."""

    code: str

    def __post_init__(self) -> None:
        if self.code not in SIMPLE_ESCAPES:
            raise ValueError(f"unknown escape code: {self.code!r}")


@_node
class HexEscape:
    r"""A \xNN escape denoting one byte."""

    digits: str

    def __post_init__(self) -> None:
        if len(self.digits) != 2 or not _HEX_RE.match(self.digits):
            raise ValueError(f"\\x escape needs two hex digits: {self.digits!r}")


StrElement = Union[RawChar, SimpleEscape, HexEscape]


# --- literals -----------------------------------------------------------------

class Literal:
    """Base class for literals."""

    __slots__ = ()


@_node
class TrueLit(Literal):
    pass


@_node
class FalseLit(Literal):
    pass


@_node
class DecNumber(Literal):
    """A decimal numeral.  Leading zeros are not canonical and are rejected,
    so every well-formed tree prints to a parseable numeral."""

    digits: str

    def __post_init__(self) -> None:
        if not _DEC_RE.match(self.digits):
            raise ValueError(f"malformed decimal numeral: {self.digits!r}")
        if len(self.digits) > 1 and self.digits[0] == "0":
            raise ValueError(f"leading zeros in decimal numeral: {self.digits!r}")


@_node
class HexNumber(Literal):
    """A 0x-prefixed numeral; digit case and leading zeros are preserved."""

    digits: str

    def __post_init__(self) -> None:
        if not self.digits or not _HEX_RE.match(self.digits):
            raise ValueError(f"malformed hex numeral: {self.digits!r}")


@_node
class PlainString(Literal):
    """A double-quoted string, kept as the written sequence of characters and
    escapes."""

    elements: Tuple[StrElement, ...]


@_node
class HexString(Literal):
    """A hex"..." literal: an even number of hex digits denoting bytes."""

    digits: str

    def __post_init__(self) -> None:
        if not _HEX_RE.match(self.digits):
            raise ValueError(f"malformed hex string body: {self.digits!r}")
        if len(self.digits) % 2 != 0:
            raise ValueError("hex string needs an even number of digits")


# each digit-string literal class -> its `digits` slot's setter
_SET_DIGITS = {cls: cls.__dict__["digits"].__set__ for cls in (DecNumber, HexNumber, HexString)}


def lexed_literal(cls: type, digits: str) -> Literal:
    """The `DecNumber`, `HexNumber` or `HexString` (`cls`) for digits known
    to be well formed (lexed, or written so by the generator): the checks of
    `cls` are not run again."""
    lit = object.__new__(cls)
    _SET_DIGITS[cls](lit, digits)
    return lit


# --- expressions ----------------------------------------------------------------

class Expression:
    """Base class for expressions."""

    __slots__ = ()


@_node
class FunCall:
    name: Identifier
    args: Tuple[Expression, ...]


@_node
class PathExpr(Expression):
    path: Path


@_node
class LiteralExpr(Expression):
    literal: Literal


@_node
class FunCallExpr(Expression):
    call: FunCall


# --- statements -----------------------------------------------------------------

class Statement:
    """Base class for statements."""

    __slots__ = ()


@_node
class Block:
    statements: Tuple[Statement, ...]


@_node
class BlockStmt(Statement):
    block: Block


@_node
class VariableSingle(Statement):
    name: Identifier
    init: Optional[Expression]


@_node
class VariableMulti(Statement):
    """`let a, b, ... := f(...)` — two or more names, initializer (if any)
    must be a function call."""

    names: Tuple[Identifier, ...]
    init: Optional[FunCall]

    def __post_init__(self) -> None:
        if len(self.names) < 2:
            raise ValueError("multi-variable declaration needs at least two names")


@_node
class AssignSingle(Statement):
    target: Path
    value: Expression


@_node
class AssignMulti(Statement):
    targets: Tuple[Path, ...]
    value: FunCall

    def __post_init__(self) -> None:
        if len(self.targets) < 2:
            raise ValueError("multi-assignment needs at least two targets")


@_node
class FunCallStmt(Statement):
    call: FunCall


@_node
class If(Statement):
    test: Expression
    body: Block


@_node
class SwCase:
    value: Literal
    body: Block


@_node
class Switch(Statement):
    target: Expression
    cases: Tuple[SwCase, ...]
    default: Optional[Block]


@_node
class For(Statement):
    init: Block
    test: Expression
    update: Block
    body: Block


@_node
class Break(Statement):
    pass


@_node
class Continue(Statement):
    pass


@_node
class Leave(Statement):
    pass


@_node
class FunDef:
    """A function definition.  Input and output names must be distinct from
    each other and across the two lists."""

    name: Identifier
    inputs: Tuple[Identifier, ...]
    outputs: Tuple[Identifier, ...]
    body: Block

    def __post_init__(self) -> None:
        names = [i.text for i in self.inputs] + [o.text for o in self.outputs]
        if len(set(names)) != len(names):
            raise ValueError(f"repeated parameter name in function {self.name.text}")


@_node
class FunDefStmt(Statement):
    fundef: FunDef


Node = Union[Block, Statement, Expression, Literal]


# --- structural utilities --------------------------------------------------------

def hoisted_fundefs(block: Block) -> Tuple[FunDef, ...]:
    """The function definitions appearing directly in a block, in order.
    These are the definitions a block makes visible throughout itself."""
    return tuple(s.fundef for s in block.statements if isinstance(s, FunDefStmt))


def sub_blocks(stmt: Statement) -> Tuple[Block, ...]:
    """The blocks written directly inside a statement, in source order: a
    loop's initializer, update and body; a switch's cases, then its default."""
    if isinstance(stmt, BlockStmt):
        return (stmt.block,)
    if isinstance(stmt, If):
        return (stmt.body,)
    if isinstance(stmt, Switch):
        cases = tuple(c.body for c in stmt.cases)
        return cases if stmt.default is None else cases + (stmt.default,)
    if isinstance(stmt, For):
        return (stmt.init, stmt.update, stmt.body)
    if isinstance(stmt, FunDefStmt):
        return (stmt.fundef.body,)
    return ()


def map_blocks(stmt: Statement, f: Callable[[Block], Block]) -> Statement:
    """The statement with `f` applied to each of its sub_blocks, in source
    order, and all else kept; a statement without blocks comes back as is."""
    if isinstance(stmt, BlockStmt):
        return BlockStmt(f(stmt.block))
    if isinstance(stmt, If):
        return If(stmt.test, f(stmt.body))
    if isinstance(stmt, Switch):
        return Switch(
            stmt.target,
            tuple(SwCase(c.value, f(c.body)) for c in stmt.cases),
            None if stmt.default is None else f(stmt.default),
        )
    if isinstance(stmt, For):
        return For(f(stmt.init), stmt.test, f(stmt.update), f(stmt.body))
    if isinstance(stmt, FunDefStmt):
        fd = stmt.fundef
        return FunDefStmt(FunDef(fd.name, fd.inputs, fd.outputs, f(fd.body)))
    return stmt


def walk_statements(block: Block) -> Iterator[Statement]:
    """Every statement in the block, nested ones included, in source order (each
    just before the statements of its blocks); iterative, so depth costs no stack."""
    pending = [iter(block.statements)]
    while pending:
        stmt = next(pending[-1], None)
        if stmt is None:
            pending.pop()
            continue
        yield stmt
        pending.extend(iter(b.statements) for b in reversed(sub_blocks(stmt)))


def declarations(block: Block) -> Iterator[Tuple[bool, str]]:
    """Every name declared anywhere in the block, in source order, as a pair
    (is it a function name, name).  Variables are let-bound names and function
    parameters/results; a function's name comes before its parameters."""
    for stmt in walk_statements(block):
        if isinstance(stmt, VariableSingle):
            yield False, stmt.name.text
        elif isinstance(stmt, VariableMulti):
            for n in stmt.names:
                yield False, n.text
        elif isinstance(stmt, FunDefStmt):
            fd = stmt.fundef
            yield True, fd.name.text
            for p in fd.inputs + fd.outputs:
                yield False, p.text


# --- literal values ----------------------------------------------------------------

def string_bytes(lit: Union[PlainString, HexString]) -> bytes:
    """The bytes a string literal denotes: escapes decoded, text UTF-8 encoded."""
    if isinstance(lit, HexString):
        return bytes.fromhex(lit.digits)
    out = bytearray()
    for el in lit.elements:
        if isinstance(el, RawChar):
            out.extend(el.char.encode("utf-8"))
        elif isinstance(el, HexEscape):
            out.append(int(el.digits, 16))
        else:
            out.append(SIMPLE_ESCAPES[el.code])
    return bytes(out)


def literal_value(lit: Literal) -> int:
    """The number a literal denotes, with no range check: true is 1, false 0,
    a string its bytes read as a big-endian base-256 number."""
    if isinstance(lit, TrueLit):
        return 1
    if isinstance(lit, FalseLit):
        return 0
    if isinstance(lit, DecNumber):
        return int(lit.digits)
    if isinstance(lit, HexNumber):
        return int(lit.digits, 16)
    if isinstance(lit, (PlainString, HexString)):
        return int.from_bytes(string_bytes(lit), "big")
    raise TypeError(f"not a literal: {type(lit).__name__}")


# --- printing --------------------------------------------------------------------
#
# The printer dispatches on a node's exact class, like the interpreter's
# compiler.  A statement is printed at an indentation level: its nested blocks
# close at that level, and a switch's clauses start on new lines at it.
# Level None prints everything on one line.

def to_source(node: Node) -> str:
    """Render a tree as Yul source.  The output parses back to a structurally
    equal tree.  Blocks are laid out one statement per line, except that `for`
    headers and blocks holding at most one simple statement stay on one line
    (`{ let x }`, `{ leave }`)."""
    ensure_recursion_headroom()
    if isinstance(node, Block):
        return _block(node, 0)
    if isinstance(node, Statement):
        return _statement(node, 0)
    if isinstance(node, Expression):
        return _expression(node)
    if isinstance(node, Literal):
        return _literal(node)
    raise TypeError(f"cannot print {type(node).__name__}")


_INDENT = "    "
_SIMPLE_STATEMENTS = frozenset((
    VariableSingle, VariableMulti, AssignSingle, AssignMulti,
    FunCallStmt, Break, Continue, Leave,
))


def _block(block: Block, level: Optional[int]) -> str:
    """A block whose closing brace is at `level`; on one line if `level` is
    None or the block holds at most one simple statement."""
    stmts = block.statements
    if not stmts:
        return "{ }"
    if level is None or (len(stmts) == 1 and type(stmts[0]) in _SIMPLE_STATEMENTS):
        return "{ " + " ".join([_statement(s, None) for s in stmts]) + " }"
    inner = "\n" + _INDENT * (level + 1)
    lines = [_statement(s, level + 1) for s in stmts]
    return "{" + inner + inner.join(lines) + "\n" + _INDENT * level + "}"


def _statement(stmt: Statement, level: Optional[int]) -> str:
    """One statement at `level`.  `for` headers are always printed inline."""
    kind = type(stmt)
    if kind is BlockStmt:
        return _block(stmt.block, level)
    if kind is VariableSingle:
        head = "let " + stmt.name.text
        return head if stmt.init is None else head + " := " + _expression(stmt.init)
    if kind is VariableMulti:
        head = "let " + ", ".join([n.text for n in stmt.names])
        return head if stmt.init is None else head + " := " + _funcall(stmt.init)
    if kind is AssignSingle:
        return str(stmt.target) + " := " + _expression(stmt.value)
    if kind is AssignMulti:
        return ", ".join([str(t) for t in stmt.targets]) + " := " + _funcall(stmt.value)
    if kind is FunCallStmt:
        return _funcall(stmt.call)
    if kind is If:
        return "if " + _expression(stmt.test) + " " + _block(stmt.body, level)
    if kind is Switch:
        parts = ["switch " + _expression(stmt.target)]
        for c in stmt.cases:
            parts.append("case " + _literal(c.value) + " " + _block(c.body, level))
        if stmt.default is not None:
            parts.append("default " + _block(stmt.default, level))
        return (" " if level is None else "\n" + _INDENT * level).join(parts)
    if kind is For:
        head = "for {} {} {} ".format(
            _block(stmt.init, None),
            _expression(stmt.test),
            _block(stmt.update, None),
        )
        return head + _block(stmt.body, level)
    if kind is Break:
        return "break"
    if kind is Continue:
        return "continue"
    if kind is Leave:
        return "leave"
    if kind is FunDefStmt:
        return _fundef_head(stmt.fundef) + " " + _block(stmt.fundef.body, level)
    raise TypeError(f"cannot print {kind.__name__}")


def _fundef_head(fd: FunDef) -> str:
    head = "function {}({})".format(fd.name.text, ", ".join([i.text for i in fd.inputs]))
    if fd.outputs:
        head += " -> " + ", ".join([o.text for o in fd.outputs])
    return head


def _expression(expr: Expression) -> str:
    kind = type(expr)
    if kind is PathExpr:
        return str(expr.path)
    if kind is LiteralExpr:
        return _literal(expr.literal)
    if kind is FunCallExpr:
        return _funcall(expr.call)
    raise TypeError(f"cannot print {kind.__name__}")


def _funcall(call: FunCall) -> str:
    return call.name.text + "(" + ", ".join([_expression(a) for a in call.args]) + ")"


def _literal(lit: Literal) -> str:
    kind = type(lit)
    if kind is TrueLit:
        return "true"
    if kind is FalseLit:
        return "false"
    if kind is DecNumber:
        return lit.digits
    if kind is HexNumber:
        return "0x" + lit.digits
    if kind is PlainString:
        return '"' + "".join([_str_element(e) for e in lit.elements]) + '"'
    if kind is HexString:
        return 'hex"' + lit.digits + '"'
    raise TypeError(f"cannot print {kind.__name__}")


def _str_element(el: StrElement) -> str:
    if isinstance(el, RawChar):
        return el.char
    if isinstance(el, SimpleEscape):
        return "\\" + el.code
    return "\\x" + el.digits
