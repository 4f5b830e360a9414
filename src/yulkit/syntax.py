"""Lexer and recursive-descent parser for Yul source text.

The accepted grammar is the untyped one: no type annotations after declared
names (a colon is a parse error), string literals keep their escapes, and
`hex"..."` literals are recognized.  Dotted names lex as identifier/dot/
identifier and parse into multi-part paths; the static checker rejects them
later.  Nesting is capped at 1024 for stack safety.

The lexer is one `findall` of a pattern with an alternative per piece
class (whitespace, comment, hex string, string, word, hex numeral, decimal
numeral, symbol), built from the lexical classes `ast` validates with.  A
comment or string that does not close matches as one piece running to the
end of the source, so the scan takes time linear in the source.  The pieces
cover the source when their lengths sum to its length; one pass then drops
trivia pieces by their first character.  Token offsets, the running sum of
the piece lengths, are found again from the source only when asked for, and
line and column from them: for a `ParseError`, or for an item of the
`Tokens` sequence.  Where the pieces do not cover the source, or the last
one does not close, `_diagnose` names the fault and its position.

The parser reads token texts by index and classifies a token by its text.
Within one parse it shares one `Identifier` per distinct name and one
single-part `Path` per name used as a path; every statement, expression,
call, block and literal is made for its position, because the checker's
`Judgments` key positions by `id()`.  A call argument that is a name already
used as a path, or a numeral, below the nesting cap, is made without a call
to `expression`.  Numerals and hex strings are built with
`ast.lexed_literal`, which does not re-run checks the lexer has made.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Tuple

from ._stack import ensure_recursion_headroom
from .ast import (
    AssignMulti,
    AssignSingle,
    Block,
    BlockStmt,
    Break,
    Continue,
    DEC_PATTERN,
    DecNumber,
    Expression,
    FalseLit,
    For,
    FunCall,
    FunCallExpr,
    FunCallStmt,
    FunDef,
    FunDefStmt,
    HEX_DIGIT,
    HexEscape,
    HexNumber,
    HexString,
    IDENT_PATTERN,
    Identifier,
    If,
    KEYWORDS,
    Leave,
    Literal,
    LiteralExpr,
    Path,
    PathExpr,
    PlainString,
    RawChar,
    SIMPLE_ESCAPES,
    SimpleEscape,
    Statement,
    SwCase,
    Switch,
    TrueLit,
    VariableMulti,
    VariableSingle,
    lexed_literal,
)

MAX_NESTING = 1024

KEYWORD = "keyword"
IDENT = "ident"
LITERAL = "literal"
SYMBOL = "symbol"


class ParseError(Exception):
    """Lexical or syntactic error, with 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int
    literal: Optional[Literal] = None


# --- lexer ---------------------------------------------------------------------

# The characters and escapes a plain string may hold, in any number.
_STRING_BODY = (
    r'(?:[^"\\\x00-\x1f]|\\(?:[%s]|x%s%s))*'
    % (re.escape("".join(SIMPLE_ESCAPES)), HEX_DIGIT, HEX_DIGIT)
)

# A comment, string or hex string that does not close fails its own
# alternative and matches this instead, running to the end of the source: so a
# failed scan is never retried at a later position, and only the last piece
# can be unclosed.
_UNCLOSED = r'(?:/\*|hex"|")(?s:.*)'
# One alternative per piece class, tried in this order at each position; none
# matches the empty string.  _UNCLOSED comes before words, so the word `hex`
# never runs into a quote.
_ALTERNATIVES = (
    r"[ \t\r\n]+",
    r"[{}(),.]|->|:=",
    f'hex"(?:{HEX_DIGIT}{HEX_DIGIT})*"',
    f'"{_STRING_BODY}"',
    r"//[^\n]*",
    r"/\*(?s:.*?)\*/",
    _UNCLOSED,
    IDENT_PATTERN,
    f"0x{HEX_DIGIT}+",
    f"(?!0[0-9x]){DEC_PATTERN}",
)
_PIECE = re.compile("|".join(_ALTERNATIVES))
_WELL_FORMED = re.compile("|".join(a for a in _ALTERNATIVES if a != _UNCLOSED))

_TRIVIA_START = frozenset(" \t\r\n/")
_IDENT_START = frozenset(string.ascii_letters + "_$")
_DIGITS = frozenset(string.digits)
_SYMBOLS = frozenset("{ } ( ) , . -> :=".split())

_STRING_BODY_RE = re.compile(_STRING_BODY)
_HEX_RUN = re.compile(HEX_DIGIT + "*")
_DIGIT_RUN = re.compile(DEC_PATTERN)
_STRING_ELEMENT = re.compile(r"\\x(..)|\\(.)|(.)")


def _kind(text: str) -> str:
    """The class of a token, from its text alone."""
    if text in KEYWORDS:
        return KEYWORD
    if text in _SYMBOLS:
        return SYMBOL
    return IDENT if _is_name(text) else LITERAL


def _is_name(text: str) -> bool:
    """Whether a token text (or the empty end-of-input text) is an identifier."""
    return text[:1] in _IDENT_START and text[-1] != '"' and text not in KEYWORDS


def _literal(text: str) -> Literal:
    """The literal node a literal token's text denotes; the lexer has checked
    its digits."""
    if text[0] == '"':
        return PlainString(
            tuple(
                HexEscape(hex_digits) if hex_digits else SimpleEscape(code) if code else RawChar(char)
                for hex_digits, code, char in _STRING_ELEMENT.findall(text, 1, len(text) - 1)
            )
        )
    if text[0] == "h":
        return lexed_literal(HexString, text[4:-1])
    if text[:2] == "0x":
        return lexed_literal(HexNumber, text[2:])
    return lexed_literal(DecNumber, text)


def _describe(text: str) -> str:
    """A token for an error message; the empty text is the end of input."""
    if not text:
        return "end of input"
    if _kind(text) == LITERAL:
        return f"literal {text}"
    return f"'{text}'"


def _line_column(source: str, offset: int) -> Tuple[int, int]:
    """The 1-based line and column of an offset."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _diagnose(source: str, pos: int) -> Tuple[str, int]:
    """Why no token starts at `pos`: the message and the offset it names."""
    if source.startswith("/*", pos):
        return "unterminated block comment", pos
    if source.startswith('hex"', pos):
        end = _HEX_RUN.match(source, pos + 4).end()
        if end == len(source):
            return "unterminated hex string literal", pos
        if source[end] != '"':
            return f"bad hex string digit {source[end]!r}", end
        return "odd number of digits in hex string", pos
    c = source[pos]
    if c == '"':
        end = _STRING_BODY_RE.match(source, pos + 1).end()
        stop = source[end : end + 1]
        if stop in ("", "\n", "\r"):
            return "unterminated string literal", pos
        if stop != "\\":
            return "control character in string literal", end
        escape = source[end + 1 : end + 2]
        if escape == "x":
            return "'\\x' needs two hex digits", end
        if escape == "u":
            return "'\\u' escapes are not implemented", end
        return f"unknown escape '\\{escape}'", end
    if c == "-":
        return "expected '->'", pos
    if c == ":":
        return "expected ':=' (declared names take no type annotation)", pos
    if source.startswith("0x", pos):
        return "'0x' needs at least one hex digit", pos
    digits = _DIGIT_RUN.match(source, pos)
    if digits:
        return f"leading zeros in decimal numeral {digits.group()}", pos
    return f"illegal character {c!r}", pos


def _lex_error(source: str) -> ParseError:
    """The error for a source whose pieces leave a gap or do not close: the
    first gap, or else the unclosed last piece, diagnosed."""
    pos = 0
    for m in _PIECE.finditer(source):
        if m.start() != pos:
            break
        if m.end() == len(source):
            break  # the unclosed last piece
        pos = m.end()
    message, offset = _diagnose(source, pos)
    return ParseError(message, *_line_column(source, offset))


class Tokens(Sequence):
    """The tokens of a source text: their texts, in order, and their offsets,
    found again from the source on first use.  As a sequence its items are
    `Token`s, made on demand, with line and column looked up in a table of
    line starts built on first use."""

    __slots__ = ("source", "texts", "_offsets", "_line_starts")

    def __init__(self, source: str, texts: List[str]):
        self.source = source
        self.texts = texts
        self._offsets: Optional[List[int]] = None
        self._line_starts: Optional[List[int]] = None

    @property
    def offsets(self) -> List[int]:
        if self._offsets is None:
            pieces = _PIECE.findall(self.source)
            starts = accumulate(map(len, pieces), initial=0)
            self._offsets = [start for piece, start in zip(pieces, starts) if piece[0] not in _TRIVIA_START]
        return self._offsets

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        text = self.texts[i]
        line, column = self.position(i % len(self.texts))
        kind = _kind(text)
        return Token(kind, text, line, column, _literal(text) if kind == LITERAL else None)

    def __eq__(self, other) -> bool:
        if isinstance(other, Tokens):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def position(self, i: int) -> Tuple[int, int]:
        """The 1-based line and column of token `i`; past the last token, the
        last token's (1:1 if there is none)."""
        offsets = self.offsets
        if not offsets:
            return 1, 1
        offset = offsets[min(i, len(offsets) - 1)]
        if self._line_starts is None:
            self._line_starts = [0] + [m.end() for m in re.finditer("\n", self.source)]
        line = bisect_right(self._line_starts, offset)
        return line, offset - self._line_starts[line - 1] + 1


def lex(source: str) -> Tokens:
    """Split source text into tokens (maximal munch, comments dropped)."""
    pieces = _PIECE.findall(source)
    if sum(map(len, pieces)) != len(source) or (pieces and not _WELL_FORMED.fullmatch(pieces[-1])):
        raise _lex_error(source)
    return Tokens(source, [piece for piece in pieces if piece[0] not in _TRIVIA_START])


# --- parser --------------------------------------------------------------------

# What may follow a call argument.
_ARGUMENT_END = frozenset((",", ")"))


class _Parser:
    """Recursive descent over the token texts of one program, by index.  The
    texts end in two empty ones, so end of input is a token that matches
    nothing the grammar asks for, and one token past any token can be read.
    Tokens are tested by text alone: symbol, keyword, identifier and literal
    texts never coincide.  Equal names are one `Identifier`, and a name used
    as a single-part path is one `Path`, each made once per parse; every
    other node is made for its position."""

    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.texts = tokens.texts + ["", ""]
        self.pos = 0
        self.depth = 0
        self.names: Dict[str, Identifier] = {}
        self.paths: Dict[str, Path] = {}

    # token plumbing

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise self.error(f"expected '{text}'")
        self.pos += 1

    def name(self, what: str = "identifier") -> Identifier:
        text = self.texts[self.pos]
        ident = self.names.get(text)
        if ident is None:
            if not _is_name(text):
                raise self.error(f"expected {what}")
            ident = self.names[text] = Identifier(text)
        self.pos += 1
        return ident

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        """`message` about token `at` (by default the current one), at its
        position."""
        i = self.pos if at is None else at
        return ParseError(f"{message}, found {_describe(self.texts[i])}", *self.tokens.position(i))

    def enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", *self.tokens.position(self.pos))

    # grammar

    def block(self) -> Block:
        self.enter()
        self.expect("{")
        stmts: List[Statement] = []
        texts = self.texts
        while texts[self.pos] not in ("}", ""):
            stmts.append(self.statement())
        self.expect("}")
        self.depth -= 1
        return Block(tuple(stmts))

    def statement(self) -> Statement:
        text = self.texts[self.pos]
        if text == "{":
            return BlockStmt(self.block())
        if text == "let":
            return self._let()
        if text == "function":
            return self._fundef()
        if text == "if":
            self.pos += 1
            return If(self.expression(), self.block())
        if text == "switch":
            return self._switch()
        if text == "for":
            self.pos += 1
            return For(self.block(), self.expression(), self.block(), self.block())
        if text == "break":
            self.pos += 1
            return Break()
        if text == "continue":
            self.pos += 1
            return Continue()
        if text == "leave":
            self.pos += 1
            return Leave()
        if _is_name(text):
            return self._call_or_assignment()
        raise self.error("expected statement")

    def _names(self, what: str) -> List[Identifier]:
        """One or more comma-separated names."""
        names = [self.name(what)]
        while self.at(","):
            self.pos += 1
            names.append(self.name(what))
        return names

    def _distinct(self, names: List[Identifier], first: int, message: str) -> None:
        """Refuse the first name that repeats an earlier one, at its second
        token from index `first`; `message` formats the name."""
        seen = set()
        for n in names:
            if n.text in seen:
                at = self.texts.index(n.text, self.texts.index(n.text, first) + 1)
                raise self.error(message.format(n.text), at)
            seen.add(n.text)

    def _let(self) -> Statement:
        self.expect("let")
        first = self.pos
        names = self._names("variable name")
        init: Optional[Expression] = None
        if self.at(":="):
            self.pos += 1
            init_at = self.pos
            init = self.expression()
        if len(names) == 1:
            return VariableSingle(names[0], init)
        self._distinct(names, first, "name {} repeated in declaration")
        if init is None:
            return VariableMulti(tuple(names), None)
        if not isinstance(init, FunCallExpr):
            raise self.error(
                "multi-variable declaration needs a function call initializer", init_at
            )
        return VariableMulti(tuple(names), init.call)

    def _fundef(self) -> Statement:
        self.expect("function")
        name = self.name("function name")
        self.expect("(")
        first = self.pos
        inputs = [] if self.at(")") else self._names("parameter name")
        self.expect(")")
        outputs: List[Identifier] = []
        if self.at("->"):
            self.pos += 1
            outputs = self._names("result name")
        self._distinct(inputs + outputs, first, "repeated parameter {} in function " + name.text)
        body = self.block()
        return FunDefStmt(FunDef(name, tuple(inputs), tuple(outputs), body))

    def _switch(self) -> Statement:
        self.expect("switch")
        target = self.expression()
        cases: List[SwCase] = []
        while self.at("case"):
            self.pos += 1
            value = self._literal("case value")
            cases.append(SwCase(value, self.block()))
        default: Optional[Block] = None
        if self.at("default"):
            self.pos += 1
            default = self.block()
        if not cases and default is None:
            raise self.error("switch needs at least one case or a default")
        return Switch(target, tuple(cases), default)

    def _call_or_assignment(self) -> Statement:
        start = self.pos
        first = self._path()
        if self.at("("):
            return FunCallStmt(self._call_args(first, start))
        targets = [first]
        while self.at(","):
            self.pos += 1
            targets.append(self._path())
        self.expect(":=")
        value_at = self.pos
        value = self.expression()
        if len(targets) == 1:
            return AssignSingle(targets[0], value)
        if not isinstance(value, FunCallExpr):
            raise self.error("multi-assignment needs a function call on the right", value_at)
        return AssignMulti(tuple(targets), value.call)

    def expression(self) -> Expression:
        self.enter()
        text = self.texts[self.pos]
        if _is_name(text):
            start = self.pos
            path = self._path()
            if self.at("("):
                expr: Expression = FunCallExpr(self._call_args(path, start))
            else:
                expr = PathExpr(path)
        else:
            expr = LiteralExpr(self._literal("expression"))
        self.depth -= 1
        return expr

    def _call_args(self, name: Path, start: int) -> FunCall:
        """The call of the function `name`, whose path starts at token
        `start`; the caller saw the "(" after it."""
        if len(name.parts) != 1:
            raise self.error(f"function name {name} must be a single identifier", start)
        self.pos += 1
        args: List[Expression] = []
        if not self.at(")"):
            args.append(self._argument())
            while self.at(","):
                self.pos += 1
                args.append(self._argument())
        self.expect(")")
        return FunCall(name.parts[0], tuple(args))

    def _argument(self) -> Expression:
        """A call argument.  One that is a name already used as a path, or a
        numeral, below the nesting cap, is made here without a call to
        `expression`."""
        text = self.texts[self.pos]
        if self.texts[self.pos + 1] in _ARGUMENT_END and self.depth < MAX_NESTING:
            if text in self.paths:
                self.pos += 1
                return PathExpr(self.paths[text])
            if text[:1] in _DIGITS:
                self.pos += 1
                return LiteralExpr(_literal(text))
        return self.expression()

    def _path(self) -> Path:
        """A path; a single-part one is shared by every use of its name."""
        if self.texts[self.pos + 1] != ".":
            text = self.texts[self.pos]
            path = self.paths.get(text)
            if path is None:
                path = self.paths[text] = Path((self.name(),))
            else:
                self.pos += 1
            return path
        parts = [self.name()]
        while self.at("."):
            self.pos += 1
            parts.append(self.name())
        return Path(tuple(parts))

    def _literal(self, what: str) -> Literal:
        text = self.texts[self.pos]
        if text == "true":
            lit: Literal = TrueLit()
        elif text == "false":
            lit = FalseLit()
        elif text and _kind(text) == LITERAL:
            lit = _literal(text)
        else:
            raise self.error(f"expected {what}")
        self.pos += 1
        return lit

    def expect_end(self) -> None:
        if self.texts[self.pos]:
            raise ParseError(
                f"trailing input: {_describe(self.texts[self.pos])}",
                *self.tokens.position(self.pos),
            )


def parse_program(source: str) -> Block:
    """Parse a whole program: one top-level block and nothing after it."""
    ensure_recursion_headroom()  # admits nesting up to MAX_NESTING
    parser = _Parser(lex(source))
    block = parser.block()
    parser.expect_end()
    return block
