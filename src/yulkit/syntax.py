"""Lexer and recursive-descent parser for Yul source text.

The accepted grammar is the untyped one: no type annotations after declared
names (a colon is a parse error), string literals keep their escapes, and
`hex"..."` literals are recognized.  Dotted names lex as identifier/dot/
identifier and parse into multi-part paths; the static checker rejects them
later.  Nesting is capped at 1024 for stack safety.

The lexer is one compiled pattern with an alternative per token class
(trivia, hex string, word, hex numeral, decimal numeral, string, symbol),
built from the lexical classes `ast` validates with.  Line and column are
advanced only past trivia that holds a newline.  Where no alternative
matches, or the word `hex` runs into a quote, `_diagnose` names the fault and
its position.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple

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
)

MAX_NESTING = 1024

KEYWORD = "keyword"
IDENT = "ident"
LITERAL = "literal"
SYMBOL = "symbol"
END = "end"  # the parser's end-of-input sentinel; `lex` never makes one


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

    def describe(self) -> str:
        if self.kind == LITERAL:
            return f"literal {self.text}"
        if self.kind == END:
            return "end of input"
        return f"'{self.text}'"


# --- lexer ---------------------------------------------------------------------

# The characters and escapes a plain string may hold, in any number.
_STRING_BODY = (
    r'(?:[^"\\\x00-\x1f]|\\(?:[%s]|x%s%s))*'
    % (re.escape("".join(SIMPLE_ESCAPES)), HEX_DIGIT, HEX_DIGIT)
)

# One alternative per token class, tried in this order at each position.
_TOKEN = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("trivia", r"(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)+"),
            ("hexstr", f'hex"(?:{HEX_DIGIT}{HEX_DIGIT})*"'),
            ("word", IDENT_PATTERN),
            ("hexnum", f"0x{HEX_DIGIT}+"),
            ("dec", f"(?!0[0-9x]){DEC_PATTERN}"),
            ("string", f'"{_STRING_BODY}"'),
            ("symbol", r"[{}(),.]|->|:="),
        )
    )
)
_STRING_BODY_RE = re.compile(_STRING_BODY)
_HEX_RUN = re.compile(HEX_DIGIT + "*")
_DIGIT_RUN = re.compile(DEC_PATTERN)
_STRING_ELEMENT = re.compile(r"\\x(..)|\\(.)|(.)")


def _plain_string(text: str) -> PlainString:
    return PlainString(
        tuple(
            HexEscape(hex_digits) if hex_digits else SimpleEscape(code) if code else RawChar(char)
            for hex_digits, code, char in _STRING_ELEMENT.findall(text, 1, len(text) - 1)
        )
    )


_LITERALS = {
    "hexstr": lambda text: HexString(text[4:-1]),
    "hexnum": lambda text: HexNumber(text[2:]),
    "dec": DecNumber,
    "string": _plain_string,
}


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


def lex(source: str) -> List[Token]:
    """Split source text into tokens (maximal munch, comments dropped)."""
    tokens: List[Token] = []
    line, line_start, pos = 1, 0, 0
    match = _TOKEN.match  # anchored: a search could rescan an unclosed comment
    while pos < len(source):
        m = match(source, pos)
        if m is None:
            break
        start, kind, text = pos, m.lastgroup, m.group()
        pos = m.end()
        if kind == "trivia":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
        elif kind == "word":
            if text == "hex" and source.startswith('"', pos):
                pos = start  # a malformed hex string
                break
            kind = KEYWORD if text in KEYWORDS else IDENT
            tokens.append(Token(kind, text, line, start - line_start + 1))
        elif kind == "symbol":
            tokens.append(Token(SYMBOL, text, line, start - line_start + 1))
        else:
            literal = _LITERALS[kind](text)
            tokens.append(Token(LITERAL, text, line, start - line_start + 1, literal))
    if pos < len(source):
        # Every offset a diagnosis names lies on the line where `pos` is.
        message, offset = _diagnose(source, pos)
        raise ParseError(message, line, offset - line_start + 1)
    return tokens


# --- parser --------------------------------------------------------------------

class _Parser:
    """Recursive descent over the tokens of one program.  The token list ends
    in a sentinel with empty text at the last token's position (or at 1:1),
    so end of input is one more token that matches nothing the grammar asks
    for.  Tokens are tested by text alone: symbol, keyword, identifier and
    literal texts never coincide."""

    def __init__(self, tokens: List[Token]):
        line, column = (tokens[-1].line, tokens[-1].column) if tokens else (1, 1)
        self.tokens = tokens + [Token(END, "", line, column)]
        self.pos = 0
        self.depth = 0

    # token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise self.error(f"expected '{text}'")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Identifier:
        if self.peek().kind != IDENT:
            raise self.error(f"expected {what}")
        return Identifier(self.next().text)

    def error(self, message: str) -> ParseError:
        """`message` about the current token, at its position."""
        tok = self.peek()
        return ParseError(f"{message}, found {tok.describe()}", tok.line, tok.column)

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.peek()
            raise ParseError(f"nesting deeper than {MAX_NESTING}", tok.line, tok.column)

    def _leave(self) -> None:
        self.depth -= 1

    # grammar

    def block(self) -> Block:
        self._enter()
        self.expect("{")
        stmts: List[Statement] = []
        while not self.at("}") and not self.at(""):
            stmts.append(self.statement())
        self.expect("}")
        self._leave()
        return Block(tuple(stmts))

    def statement(self) -> Statement:
        tok = self.peek()
        if tok.text == "{":
            return BlockStmt(self.block())
        if tok.text == "let":
            return self._let()
        if tok.text == "function":
            return self._fundef()
        if tok.text == "if":
            self.next()
            return If(self.expression(), self.block())
        if tok.text == "switch":
            return self._switch()
        if tok.text == "for":
            self.next()
            return For(self.block(), self.expression(), self.block(), self.block())
        if tok.text == "break":
            self.next()
            return Break()
        if tok.text == "continue":
            self.next()
            return Continue()
        if tok.text == "leave":
            self.next()
            return Leave()
        if tok.kind == IDENT:
            return self._call_or_assignment()
        raise self.error("expected statement")

    def _let(self) -> Statement:
        self.expect("let")
        names = [self.expect_ident("variable name")]
        while self.at(","):
            self.next()
            names.append(self.expect_ident("variable name"))
        init: Optional[Expression] = None
        if self.at(":="):
            self.next()
            init = self.expression()
        if len(names) == 1:
            return VariableSingle(names[0], init)
        for i, n in enumerate(names):
            if any(m.text == n.text for m in names[:i]):
                raise self.error(f"name {n.text} repeated in declaration")
        if init is None:
            return VariableMulti(tuple(names), None)
        if not isinstance(init, FunCallExpr):
            raise self.error(
                "multi-variable declaration needs a function call initializer"
            )
        return VariableMulti(tuple(names), init.call)

    def _fundef(self) -> Statement:
        self.expect("function")
        name = self.expect_ident("function name")
        self.expect("(")
        inputs: List[Identifier] = []
        if not self.at(")"):
            inputs.append(self.expect_ident("parameter name"))
            while self.at(","):
                self.next()
                inputs.append(self.expect_ident("parameter name"))
        self.expect(")")
        outputs: List[Identifier] = []
        if self.at("->"):
            self.next()
            outputs.append(self.expect_ident("result name"))
            while self.at(","):
                self.next()
                outputs.append(self.expect_ident("result name"))
        seen = set()
        for n in inputs + outputs:
            if n.text in seen:
                raise self.error(f"repeated parameter {n.text} in function {name.text}")
            seen.add(n.text)
        body = self.block()
        return FunDefStmt(FunDef(name, tuple(inputs), tuple(outputs), body))

    def _switch(self) -> Statement:
        self.expect("switch")
        target = self.expression()
        cases: List[SwCase] = []
        while self.at("case"):
            self.next()
            value = self._literal("case value")
            cases.append(SwCase(value, self.block()))
        default: Optional[Block] = None
        if self.at("default"):
            self.next()
            default = self.block()
        if not cases and default is None:
            raise self.error("switch needs at least one case or a default")
        return Switch(target, tuple(cases), default)

    def _call_or_assignment(self) -> Statement:
        first = self._path()
        if self.at("("):
            if len(first.parts) != 1:
                raise self.error("function name must be a single identifier")
            return FunCallStmt(self._call_args(first.parts[0]))
        targets = [first]
        while self.at(","):
            self.next()
            targets.append(self._path())
        self.expect(":=")
        value = self.expression()
        if len(targets) == 1:
            return AssignSingle(targets[0], value)
        if not isinstance(value, FunCallExpr):
            raise self.error("multi-assignment needs a function call on the right")
        return AssignMulti(tuple(targets), value.call)

    def expression(self) -> Expression:
        self._enter()
        try:
            tok = self.peek()
            if tok.kind == LITERAL or tok.text in ("true", "false"):
                return LiteralExpr(self._literal("literal"))
            if tok.kind == IDENT:
                path = self._path()
                if self.at("("):
                    if len(path.parts) != 1:
                        raise self.error("function name must be a single identifier")
                    return FunCallExpr(self._call_args(path.parts[0]))
                return PathExpr(path)
            raise self.error("expected expression")
        finally:
            self._leave()

    def _call_args(self, name: Identifier) -> FunCall:
        self.expect("(")
        args: List[Expression] = []
        if not self.at(")"):
            args.append(self.expression())
            while self.at(","):
                self.next()
                args.append(self.expression())
        self.expect(")")
        return FunCall(name, tuple(args))

    def _path(self) -> Path:
        parts = [self.expect_ident()]
        while self.at("."):
            self.next()
            parts.append(self.expect_ident())
        return Path(tuple(parts))

    def _literal(self, what: str) -> Literal:
        tok = self.peek()
        if tok.kind == LITERAL:
            self.next()
            return tok.literal
        if tok.text in ("true", "false"):
            self.next()
            return TrueLit() if tok.text == "true" else FalseLit()
        raise self.error(f"expected {what}")

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != END:
            raise ParseError(
                f"trailing input: {tok.describe()}", tok.line, tok.column
            )


def parse_program(source: str) -> Block:
    """Parse a whole program: one top-level block and nothing after it."""
    ensure_recursion_headroom()  # admits nesting up to MAX_NESTING
    parser = _Parser(lex(source))
    block = parser.block()
    parser.expect_end()
    return block

