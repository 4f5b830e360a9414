"""Lexer and recursive-descent parser for Yul source text.

The accepted grammar is the untyped one: no type annotations after declared
names (a colon is a parse error), string literals keep their escapes, and
`hex"..."` literals are recognized.  Dotted names lex as identifier/dot/
identifier and parse into multi-part paths; the static checker rejects them
later.  Nesting is capped at 1024 for stack safety.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ._stack import ensure_recursion_headroom
from .ast import (
    AssignMulti,
    AssignSingle,
    Block,
    BlockStmt,
    Break,
    Continue,
    DecNumber,
    Expression,
    FalseLit,
    For,
    FunCall,
    FunCallExpr,
    FunCallStmt,
    FunDef,
    FunDefStmt,
    HexEscape,
    HexNumber,
    HexString,
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
    StrElement,
    SwCase,
    Switch,
    TrueLit,
    VariableMulti,
    VariableSingle,
    to_source,
)

MAX_NESTING = 1024

KEYWORD = "keyword"
IDENT = "ident"
LITERAL = "literal"
SYMBOL = "symbol"

_SYMBOLS = ("{", "}", "(", ")", ",", "->", ":=", ".")

_IDENT_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_DIGITS = frozenset("0123456789")


class ParseError(Exception):
    """Lexical or syntactic error, with 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int
    literal: Optional[Literal] = None

    def describe(self) -> str:
        if self.kind == LITERAL:
            return f"literal {self.text}"
        return f"'{self.text}'"


# --- lexer ---------------------------------------------------------------------

class _Lexer:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str, line: int = None, col: int = None) -> ParseError:
        return ParseError(
            message,
            self.line if line is None else line,
            self.col if col is None else col,
        )

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.src[i] if i < len(self.src) else ""

    def advance(self) -> str:
        c = self.src[self.pos]
        self.pos += 1
        if c == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return c

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.src):
                return out
            out.append(self._token())

    def _skip_trivia(self) -> None:
        while self.pos < len(self.src):
            c = self.peek()
            if c in " \t\r\n":
                self.advance()
            elif c == "/" and self.peek(1) == "/":
                while self.pos < len(self.src) and self.peek() != "\n":
                    self.advance()
            elif c == "/" and self.peek(1) == "*":
                line, col = self.line, self.col
                self.advance()
                self.advance()
                while True:
                    if self.pos >= len(self.src):
                        raise self.error("unterminated block comment", line, col)
                    if self.peek() == "*" and self.peek(1) == "/":
                        self.advance()
                        self.advance()
                        break
                    self.advance()
            else:
                return

    def _token(self) -> Token:
        line, col = self.line, self.col
        c = self.peek()
        if c in _IDENT_START:
            return self._word(line, col)
        if c in _DIGITS:
            return self._number(line, col)
        if c == '"':
            return self._string(line, col)
        if c == "-" :
            self.advance()
            if self.peek() == ">":
                self.advance()
                return Token(SYMBOL, "->", line, col)
            raise self.error("expected '->'", line, col)
        if c == ":":
            self.advance()
            if self.peek() == "=":
                self.advance()
                return Token(SYMBOL, ":=", line, col)
            raise self.error(
                "expected ':=' (declared names take no type annotation)", line, col
            )
        if c in "{}(),.":
            self.advance()
            return Token(SYMBOL, c, line, col)
        raise self.error(f"illegal character {c!r}", line, col)

    def _word(self, line: int, col: int) -> Token:
        start = self.pos
        while self.pos < len(self.src) and self.peek() in _IDENT_CONT:
            self.advance()
        text = self.src[start : self.pos]
        if text == "hex" and self.peek() == '"':
            return self._hex_string(line, col)
        if text in KEYWORDS:
            return Token(KEYWORD, text, line, col)
        return Token(IDENT, text, line, col)

    def _number(self, line: int, col: int) -> Token:
        start = self.pos
        if self.peek() == "0" and self.peek(1) == "x":
            self.advance()
            self.advance()
            dstart = self.pos
            while self.pos < len(self.src) and self.peek() in _HEX_DIGITS:
                self.advance()
            digits = self.src[dstart : self.pos]
            if not digits:
                raise self.error("'0x' needs at least one hex digit", line, col)
            text = self.src[start : self.pos]
            return Token(LITERAL, text, line, col, literal=HexNumber(digits))
        while self.pos < len(self.src) and self.peek() in _DIGITS:
            self.advance()
        digits = self.src[start : self.pos]
        if len(digits) > 1 and digits[0] == "0":
            raise self.error(f"leading zeros in decimal numeral {digits}", line, col)
        return Token(LITERAL, digits, line, col, literal=DecNumber(digits))

    def _string(self, line: int, col: int) -> Token:
        self.advance()  # opening quote
        elements: List[StrElement] = []
        while True:
            if self.pos >= len(self.src):
                raise self.error("unterminated string literal", line, col)
            c = self.peek()
            if c == '"':
                self.advance()
                break
            if c in "\n\r":
                raise self.error("unterminated string literal", line, col)
            if c == "\\":
                eline, ecol = self.line, self.col
                self.advance()
                e = self.peek()
                if e == "x":
                    self.advance()
                    digits = self.peek() + self.peek(1)
                    if len(digits) != 2 or any(d not in _HEX_DIGITS for d in digits):
                        raise self.error("'\\x' needs two hex digits", eline, ecol)
                    self.advance()
                    self.advance()
                    elements.append(HexEscape(digits))
                elif e == "u":
                    raise self.error(
                        "'\\u' escapes are not implemented", eline, ecol
                    )
                elif e in SIMPLE_ESCAPES:
                    self.advance()
                    elements.append(SimpleEscape(e))
                else:
                    raise self.error(f"unknown escape '\\{e}'", eline, ecol)
            else:
                if ord(c) < 0x20:
                    raise self.error("control character in string literal")
                self.advance()
                elements.append(RawChar(c))
        lit = PlainString(tuple(elements))
        return Token(LITERAL, to_source(lit), line, col, literal=lit)

    def _hex_string(self, line: int, col: int) -> Token:
        self.advance()  # opening quote
        dstart = self.pos
        while True:
            if self.pos >= len(self.src):
                raise self.error("unterminated hex string literal", line, col)
            c = self.peek()
            if c == '"':
                digits = self.src[dstart : self.pos]
                self.advance()
                break
            if c not in _HEX_DIGITS:
                raise self.error(f"bad hex string digit {c!r}")
            self.advance()
        if len(digits) % 2 != 0:
            raise self.error("odd number of digits in hex string", line, col)
        return Token(LITERAL, f'hex"{digits}"', line, col, literal=HexString(digits))


def lex(source: str) -> List[Token]:
    """Split source text into tokens (maximal munch, comments dropped)."""
    return _Lexer(source).tokens()


# --- parser --------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # token plumbing

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        self.pos += 1
        return tok

    def at_symbol(self, sym: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == SYMBOL and tok.text == sym

    def at_keyword(self, kw: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == KEYWORD and tok.text == kw

    def expect_symbol(self, sym: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != SYMBOL or tok.text != sym:
            raise self.error(f"expected '{sym}'", tok)
        return self.next()

    def expect_keyword(self, kw: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != KEYWORD or tok.text != kw:
            raise self.error(f"expected '{kw}'", tok)
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Identifier:
        tok = self.peek()
        if tok is None or tok.kind != IDENT:
            raise self.error(f"expected {what}", tok)
        self.next()
        return Identifier(tok.text)

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        if tok is None:
            tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            if last is None:
                return ParseError(message + ", found end of input", 1, 1)
            return ParseError(
                message + ", found end of input", last.line, last.column
            )
        return ParseError(f"{message}, found {tok.describe()}", tok.line, tok.column)

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.peek()
            line = tok.line if tok else 0
            col = tok.column if tok else 0
            raise ParseError(f"nesting deeper than {MAX_NESTING}", line, col)

    def _leave(self) -> None:
        self.depth -= 1

    # grammar

    def block(self) -> Block:
        self._enter()
        self.expect_symbol("{")
        stmts: List[Statement] = []
        while not self.at_symbol("}"):
            if self.peek() is None:
                raise self.error("expected '}'")
            stmts.append(self.statement())
        self.expect_symbol("}")
        self._leave()
        return Block(tuple(stmts))

    def statement(self) -> Statement:
        tok = self.peek()
        if tok is None:
            raise self.error("expected statement")
        if tok.kind == SYMBOL and tok.text == "{":
            return BlockStmt(self.block())
        if tok.kind == KEYWORD:
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
            raise self.error("expected statement", tok)
        if tok.kind == IDENT:
            return self._call_or_assignment()
        raise self.error("expected statement", tok)

    def _let(self) -> Statement:
        self.expect_keyword("let")
        names = [self.expect_ident("variable name")]
        while self.at_symbol(","):
            self.next()
            names.append(self.expect_ident("variable name"))
        init: Optional[Expression] = None
        if self.at_symbol(":="):
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
        self.expect_keyword("function")
        name = self.expect_ident("function name")
        self.expect_symbol("(")
        inputs: List[Identifier] = []
        if not self.at_symbol(")"):
            inputs.append(self.expect_ident("parameter name"))
            while self.at_symbol(","):
                self.next()
                inputs.append(self.expect_ident("parameter name"))
        self.expect_symbol(")")
        outputs: List[Identifier] = []
        if self.at_symbol("->"):
            self.next()
            outputs.append(self.expect_ident("result name"))
            while self.at_symbol(","):
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
        self.expect_keyword("switch")
        target = self.expression()
        cases: List[SwCase] = []
        while self.at_keyword("case"):
            self.next()
            value = self._literal("case value")
            cases.append(SwCase(value, self.block()))
        default: Optional[Block] = None
        if self.at_keyword("default"):
            self.next()
            default = self.block()
        if not cases and default is None:
            raise self.error("switch needs at least one case or a default")
        return Switch(target, tuple(cases), default)

    def _call_or_assignment(self) -> Statement:
        first = self._path()
        if self.at_symbol("("):
            if len(first.parts) != 1:
                raise self.error("function name must be a single identifier")
            return FunCallStmt(self._call_args(first.parts[0]))
        targets = [first]
        while self.at_symbol(","):
            self.next()
            targets.append(self._path())
        self.expect_symbol(":=")
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
            if tok is None:
                raise self.error("expected expression")
            if tok.kind == LITERAL:
                self.next()
                return LiteralExpr(tok.literal)
            if tok.kind == KEYWORD and tok.text == "true":
                self.next()
                return LiteralExpr(TrueLit())
            if tok.kind == KEYWORD and tok.text == "false":
                self.next()
                return LiteralExpr(FalseLit())
            if tok.kind == IDENT:
                path = self._path()
                if self.at_symbol("("):
                    if len(path.parts) != 1:
                        raise self.error("function name must be a single identifier")
                    return FunCallExpr(self._call_args(path.parts[0]))
                return PathExpr(path)
            raise self.error("expected expression", tok)
        finally:
            self._leave()

    def _call_args(self, name: Identifier) -> FunCall:
        self.expect_symbol("(")
        args: List[Expression] = []
        if not self.at_symbol(")"):
            args.append(self.expression())
            while self.at_symbol(","):
                self.next()
                args.append(self.expression())
        self.expect_symbol(")")
        return FunCall(name, tuple(args))

    def _path(self) -> Path:
        parts = [self.expect_ident()]
        while self.at_symbol("."):
            self.next()
            parts.append(self.expect_ident())
        return Path(tuple(parts))

    def _literal(self, what: str) -> Literal:
        tok = self.peek()
        if tok is not None and tok.kind == LITERAL:
            self.next()
            return tok.literal
        if tok is not None and tok.kind == KEYWORD and tok.text in ("true", "false"):
            self.next()
            return TrueLit() if tok.text == "true" else FalseLit()
        raise self.error(f"expected {what}", tok)

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
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

