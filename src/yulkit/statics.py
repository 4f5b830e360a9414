"""Static safety checking for Yul.

A statement is safe when every referenced name resolves, every call has the
right arity and result count, literals fit the 256-bit value type, and
break/continue/leave appear only where an enclosing construct absorbs them.
The checker computes, per statement, the set of variables visible after it and
the set of modes in which it can terminate (regular, break, continue, leave);
mode sets are over-approximations, so statements that can never complete
regularly still contribute their modes even when unreachable.

Scoping rules: a variable is visible from just after its declaration to the
end of the enclosing block (for-loop initializers extend to the whole loop);
a function is visible in the whole block where it is defined, including before
the definition; variable accessibility stops at function boundaries, function
accessibility does not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

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
    HexNumber,
    HexString,
    If,
    Leave,
    Literal,
    LiteralExpr,
    Path,
    PathExpr,
    PlainString,
    RawChar,
    Statement,
    Switch,
    TrueLit,
    VariableMulti,
    VariableSingle,
    hoisted_fundefs,
    literal_value,
)

# A variable table is a set of names; a function table maps a name to its
# (inputs, outputs) arity pair.
VarTable = FrozenSet[str]
FunTable = Mapping[str, Tuple[int, int]]


class Mode(enum.Enum):
    """The four ways a statement can terminate."""

    REGULAR = "regular"
    BREAK = "break"
    CONTINUE = "continue"
    LEAVE = "leave"

    # By identity, in C: Enum's own hash is a Python call, made for every
    # mode set operation.  Mode sets are printed sorted, so their order is
    # not observable.
    __hash__ = object.__hash__


REGULAR_ONLY: FrozenSet[Mode] = frozenset({Mode.REGULAR})
_REGULAR_OR_LEAVE: FrozenSet[Mode] = frozenset({Mode.REGULAR, Mode.LEAVE})
_BREAK_ONLY: FrozenSet[Mode] = frozenset({Mode.BREAK})
_CONTINUE_ONLY: FrozenSet[Mode] = frozenset({Mode.CONTINUE})
_LEAVE_ONLY: FrozenSet[Mode] = frozenset({Mode.LEAVE})


class ErrorKind(enum.Enum):
    UNKNOWN_VAR = "unknown-var"
    UNKNOWN_FUN = "unknown-fun"
    DUPLICATE_VAR = "duplicate-var"
    DUPLICATE_FUN = "duplicate-fun"
    ARITY_MISMATCH = "arity-mismatch"
    RESULT_COUNT_MISMATCH = "result-count-mismatch"
    LITERAL_TOO_LARGE = "literal-too-large"
    STRING_TOO_LONG = "string-too-long"
    BAD_PATH = "bad-path"
    MODE_VIOLATION = "mode-violation"
    DUPLICATE_CASE = "duplicate-case"
    NON_SINGLE_VALUE = "non-single-value"


class StaticError(Exception):
    """Raised when a safety check fails."""

    def __init__(self, kind: ErrorKind, context: str):
        super().__init__(f"{kind.value}: {context}")
        self.kind = kind
        self.context = context


@dataclass(frozen=True, slots=True)
class VarsModes:
    """Result of checking a statement: variables visible afterwards, and the
    possible termination modes."""

    vars: VarTable
    modes: FrozenSet[Mode]


@dataclass
class Judgments:
    """Every judgment of one checker pass, filled by check_safe_top when
    given one as `judged`.  Statements and expressions are
    keyed by (id(node), variables before it), valid while the tree lives.  A
    node's positions with equal variables get equal judgments (a VarsModes
    depends only on those; every expression in a statement has one value);
    a block keeps each function table it was checked under."""

    statements: Dict[Tuple[int, VarTable], VarsModes] = field(default_factory=dict)
    expressions: Dict[Tuple[int, VarTable], int] = field(default_factory=dict)
    blocks: Dict[int, List[FunTable]] = field(default_factory=dict)


# --- literals ---------------------------------------------------------------
#
# The bound checks work on digit counts and byte counts, without constructing
# the value: CPython refuses to convert a decimal numeral of more than 4300
# digits, and a checker must reject such a literal, not fail on it.
# dynamics.eval_literal refuses exactly the literals this check refuses.

_DEC_LIMIT = str(1 << 256)  # 78 digits; a numeral is safe iff below this


def check_safe_literal(lit: Literal) -> None:
    """Check that a literal denotes a value below 2^256 (strings: at most 32
    bytes)."""
    if isinstance(lit, (TrueLit, FalseLit)):
        return
    if isinstance(lit, DecNumber):
        d = lit.digits
        if len(d) > len(_DEC_LIMIT) or (len(d) == len(_DEC_LIMIT) and d >= _DEC_LIMIT):
            raise StaticError(ErrorKind.LITERAL_TOO_LARGE, f"decimal numeral {d}")
        return
    if isinstance(lit, HexNumber):
        if len(lit.digits.lstrip("0")) > 64:
            raise StaticError(ErrorKind.LITERAL_TOO_LARGE, f"hex numeral 0x{lit.digits}")
        return
    if isinstance(lit, PlainString):
        nbytes = 0
        for el in lit.elements:
            nbytes += len(el.char.encode("utf-8")) if isinstance(el, RawChar) else 1
        if nbytes > 32:
            raise StaticError(ErrorKind.STRING_TOO_LONG, f"string literal is {nbytes} bytes")
        return
    if isinstance(lit, HexString):
        nbytes = len(lit.digits) // 2
        if nbytes > 32:
            raise StaticError(ErrorKind.STRING_TOO_LONG, f"hex string is {nbytes} bytes")
        return
    raise TypeError(f"not a literal: {type(lit).__name__}")


# --- expressions ------------------------------------------------------------

def _check_path(path: Path, vars: VarTable) -> str:
    if len(path.parts) != 1:
        raise StaticError(ErrorKind.BAD_PATH, f"multi-part path {path}")
    name = path.parts[0].text
    if name not in vars:
        raise StaticError(ErrorKind.UNKNOWN_VAR, name)
    return name


def _expression(expr: Expression, vars: VarTable, funs: FunTable, judged: Optional[Judgments]) -> int:
    """Check an expression; return the number of values it yields."""
    kind = type(expr)
    if kind is PathExpr:
        _check_path(expr.path, vars)
        count = 1
    elif kind is LiteralExpr:
        check_safe_literal(expr.literal)
        count = 1
    elif kind is FunCallExpr:
        count = _funcall(expr.call, vars, funs, judged)
    else:
        raise TypeError(f"not an expression: {kind.__name__}")
    if judged is not None:
        judged.expressions[id(expr), vars] = count
    return count


def _funcall(call: FunCall, vars: VarTable, funs: FunTable, judged: Optional[Judgments]) -> int:
    """Check a function call; return its result count.  An argument that is
    a variable in scope is checked here, without a call."""
    name = call.name.text
    if name not in funs:
        raise StaticError(ErrorKind.UNKNOWN_FUN, name)
    n_in, n_out = funs[name]
    if len(call.args) != n_in:
        raise StaticError(
            ErrorKind.ARITY_MISMATCH,
            f"{name} takes {n_in} argument(s), got {len(call.args)}",
        )
    for arg in call.args:
        if type(arg) is PathExpr and arg.path.parts[0].text in vars and len(arg.path.parts) == 1:
            if judged is not None:
                judged.expressions[id(arg), vars] = 1
        elif _expression(arg, vars, funs, judged) != 1:
            raise StaticError(ErrorKind.NON_SINGLE_VALUE, f"argument of {name}")
    return n_out


# --- statements and blocks ----------------------------------------------------
#
# The walk below passes a statement's judgment as a (variables, modes) pair
# and makes a VarsModes only where one is recorded or returned.  A statement
# that can only complete regularly has the mode set REGULAR_ONLY itself, so
# that a statement list can tell it by identity.

def _check_single_value(
    expr: Expression, vars: VarTable, funs: FunTable, judged: Optional[Judgments], what: str
) -> None:
    if _expression(expr, vars, funs, judged) != 1:
        raise StaticError(ErrorKind.NON_SINGLE_VALUE, what)


def _declare(vars: VarTable, name: str) -> VarTable:
    if name in vars:
        raise StaticError(ErrorKind.DUPLICATE_VAR, name)
    return vars | {name}


def _extend_funtable(funs: FunTable, fundefs: Iterable[FunDef]) -> FunTable:
    """`funs` with the given definitions added; `funs` itself when there are
    none, so nested blocks without definitions share one table."""
    table: Optional[Dict[str, Tuple[int, int]]] = None
    for fd in fundefs:
        if table is None:
            table = dict(funs)
        name = fd.name.text
        if name in table:
            raise StaticError(ErrorKind.DUPLICATE_FUN, name)
        table[name] = (len(fd.inputs), len(fd.outputs))
    return funs if table is None else table


def _with_regular(modes: FrozenSet[Mode]) -> FrozenSet[Mode]:
    """`modes` and the regular mode; REGULAR_ONLY itself if that is all."""
    return REGULAR_ONLY if modes <= REGULAR_ONLY else modes | REGULAR_ONLY


def _statement(
    stmt: Statement, vars: VarTable, funs: FunTable, judged: Optional[Judgments]
) -> Tuple[VarTable, FrozenSet[Mode]]:
    """check_safe_statement on a frozen variable set, as a pair."""
    kind = type(stmt)
    out = vars
    modes = REGULAR_ONLY
    if kind is BlockStmt:
        modes = _block(stmt.block, vars, funs, judged)
    elif kind is VariableSingle:
        if stmt.init is not None:
            _check_single_value(stmt.init, vars, funs, judged, f"initializer of {stmt.name.text}")
        out = _declare(vars, stmt.name.text)
    elif kind is VariableMulti:
        if stmt.init is not None:
            got = _funcall(stmt.init, vars, funs, judged)
            if got != len(stmt.names):
                raise StaticError(
                    ErrorKind.RESULT_COUNT_MISMATCH,
                    f"declaring {len(stmt.names)} variables from {got} result(s)",
                )
        for name in stmt.names:
            out = _declare(out, name.text)
    elif kind is AssignSingle:
        _check_path(stmt.target, vars)
        _check_single_value(stmt.value, vars, funs, judged, f"value assigned to {stmt.target}")
    elif kind is AssignMulti:
        seen = set()
        for target in stmt.targets:
            name = _check_path(target, vars)
            if name in seen:
                raise StaticError(ErrorKind.DUPLICATE_VAR, f"assignment target {name}")
            seen.add(name)
        got = _funcall(stmt.value, vars, funs, judged)
        if got != len(stmt.targets):
            raise StaticError(
                ErrorKind.RESULT_COUNT_MISMATCH,
                f"assigning {len(stmt.targets)} targets from {got} result(s)",
            )
    elif kind is FunCallStmt:
        got = _funcall(stmt.call, vars, funs, judged)
        if got != 0:
            raise StaticError(
                ErrorKind.RESULT_COUNT_MISMATCH,
                f"call statement discards {got} result(s) of {stmt.call.name.text}",
            )
    elif kind is If:
        _check_single_value(stmt.test, vars, funs, judged, "if condition")
        modes = _with_regular(_block(stmt.body, vars, funs, judged))
    elif kind is Switch:
        _check_single_value(stmt.target, vars, funs, judged, "switch target")
        if not stmt.cases and stmt.default is None:
            raise StaticError(ErrorKind.MODE_VIOLATION, "switch with no cases and no default")
        seen_values = set()
        modes = frozenset()
        for case in stmt.cases:
            check_safe_literal(case.value)
            key = literal_value(case.value)
            if key in seen_values:
                raise StaticError(ErrorKind.DUPLICATE_CASE, f"case value {key}")
            seen_values.add(key)
            modes |= _block(case.body, vars, funs, judged)
        if stmt.default is not None:
            modes |= _block(stmt.default, vars, funs, judged)
        else:
            modes = _with_regular(modes)
    elif kind is For:
        # Declarations and definitions in the init block scope over the whole
        # loop; its functions are hoisted before its statements are checked.
        loop_funs = _extend_funtable(funs, hoisted_fundefs(stmt.init))
        init_vars, init_modes = _statement_list(stmt.init.statements, vars, loop_funs, judged)
        if not init_modes <= _REGULAR_OR_LEAVE:
            raise StaticError(ErrorKind.MODE_VIOLATION, "break/continue in loop initializer")
        _check_single_value(stmt.test, init_vars, loop_funs, judged, "loop condition")
        body_modes = _block(stmt.body, init_vars, loop_funs, judged)
        update_modes = _block(stmt.update, init_vars, loop_funs, judged)
        if not update_modes <= _REGULAR_OR_LEAVE:
            raise StaticError(ErrorKind.MODE_VIOLATION, "break/continue in loop update")
        if Mode.LEAVE in init_modes or Mode.LEAVE in body_modes or Mode.LEAVE in update_modes:
            modes = _REGULAR_OR_LEAVE
    elif kind is Break:
        modes = _BREAK_ONLY
    elif kind is Continue:
        modes = _CONTINUE_ONLY
    elif kind is Leave:
        modes = _LEAVE_ONLY
    elif kind is FunDefStmt:
        fd = stmt.fundef
        # Accessibility of variables stops at the function boundary: the body
        # sees only the inputs and outputs.  Functions stay accessible.
        fvars = frozenset(p.text for p in fd.inputs + fd.outputs)
        body_modes = _block(fd.body, fvars, funs, judged)
        if not body_modes <= _REGULAR_OR_LEAVE:
            raise StaticError(
                ErrorKind.MODE_VIOLATION, f"break/continue escapes function {fd.name.text}"
            )
    else:
        raise TypeError(f"not a statement: {kind.__name__}")
    if judged is not None:
        judged.statements[id(stmt), vars] = VarsModes(out, modes)
    return out, modes


def _statement_list(
    stmts: Iterable[Statement], vars: VarTable, funs: FunTable, judged: Optional[Judgments]
) -> Tuple[VarTable, FrozenSet[Mode]]:
    """check_safe_statement_list on a frozen variable set, as a pair."""
    nonregular: FrozenSet[Mode] = frozenset()
    all_regular = True
    for stmt in stmts:
        vars, modes = _statement(stmt, vars, funs, judged)
        if modes is not REGULAR_ONLY:
            nonregular |= modes - REGULAR_ONLY
            if Mode.REGULAR not in modes:
                all_regular = False
    return vars, _with_regular(nonregular) if all_regular else nonregular


def _block(
    block: Block, vars: VarTable, funs: FunTable, judged: Optional[Judgments]
) -> FrozenSet[Mode]:
    """check_safe_block on a frozen variable set."""
    inner_funs = _extend_funtable(funs, hoisted_fundefs(block))
    if judged is not None:
        tables = judged.blocks.setdefault(id(block), [])
        if inner_funs not in tables:
            tables.append(inner_funs)
    return _statement_list(block.statements, vars, inner_funs, judged)[1]


def check_safe_expression(expr: Expression, vars: VarTable, funs: FunTable) -> int:
    """Check an expression; return the number of values it yields."""
    ensure_recursion_headroom()
    return _expression(expr, vars, funs, None)


def check_safe_statement(stmt: Statement, vars: VarTable, funs: FunTable) -> VarsModes:
    """Check one statement.  `funs` must already contain the functions hoisted
    from the enclosing block.  Returns the variables visible after the
    statement and its possible termination modes."""
    ensure_recursion_headroom()
    return VarsModes(*_statement(stmt, frozenset(vars), funs, None))


def check_safe_statement_list(stmts: Iterable[Statement], vars: VarTable, funs: FunTable) -> VarsModes:
    """Check statements left to right, threading the variable table.  The mode
    set collects every non-regular mode any statement can produce, plus
    regular iff every statement can complete regularly (dead statements after
    a terminator are checked and still contribute)."""
    ensure_recursion_headroom()
    return VarsModes(*_statement_list(stmts, frozenset(vars), funs, None))


def check_safe_block(block: Block, vars: VarTable, funs: FunTable) -> FrozenSet[Mode]:
    """Check a block; return its possible termination modes.  Local names do
    not escape."""
    ensure_recursion_headroom()
    return _block(block, frozenset(vars), funs, None)


def check_safe_top(block: Block, dialect_funs: FunTable, judged: Optional[Judgments] = None) -> None:
    """Check a whole program: no visible variables, the dialect's builtins as
    the initial function table, and regular termination only.  `judged`, if
    given, receives the judgment of every position in the program."""
    ensure_recursion_headroom()
    modes = _block(block, frozenset(), dialect_funs, judged)
    if modes != REGULAR_ONLY:
        stray = sorted(m.value for m in modes - {Mode.REGULAR}) or ["none"]
        raise StaticError(
            ErrorKind.MODE_VIOLATION,
            f"top-level block may terminate with mode(s): {', '.join(stray)}",
        )


def fun_table_of(block: Block) -> Dict[str, Tuple[int, int]]:
    """Arity table of the block's hoisted function definitions."""
    return _extend_funtable({}, hoisted_fundefs(block))
