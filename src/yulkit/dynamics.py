"""Defensive big-step interpreter for Yul.

Execution is exact on the abstract syntax: the interpreter re-checks at
runtime everything the static checker guarantees (unknown names, arities,
result counts, stray break/continue/leave), so it can run arbitrary trees and
is usable as the oracle side of differential tests.  Values are 256-bit
unsigned integers held as Python ints.

Termination is forced by an explicit fuel counter, decremented once at entry
to each exec operation (including once per loop iteration and once per
executed statement of a list); exhaustion raises LimitError, which is disjoint
from all safety errors.  For a fixed program and inputs the fuel spent is a
constant of this implementation, so transformed and original programs can be
compared at identical fuel.  Should the host's recursion depth run out first,
`exec_top` raises HostLimitError instead: more fuel cannot settle that run.

A `for` loop whose local state at the loop head repeats a state it already had
at its head can never exit, so it is reported as LimitError at once instead
of running its remaining iterations until the fuel is gone.  Since builtins
are pure and execution is deterministic, this changes no result and no
minimal successful fuel: with less fuel such a loop could only have stopped
sooner, with LimitError as well.

The function environment is a stack of scopes pushed at block entry; calling a
function trims the stack down to the scope that defines it, which is what
limits the accessibility of function names at runtime.  Local state is one
flat map because scopes cannot shadow variables and each call starts fresh.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

from ._stack import (  # noqa: F401  (call_with_deep_stack re-exported: execution plumbing)
    call_with_deep_stack,
    ensure_recursion_headroom,
)
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
    Identifier,
    If,
    Leave,
    Literal,
    LiteralExpr,
    PathExpr,
    PlainString,
    Statement,
    Switch,
    TrueLit,
    VariableMulti,
    VariableSingle,
    hoisted_fundefs,
    string_bytes,
)
from .statics import ErrorKind, Mode

MASK = (1 << 256) - 1
DEFAULT_FUEL = 1 << 20


# The static error kinds, under the same names and values, plus the modes
# escaping to places that cannot absorb them, which only a run can show.
SafetyKind = enum.Enum(
    "SafetyKind",
    [(kind.name, kind.value) for kind in ErrorKind] + [
        ("BREAK_OUTSIDE_LOOP", "break-outside-loop"),
        ("CONTINUE_OUTSIDE_LOOP", "continue-outside-loop"),
        ("LEAVE_OUTSIDE_FUNCTION", "leave-outside-function"),
        ("FUNCTION_MODE_ERROR", "function-mode-error"),
    ],
    module=__name__,
)


class EvalError(Exception):
    """Base of the interpreter's error values."""


class LimitError(EvalError):
    """Fuel ran out.  Carries no payload; disjoint from safety errors."""

    def __init__(self) -> None:
        super().__init__("limit exhausted")


class HostLimitError(EvalError):
    """The host's recursion depth ran out before the fuel did.  Unlike
    LimitError, more fuel cannot settle it: the outcome is undecided."""

    def __init__(self) -> None:
        super().__init__("host recursion limit exhausted")


class SafetyError(EvalError):
    """A defensive check failed: the program is unsafe at this point."""

    def __init__(self, kind: SafetyKind, context: str):
        super().__init__(f"{kind.value}: {context}")
        self.kind = kind
        self.context = context


# --- dynamic state -------------------------------------------------------------

@dataclass(frozen=True)
class CState:
    """Computation state: the local variables.  Treat as immutable; updates
    return new states."""

    local: Mapping[str, int]

    def vars(self) -> FrozenSet[str]:
        # memoized: states never change after construction
        cached = self.__dict__.get("_vars")
        if cached is None:
            cached = frozenset(self.local)
            object.__setattr__(self, "_vars", cached)
        return cached

    def read(self, name: str) -> int:
        if name not in self.local:
            raise SafetyError(SafetyKind.UNKNOWN_VAR, name)
        return self.local[name]

    def assign(self, name: str, value: int) -> "CState":
        if name not in self.local:
            raise SafetyError(SafetyKind.UNKNOWN_VAR, name)
        return CState({**self.local, name: value})

    def declare(self, name: str, value: int) -> "CState":
        if name in self.local:
            raise SafetyError(SafetyKind.DUPLICATE_VAR, name)
        return CState({**self.local, name: value})

    def restrict(self, names: FrozenSet[str]) -> "CState":
        return CState({k: v for k, v in self.local.items() if k in names})


@dataclass(frozen=True)
class FunInfo:
    """What the environment records about one function."""

    inputs: Tuple[Identifier, ...]
    outputs: Tuple[Identifier, ...]
    body: Block

    @classmethod
    def from_fundef(cls, fd: FunDef) -> "FunInfo":
        return cls(fd.inputs, fd.outputs, fd.body)


# A function environment is a stack of scopes, innermost last.
FunEnv = Tuple[Mapping[str, FunInfo], ...]


@dataclass(frozen=True)
class EOutcome:
    cstate: CState
    values: Tuple[int, ...]


@dataclass(frozen=True)
class SOutcome:
    cstate: CState
    mode: Mode


class Tracer:
    """Hooks for instrumented runs; all no-ops by default.  Hooks fire only on
    successful sub-executions (errors propagate as exceptions).  A tracer
    receives every statement and expression that is actually executed; the
    iterations a repeating loop skips (see the module docstring) are never
    executed, so they are never reported.  A tracer must not change the run."""

    def on_block_entry(self, block: Block, funenv: FunEnv) -> None:
        pass

    def on_statement(self, stmt: Statement, cstate: CState, funenv: FunEnv, outcome: SOutcome) -> None:
        pass

    def on_expression(self, expr: Expression, cstate: CState, funenv: FunEnv, outcome: EOutcome) -> None:
        pass


# --- dialects ------------------------------------------------------------------

@dataclass(frozen=True)
class Builtin:
    """A built-in function.  `fn` must be a pure function of its arguments:
    the interpreter relies on that to end loops whose state repeats."""

    n_inputs: int
    n_outputs: int
    fn: Callable[[Tuple[int, ...]], Tuple[int, ...]]


@dataclass(frozen=True)
class Dialect:
    """The built-in functions available to a program.  Every builtin must be
    pure (see Builtin)."""

    builtins: Mapping[str, Builtin]

    def funtable(self) -> Dict[str, Tuple[int, int]]:
        return {name: (b.n_inputs, b.n_outputs) for name, b in self.builtins.items()}


def _bin(f: Callable[[int, int], int]) -> Builtin:
    return Builtin(2, 1, lambda a: (f(a[0], a[1]),))


def _un(f: Callable[[int], int]) -> Builtin:
    return Builtin(1, 1, lambda a: (f(a[0]),))


# Pure arithmetic/comparison/bitwise builtins of the EVM dialect; everything
# touching global state (memory, storage, calls, context) is out of scope.
# div/mod by zero yield 0; shifts use the first operand as the shift amount.
EVM_PURE = Dialect(
    builtins={
        "add": _bin(lambda x, y: (x + y) & MASK),
        "sub": _bin(lambda x, y: (x - y) & MASK),
        "mul": _bin(lambda x, y: (x * y) & MASK),
        "div": _bin(lambda x, y: x // y if y else 0),
        "mod": _bin(lambda x, y: x % y if y else 0),
        "lt": _bin(lambda x, y: int(x < y)),
        "gt": _bin(lambda x, y: int(x > y)),
        "eq": _bin(lambda x, y: int(x == y)),
        "and": _bin(lambda x, y: x & y),
        "or": _bin(lambda x, y: x | y),
        "xor": _bin(lambda x, y: x ^ y),
        "shl": _bin(lambda s, v: (v << s) & MASK if s < 256 else 0),
        "shr": _bin(lambda s, v: v >> s if s < 256 else 0),
        "iszero": _un(lambda x: int(x == 0)),
        "not": _un(lambda x: x ^ MASK),
    }
)

EMPTY_DIALECT = Dialect(builtins={})

DIALECTS: Dict[str, Dialect] = {"evm-pure": EVM_PURE, "none": EMPTY_DIALECT}


# --- literals --------------------------------------------------------------------

def eval_literal(lit: Literal) -> int:
    """The value a literal denotes.  Strings become their byte sequence read
    as a big-endian base-256 number."""
    if isinstance(lit, TrueLit):
        return 1
    if isinstance(lit, FalseLit):
        return 0
    if isinstance(lit, DecNumber):
        value = int(lit.digits)
        if value > MASK:
            raise SafetyError(SafetyKind.LITERAL_TOO_LARGE, f"decimal numeral {lit.digits}")
        return value
    if isinstance(lit, HexNumber):
        value = int(lit.digits, 16)
        if value > MASK:
            raise SafetyError(SafetyKind.LITERAL_TOO_LARGE, f"hex numeral 0x{lit.digits}")
        return value
    if isinstance(lit, (PlainString, HexString)):
        data = string_bytes(lit)
        if len(data) > 32:
            raise SafetyError(SafetyKind.STRING_TOO_LONG, f"string of {len(data)} bytes")
        return int.from_bytes(data, "big")
    raise TypeError(f"not a literal: {type(lit).__name__}")


# --- environment helpers -----------------------------------------------------------

def extend_funenv(funenv: FunEnv, fundefs: Iterable[FunDef]) -> FunEnv:
    """Push a new scope holding the given definitions.  A name already visible
    in any scope (or repeated among the definitions) is an error."""
    scope: Dict[str, FunInfo] = {}
    for fd in fundefs:
        name = fd.name.text
        if name in scope or any(name in s for s in funenv):
            raise SafetyError(SafetyKind.DUPLICATE_FUN, name)
        scope[name] = FunInfo.from_fundef(fd)
    return funenv + (scope,)


def find_fun(funenv: FunEnv, name: str) -> Tuple[FunInfo, FunEnv]:
    """Look a function up from the innermost scope outwards; return its info
    and the environment trimmed so its defining scope is on top."""
    for i in range(len(funenv) - 1, -1, -1):
        if name in funenv[i]:
            return funenv[i][name], funenv[: i + 1]
    raise SafetyError(SafetyKind.UNKNOWN_FUN, name)


def cstate_to_vars(cstate: CState) -> FrozenSet[str]:
    """Abstraction to the static world: the variable table of a state."""
    return cstate.vars()


def funenv_to_funtable(funenv: FunEnv) -> Dict[str, Tuple[int, int]]:
    """Abstraction to the static world: merge the scopes into one arity table,
    inner scopes winning."""
    table: Dict[str, Tuple[int, int]] = {}
    for scope in funenv:
        for name, info in scope.items():
            table[name] = (len(info.inputs), len(info.outputs))
    return table


# --- execution ------------------------------------------------------------------
#
# Every exec_* operation checks fuel on entry and passes limit-1 to each
# sub-execution; statement lists and loop iterations consume fuel positionally
# (one unit per statement executed / per iteration), matching the recursive
# formulation they replace.  The iterative shape keeps the Python stack
# proportional to syntactic nesting and call depth rather than program length.

def exec_expression(
    expr: Expression,
    cstate: CState,
    funenv: FunEnv,
    dialect: Dialect,
    limit: int,
    tracer: Optional[Tracer] = None,
) -> EOutcome:
    if limit <= 0:
        raise LimitError()
    # The expression union is closed, so exact-type dispatch is sound (and
    # measurably faster than isinstance on this hot path).
    kind = type(expr)
    if kind is PathExpr:
        if len(expr.path.parts) != 1:
            raise SafetyError(SafetyKind.BAD_PATH, f"multi-part path {expr.path}")
        value = cstate.read(expr.path.parts[0].text)
        outcome = EOutcome(cstate, (value,))
    elif kind is LiteralExpr:
        value = eval_literal(expr.literal)
        outcome = EOutcome(cstate, (value,))
    elif kind is FunCallExpr:
        outcome = exec_funcall(expr.call, cstate, funenv, dialect, limit - 1, tracer)
    else:
        raise TypeError(f"not an expression: {type(expr).__name__}")
    if tracer is not None:
        tracer.on_expression(expr, cstate, funenv, outcome)
    return outcome


def exec_funcall(
    call: FunCall,
    cstate: CState,
    funenv: FunEnv,
    dialect: Dialect,
    limit: int,
    tracer: Optional[Tracer] = None,
) -> EOutcome:
    if limit <= 0:
        raise LimitError()
    # Arguments evaluate right to left, each to exactly one value.
    values_rev = []
    for arg in reversed(call.args):
        out = exec_expression(arg, cstate, funenv, dialect, limit - 1, tracer)
        if len(out.values) != 1:
            raise SafetyError(SafetyKind.NON_SINGLE_VALUE, f"argument of {call.name.text}")
        cstate = out.cstate
        values_rev.append(out.values[0])
    args = tuple(reversed(values_rev))

    name = call.name.text
    builtin = dialect.builtins.get(name)
    if builtin is not None:
        if len(args) != builtin.n_inputs:
            raise SafetyError(
                SafetyKind.ARITY_MISMATCH,
                f"{name} takes {builtin.n_inputs} argument(s), got {len(args)}",
            )
        return EOutcome(cstate, tuple(builtin.fn(args)))
    info, trimmed = find_fun(funenv, name)
    results = exec_function(info, args, trimmed, dialect, limit - 1, tracer)
    return EOutcome(cstate, results)


def exec_function(
    info: FunInfo,
    args: Sequence[int],
    funenv: FunEnv,
    dialect: Dialect,
    limit: int,
    tracer: Optional[Tracer] = None,
) -> Tuple[int, ...]:
    """Run a function on argument values in an environment already trimmed to
    its defining scope; return its results."""
    if limit <= 0:
        raise LimitError()
    if len(args) != len(info.inputs):
        raise SafetyError(
            SafetyKind.ARITY_MISMATCH,
            f"function takes {len(info.inputs)} argument(s), got {len(args)}",
        )
    out = exec_block(info.body, _initial_function_state(info, args), funenv, dialect, limit - 1, tracer)
    if out.mode in (Mode.BREAK, Mode.CONTINUE):
        raise SafetyError(
            SafetyKind.FUNCTION_MODE_ERROR, f"function body terminated with {out.mode.value}"
        )
    # Leave counts as regular here; unassigned outputs keep their initial 0.
    return tuple(out.cstate.read(o.text) for o in info.outputs)


def _initial_function_state(info: FunInfo, args: Sequence[int]) -> CState:
    local = {p.text: v for p, v in zip(info.inputs, args)}
    for o in info.outputs:
        local[o.text] = 0
    return CState(local)


def exec_statement(
    stmt: Statement,
    cstate: CState,
    funenv: FunEnv,
    dialect: Dialect,
    limit: int,
    tracer: Optional[Tracer] = None,
) -> SOutcome:
    if limit <= 0:
        raise LimitError()
    cstate_in = cstate

    # Closed union: exact-type dispatch, cheapest cases need no narrowing.
    kind = type(stmt)

    if kind is BlockStmt:
        outcome = exec_block(stmt.block, cstate, funenv, dialect, limit - 1, tracer)

    elif kind is VariableSingle:
        if stmt.init is None:
            value = 0
        else:
            out = exec_expression(stmt.init, cstate, funenv, dialect, limit - 1, tracer)
            if len(out.values) != 1:
                raise SafetyError(
                    SafetyKind.NON_SINGLE_VALUE, f"initializer of {stmt.name.text}"
                )
            cstate, value = out.cstate, out.values[0]
        outcome = SOutcome(cstate.declare(stmt.name.text, value), Mode.REGULAR)

    elif kind is VariableMulti:
        if stmt.init is None:
            values: Tuple[int, ...] = (0,) * len(stmt.names)
        else:
            out = exec_funcall(stmt.init, cstate, funenv, dialect, limit - 1, tracer)
            if len(out.values) != len(stmt.names):
                raise SafetyError(
                    SafetyKind.RESULT_COUNT_MISMATCH,
                    f"declaring {len(stmt.names)} variables from {len(out.values)} result(s)",
                )
            cstate, values = out.cstate, out.values
        for name, value in zip(stmt.names, values):
            cstate = cstate.declare(name.text, value)
        outcome = SOutcome(cstate, Mode.REGULAR)

    elif kind is AssignSingle:
        if len(stmt.target.parts) != 1:
            raise SafetyError(SafetyKind.BAD_PATH, f"multi-part path {stmt.target}")
        out = exec_expression(stmt.value, cstate, funenv, dialect, limit - 1, tracer)
        if len(out.values) != 1:
            raise SafetyError(SafetyKind.NON_SINGLE_VALUE, f"value assigned to {stmt.target}")
        outcome = SOutcome(out.cstate.assign(stmt.target.parts[0].text, out.values[0]), Mode.REGULAR)

    elif kind is AssignMulti:
        for target in stmt.targets:
            if len(target.parts) != 1:
                raise SafetyError(SafetyKind.BAD_PATH, f"multi-part path {target}")
        out = exec_funcall(stmt.value, cstate, funenv, dialect, limit - 1, tracer)
        if len(out.values) != len(stmt.targets):
            raise SafetyError(
                SafetyKind.RESULT_COUNT_MISMATCH,
                f"assigning {len(stmt.targets)} targets from {len(out.values)} result(s)",
            )
        cstate = out.cstate
        for target, value in zip(stmt.targets, out.values):
            cstate = cstate.assign(target.parts[0].text, value)
        outcome = SOutcome(cstate, Mode.REGULAR)

    elif kind is FunCallStmt:
        out = exec_funcall(stmt.call, cstate, funenv, dialect, limit - 1, tracer)
        if out.values:
            raise SafetyError(
                SafetyKind.RESULT_COUNT_MISMATCH,
                f"call statement discards {len(out.values)} result(s) of {stmt.call.name.text}",
            )
        outcome = SOutcome(out.cstate, Mode.REGULAR)

    elif kind is If:
        out = exec_expression(stmt.test, cstate, funenv, dialect, limit - 1, tracer)
        if len(out.values) != 1:
            raise SafetyError(SafetyKind.NON_SINGLE_VALUE, "if condition")
        if out.values[0] != 0:
            outcome = exec_block(stmt.body, out.cstate, funenv, dialect, limit - 1, tracer)
        else:
            outcome = SOutcome(out.cstate, Mode.REGULAR)

    elif kind is Switch:
        out = exec_expression(stmt.target, cstate, funenv, dialect, limit - 1, tracer)
        if len(out.values) != 1:
            raise SafetyError(SafetyKind.NON_SINGLE_VALUE, "switch target")
        cstate, target = out.cstate, out.values[0]
        for case in stmt.cases:
            if eval_literal(case.value) == target:
                outcome = exec_block(case.body, cstate, funenv, dialect, limit - 1, tracer)
                break
        else:
            if stmt.default is not None:
                outcome = exec_block(stmt.default, cstate, funenv, dialect, limit - 1, tracer)
            else:
                outcome = SOutcome(cstate, Mode.REGULAR)

    elif kind is For:
        outcome = _exec_for(stmt, cstate, funenv, dialect, limit, tracer)

    elif kind is Break:
        outcome = SOutcome(cstate, Mode.BREAK)
    elif kind is Continue:
        outcome = SOutcome(cstate, Mode.CONTINUE)
    elif kind is Leave:
        outcome = SOutcome(cstate, Mode.LEAVE)

    elif kind is FunDefStmt:
        # Registration happened when the enclosing block was entered.
        outcome = SOutcome(cstate, Mode.REGULAR)

    else:
        raise TypeError(f"not a statement: {type(stmt).__name__}")

    if tracer is not None:
        tracer.on_statement(stmt, cstate_in, funenv, outcome)
    return outcome


def _exec_for(
    stmt: For,
    cstate: CState,
    funenv: FunEnv,
    dialect: Dialect,
    limit: int,
    tracer: Optional[Tracer],
) -> SOutcome:
    # The caller already spent this statement's fuel unit; init runs at
    # limit-1 and each iteration spends one unit of its own.
    init_funs = hoisted_fundefs(stmt.init)
    loop_env = extend_funenv(funenv, init_funs) if init_funs else funenv
    snapshot = cstate.vars()
    init = exec_statement_list(stmt.init.statements, cstate, loop_env, dialect, limit - 1, tracer)
    if init.mode is Mode.BREAK:
        raise SafetyError(SafetyKind.BREAK_OUTSIDE_LOOP, "break in loop initializer")
    if init.mode is Mode.CONTINUE:
        raise SafetyError(SafetyKind.CONTINUE_OUTSIDE_LOOP, "continue in loop initializer")
    if init.mode is Mode.LEAVE:
        return SOutcome(init.cstate.restrict(snapshot), Mode.LEAVE)

    cstate = init.cstate
    fuel = limit - 1
    # Repeated head states end the loop at once (Brent's cycle detection:
    # compare against a checkpoint moved at powers of two).  Builtins are
    # pure, so an iteration depends only on the head state, the loop
    # environment and the fuel, and fuel only decides whether LimitError
    # interrupts it.  With enough fuel a repeated head state replays the same
    # iterations forever; with less, LimitError is the only possible outcome.
    # So no result and no minimal successful fuel changes; only the exact
    # repeats go unexecuted.
    checkpoint, steps, horizon = None, 0, 1
    while True:
        if fuel <= 0 or cstate.local == checkpoint:
            raise LimitError()
        steps += 1
        if steps == horizon:
            checkpoint, steps, horizon = cstate.local, 0, horizon * 2
        out = exec_expression(stmt.test, cstate, loop_env, dialect, fuel - 1, tracer)
        if len(out.values) != 1:
            raise SafetyError(SafetyKind.NON_SINGLE_VALUE, "loop condition")
        cstate = out.cstate
        if out.values[0] == 0:
            return SOutcome(cstate.restrict(snapshot), Mode.REGULAR)
        body = exec_block(stmt.body, cstate, loop_env, dialect, fuel - 1, tracer)
        cstate = body.cstate
        if body.mode is Mode.BREAK:
            return SOutcome(cstate.restrict(snapshot), Mode.REGULAR)
        if body.mode is Mode.LEAVE:
            return SOutcome(cstate.restrict(snapshot), Mode.LEAVE)
        update = exec_block(stmt.update, cstate, loop_env, dialect, fuel - 1, tracer)
        cstate = update.cstate
        if update.mode is Mode.BREAK:
            raise SafetyError(SafetyKind.BREAK_OUTSIDE_LOOP, "break in loop update")
        if update.mode is Mode.CONTINUE:
            raise SafetyError(SafetyKind.CONTINUE_OUTSIDE_LOOP, "continue in loop update")
        if update.mode is Mode.LEAVE:
            return SOutcome(cstate.restrict(snapshot), Mode.LEAVE)
        fuel -= 1


def exec_statement_list(
    stmts: Sequence[Statement],
    cstate: CState,
    funenv: FunEnv,
    dialect: Dialect,
    limit: int,
    tracer: Optional[Tracer] = None,
) -> SOutcome:
    """Run statements in order, stopping at the first non-regular mode.  One
    fuel unit is spent per executed statement (checked before each), matching
    the one-entry-per-recursive-call discipline."""
    for stmt in stmts:
        if limit <= 0:
            raise LimitError()
        out = exec_statement(stmt, cstate, funenv, dialect, limit - 1, tracer)
        cstate = out.cstate
        if out.mode is not Mode.REGULAR:
            return out
        limit -= 1
    if limit <= 0:
        raise LimitError()
    return SOutcome(cstate, Mode.REGULAR)


def exec_block(
    block: Block,
    cstate: CState,
    funenv: FunEnv,
    dialect: Dialect,
    limit: int,
    tracer: Optional[Tracer] = None,
) -> SOutcome:
    """Run a block: push a scope with its function definitions, run the
    statements, then drop variables declared inside (surviving variables keep
    their updated values)."""
    if limit <= 0:
        raise LimitError()
    # An empty scope adds no visible names, so skip pushing one; this keeps
    # the environment object shared across iterations of fundef-free loops.
    fundefs = hoisted_fundefs(block)
    inner_env = extend_funenv(funenv, fundefs) if fundefs else funenv
    if tracer is not None:
        tracer.on_block_entry(block, inner_env)
    snapshot = cstate.vars()
    out = exec_statement_list(block.statements, cstate, inner_env, dialect, limit - 1, tracer)
    return SOutcome(out.cstate.restrict(snapshot), out.mode)


def exec_top(
    block: Block,
    initial_locals: Union[CState, Mapping[str, int], None] = None,
    dialect: Dialect = EVM_PURE,
    limit: int = DEFAULT_FUEL,
    tracer: Optional[Tracer] = None,
) -> SOutcome:
    """Run a whole program.  Like exec_block with an empty function
    environment, except that the final local map is returned as-is (top-level
    declarations are the program's observable result, so they are not
    restored away).  A non-regular final mode is a safety error.  Python
    recursion exhaustion, should the host stack run out before the fuel does,
    is reported as HostLimitError."""
    ensure_recursion_headroom()
    if isinstance(initial_locals, CState):
        cstate = initial_locals
    else:
        cstate = CState(dict(initial_locals or {}))
    if limit <= 0:
        raise LimitError()
    env = extend_funenv((), hoisted_fundefs(block))
    if tracer is not None:
        tracer.on_block_entry(block, env)
    try:
        out = exec_statement_list(block.statements, cstate, env, dialect, limit - 1, tracer)
    except RecursionError:
        raise HostLimitError() from None
    if out.mode is not Mode.REGULAR:
        raise SafetyError(
            SafetyKind.MODE_VIOLATION, f"program terminated with mode {out.mode.value}"
        )
    return out
