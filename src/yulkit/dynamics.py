"""Defensive big-step interpreter for Yul, compiled to closures.

Execution is exact on the abstract syntax: the interpreter re-checks at
runtime everything the static checker guarantees (unknown names, arities,
result counts, stray break/continue/leave), so it can run arbitrary trees and
is usable as the oracle side of differential tests.  Values are 256-bit
unsigned integers held as Python ints.

Each entry point compiles the node it is given into nested Python closures,
statement by statement as the run first reaches them, and runs those (see
the execution section).  Compiling changes nothing observable: outcomes, error
texts, fuel and tracer events are those of the big-step semantics.

Termination is forced by an explicit fuel counter, decremented once at entry
to each exec operation (including once per loop iteration and once per
executed statement of a list); exhaustion raises LimitError, which is disjoint
from all safety errors.  For a fixed program and inputs the fuel spent is a
constant of this implementation, so transformed and original programs can be
compared at identical fuel.  Should the host's recursion depth run out first,
every entry point raises HostLimitError instead: more fuel cannot settle that
run.

A `for` loop whose local state at the loop head repeats a state it already had
at its head can never exit, so it is reported as LimitError at once instead
of running its remaining iterations until the fuel is gone.  Since builtins
are pure and execution is deterministic, this changes no result and no
minimal successful fuel: with less fuel such a loop could only have stopped
sooner, with LimitError as well.

The function environment is a stack of scopes pushed at block entry; calling a
function trims the stack down to the scope that defines it, which is what
limits the accessibility of function names at runtime.  Local state is one
flat map per function activation because scopes cannot shadow variables and
each call starts fresh.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple, TypeVar

from ._stack import ensure_recursion_headroom
from .ast import (
    AssignMulti,
    AssignSingle,
    Block,
    BlockStmt,
    Break,
    Continue,
    Expression,
    For,
    FunCall,
    FunCallExpr,
    FunCallStmt,
    FunDef,
    FunDefStmt,
    Identifier,
    If,
    Leave,
    Literal,
    LiteralExpr,
    PathExpr,
    Statement,
    Switch,
    VariableMulti,
    VariableSingle,
    hoisted_fundefs,
    literal_value,
    string_bytes,
)
from .statics import ErrorKind, Mode, StaticError, check_safe_literal

MASK = (1 << 256) - 1
DEFAULT_FUEL = 1 << 20
_T = TypeVar("_T")


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
    """Computation state: the local variables.  Treat as immutable: the
    interpreter runs on a map of its own and hands out states only as
    snapshots (to tracers and in outcomes)."""

    local: Mapping[str, int]


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
    """Hooks for instrumented runs; all no-ops by default.  A block's entry
    is reported before its statements run, so also when they then fail; the
    other hooks fire only on successful sub-executions (errors propagate as
    exceptions).  A tracer receives every statement and expression that is
    actually executed; the iterations a repeating loop skips (see the module
    docstring) are never executed, so they are never reported.  A tracer
    must not change the run.

    States reach the hooks as the snapshots the tracer takes itself
    (`snapshots`).  By default these are CState snapshots: while the state
    does not change, the same snapshot object comes again.  A statement
    list snapshots the state before and after each statement; an
    expression, which cannot change its caller's variables, is given the
    last snapshot taken (`cell[0]`), except that a loop condition and
    `exec_expression`'s expression snapshot their state first.

    The compiler asks once per compiled statement and expression for that
    node's event hook (`statement_hook`, `expression_hook`) and calls it on
    every event of the node.  The default hooks report to `on_statement` and
    `on_expression`; a tracer that needs per-node data can override them to
    bind it once."""

    def on_block_entry(self, block: Block, funenv: FunEnv) -> None:
        pass

    def on_statement(self, stmt: Statement, cstate: CState, funenv: FunEnv, outcome: SOutcome) -> None:
        pass

    def on_expression(self, expr: Expression, cstate: CState, funenv: FunEnv, outcome: EOutcome) -> None:
        pass

    def snapshots(self) -> Tuple[Callable[[Dict[str, int]], Any], list, Callable[[], Any]]:
        """How this tracer's states are taken, asked once per compilation.
        Returns `(snap, cell, start)`: `snap(local)` is the snapshot of the
        live variable map `local` that the hooks are given, `cell[0]` holds
        the last snapshot taken (a call puts its caller's back when it
        returns), and each run of a compiled program sets `cell[0] = start()`
        first, so that no snapshot of an earlier run is handed out again.
        `snap` must store what it returns in `cell[0]`: expression events
        are given `cell[0]` without a call to `snap`."""
        last = [CState({})]

        def snap(local: Dict[str, int]) -> CState:
            state = last[0]
            if state.local != local:
                state = last[0] = CState(dict(local))
            return state

        return snap, last, lambda: CState({})

    def statement_hook(self, stmt: Statement, funenv: FunEnv) -> Callable[[Any, Any, Mode], None]:
        """The hook called as `hook(before, after, mode)` each time `stmt`,
        compiled in `funenv`, has run."""
        on_statement = self.on_statement

        def hook(before: CState, after: CState, mode: Mode) -> None:
            on_statement(stmt, before, funenv, SOutcome(after, mode))

        return hook

    def expression_hook(self, expr: Expression, funenv: FunEnv) -> Callable[[Any, Tuple[int, ...]], None]:
        """The hook called as `hook(before, values)` each time `expr`,
        compiled in `funenv`, has given its values."""
        on_expression = self.on_expression

        def hook(before: CState, values: Tuple[int, ...]) -> None:
            on_expression(expr, before, funenv, EOutcome(before, values))

        return hook


# --- dialects ------------------------------------------------------------------

@dataclass(frozen=True)
class Builtin:
    """A built-in function: `fn(*values)` takes its `n_inputs` argument
    values and gives its one result.  `fn` must be a pure function of its
    arguments: the interpreter relies on that to end loops whose state
    repeats."""

    n_inputs: int
    fn: Callable[..., int]


@dataclass(frozen=True)
class Dialect:
    """The built-in functions available to a program.  Every builtin must be
    pure (see Builtin)."""

    builtins: Mapping[str, Builtin]

    def funtable(self) -> Dict[str, Tuple[int, int]]:
        return {name: (b.n_inputs, 1) for name, b in self.builtins.items()}


# Pure arithmetic/comparison/bitwise builtins of the EVM dialect; everything
# touching global state (memory, storage, calls, context) is out of scope.
# div/mod by zero yield 0; shifts use the first operand as the shift amount.
EVM_PURE = Dialect(
    builtins={
        "add": Builtin(2, lambda x, y: (x + y) & MASK),
        "sub": Builtin(2, lambda x, y: (x - y) & MASK),
        "mul": Builtin(2, lambda x, y: (x * y) & MASK),
        "div": Builtin(2, lambda x, y: x // y if y else 0),
        "mod": Builtin(2, lambda x, y: x % y if y else 0),
        "lt": Builtin(2, lambda x, y: int(x < y)),
        "gt": Builtin(2, lambda x, y: int(x > y)),
        "eq": Builtin(2, lambda x, y: int(x == y)),
        "and": Builtin(2, lambda x, y: x & y),
        "or": Builtin(2, lambda x, y: x | y),
        "xor": Builtin(2, lambda x, y: x ^ y),
        "shl": Builtin(2, lambda s, v: (v << s) & MASK if s < 256 else 0),
        "shr": Builtin(2, lambda s, v: v >> s if s < 256 else 0),
        "iszero": Builtin(1, lambda x: int(x == 0)),
        "not": Builtin(1, lambda x: x ^ MASK),
    }
)

EMPTY_DIALECT = Dialect(builtins={})

DIALECTS: Dict[str, Dialect] = {"evm-pure": EVM_PURE, "none": EMPTY_DIALECT}


# --- literals --------------------------------------------------------------------

def eval_literal(lit: Literal) -> int:
    """The value a literal denotes (`ast.literal_value`), refused where
    `statics.check_safe_literal` refuses it: 2^256 or more and, for a string,
    more than 32 bytes."""
    try:
        check_safe_literal(lit)
    except StaticError as exc:
        kind = SafetyKind[exc.kind.name]
        if kind is SafetyKind.STRING_TOO_LONG:
            raise SafetyError(kind, f"string of {len(string_bytes(lit))} bytes") from None
        raise SafetyError(kind, exc.context) from None
    return literal_value(lit)


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
# Each entry point compiles its node, against the function environment it is
# given, into nested closures (Feeley & Lapalme, "Using closures for code
# generation", Computer Languages 1987) and runs them on a copy of the state
# it is given.  Nothing is kept from one entry point call to the next, except
# that `compile_top` hands its compiled program to the caller to run again.
# Within a compilation, blocks and the statements of each list are compiled
# the first time they run (`_Compiler.lazy`), so a run that stops early
# compiles little; a function body is compiled once, however often it is
# called.  Compiling resolves what a walk over the tree would redo at every
# executed node: the node's kind, literal and switch-case values, builtin
# callables, `find_fun` results, each block's function scope and the text of
# every error.  A defect found while compiling is raised when the run reaches
# it, in the order the semantics gives it against LimitError: an unknown
# function after the arguments are evaluated, a duplicate function at block
# entry, a too-large switch case when no earlier case matches.
#
# Depth.  Every statement and every block is a Python frame of its own, and
# so are a call in expression position and the function it runs.  Under a
# tracer the report of a call is one more frame.  A recursive call inside an
# `if` thus takes six frames untraced and seven traced, so the host's
# recursion headroom (15,000 frames) admits about 2,500 nested calls
# untraced and 2,140 traced from the library (README,
# `tests/test_compiled_exec.py`).  Bounding depth by fuel alone is left to an
# explicit frame stack.
#
# Fuel.  Every operation of the big-step semantics (expression, call,
# function, statement, statement list, block) checks its limit on entry and
# passes limit-1 to each sub-execution; a statement list spends one unit per
# statement executed and a loop one per iteration.  The closures make exactly
# these checks, except that checks with nothing observable between them are
# made as one.  A block runs its statement list inline: at the block's limit,
# a statement checks `limit <= 2` for the list's check and its own, and the
# first such check implies the block's own (traced, the block reports its
# entry in between, so it checks first).  The list's check after its last
# statement cannot fail then, so only an empty block's runner makes it.  A
# statement list that is not a block (a loop initializer,
# exec_statement_list, exec_statement) runs on the same runner given one
# unit more.  Protocols, where `mode` is None for regular and a Mode
# otherwise:
#
#   block      run(local, limit) -> mode   limit: exec_block's, unchecked
#   statement  run(local, limit) -> mode   limit: exec_statement's, positive
#   expression ev(local, limit) -> int     limit: exec_expression's, positive
#   call       call(local, limit) -> tuple limit: the call's, unchecked
#
# Untraced, a call in expression position is the expression's closure: it
# gives its one value, or raises if the call gives another number of values.
#
# State.  `local` is one mutable dict per function activation.  A block pops
# the keys declared since its entry on the way out: scopes cannot shadow and
# assignment keeps a key's place, so this is the restriction of the state to
# the variables visible at entry.  Errors abandon the dict.
#
# Tracing.  Under a tracer, blocks report their entry, statement lists each
# statement after it ran and expressions themselves, in the order of the
# semantics, each through the hook the tracer gave for the node when it was
# compiled; states go to the tracer as the snapshots its `snapshots` takes.
# A statement list snaps the state before its first statement and after
# each.  An expression reports the snapshot cell's state, `last[0]`,
# without snapping: evaluating it cannot change its caller's variables, and
# a call puts its caller's snapshot back.  Two places snap first because
# the cell may be stale there: a loop condition, after the body or update
# block popped its declarations, and `exec_expression`'s entry.

_REGULAR, _BREAK, _CONTINUE, _LEAVE = Mode.REGULAR, Mode.BREAK, Mode.CONTINUE, Mode.LEAVE


def _pop_to(local: Dict[str, int], size: int) -> None:
    while len(local) > size:
        local.popitem()


def _nop(local, limit):
    return None


def _constant(mode: Mode):
    return lambda local, limit: mode


def _raise(kind: SafetyKind, context: str):
    """A statement or expression closure that raises at once (its caller has
    made its fuel check)."""

    def run(local, limit):
        raise SafetyError(kind, context)

    return run


class _Compiler:
    """Compiles the nodes of one entry point call for one dialect and tracer."""

    def __init__(self, dialect: Dialect, tracer: Optional[Tracer]):
        self.builtins = dialect.builtins
        self.tracer = tracer
        # the tracer's snapshot function, its cell and the cell's start value
        self.snap = self.last = self.start = None
        if tracer is not None:
            self.snap, self.last, self.start = tracer.snapshots()
        # (id(info), depth of its scope) -> (info, body slot); keeps info alive
        self.bodies: Dict[Tuple[int, int], Tuple[FunInfo, list]] = {}

    # --- blocks ---------------------------------------------------------------

    def lazy(self, compile_node, node, env: FunEnv) -> list:
        """A one-element list holding the node's runner, made by
        `compile_node(node, env)` on its first run; callers run
        `slot[0](local, limit)`.  Blocks and the statements of a list are
        compiled this way, so a run compiles only what it reaches."""

        def first(local, limit):
            slot[0] = run = compile_node(node, env)
            return run(local, limit)

        slot = [first]
        return slot

    def body(self, info: FunInfo, env: FunEnv) -> list:
        key = (id(info), len(env))
        entry = self.bodies.get(key)
        if entry is None:
            entry = self.bodies[key] = (info, self.lazy(self.block, info.body, env))
        return entry[1]

    def block(self, block: Block, env: FunEnv, top: bool = False):
        """The block's runner.  At the top the function scope is pushed even
        if empty and declarations are kept, as exec_top does."""
        fundefs = hoisted_fundefs(block)
        try:
            inner = extend_funenv(env, fundefs) if fundefs or top else env
        except SafetyError as exc:
            return _refuse((), 0, 0, (exc.kind, exc.context))
        declares = not top and any(type(s) in (VariableSingle, VariableMulti) for s in block.statements)
        return self.statements(block.statements, inner, declares, block)

    # --- statements -------------------------------------------------------------

    def statements(
        self, nodes: Sequence[Statement], env: FunEnv, declares: bool = False, block: Optional[Block] = None
    ):
        """A runner for a statement list, with exec_block's fuel: a statement
        list given one unit more.  It pops the variables declared on the way
        out if `declares`.  Under a tracer it reports `block`'s entry, if
        given, and each statement after it ran."""
        slots = [self.lazy(self.statement, node, env) for node in nodes]
        if self.tracer is None:
            return _block(slots, declares)
        hooks = [self.tracer.statement_hook(node, env) for node in nodes]
        return _traced_block(slots, hooks, self.snap, declares, self.tracer.on_block_entry, block, env)

    def statement(self, stmt: Statement, env: FunEnv):
        """The statement's closure (not reporting it to a tracer)."""
        compile_kind = self._STATEMENTS.get(type(stmt))
        if compile_kind is None:
            raise TypeError(f"not a statement: {type(stmt).__name__}")
        return compile_kind(self, stmt, env)

    def _block_stmt(self, stmt: BlockStmt, env: FunEnv):
        slot = self.lazy(self.block, stmt.block, env)
        return lambda local, limit: slot[0](local, limit - 1)

    def _variable_single(self, stmt: VariableSingle, env: FunEnv):
        name = stmt.name.text
        if stmt.init is None:

            def run(local, limit):
                if name in local:
                    raise SafetyError(SafetyKind.DUPLICATE_VAR, name)
                local[name] = 0

            return run
        ev = self.expr(stmt.init, env, f"initializer of {name}")

        def run(local, limit):
            if limit <= 1:
                raise LimitError()
            value = ev(local, limit - 1)
            if name in local:
                raise SafetyError(SafetyKind.DUPLICATE_VAR, name)
            local[name] = value

        return run

    def _variable_multi(self, stmt: VariableMulti, env: FunEnv):
        names = tuple(n.text for n in stmt.names)
        call = None if stmt.init is None else self.call(stmt.init, env)
        count = len(names)

        def run(local, limit):
            if call is None:
                values: Sequence[int] = (0,) * count
            else:
                values = call(local, limit - 1)
                if len(values) != count:
                    raise SafetyError(
                        SafetyKind.RESULT_COUNT_MISMATCH,
                        f"declaring {count} variables from {len(values)} result(s)",
                    )
            for name, value in zip(names, values):
                if name in local:
                    raise SafetyError(SafetyKind.DUPLICATE_VAR, name)
                local[name] = value

        return run

    def _assign_single(self, stmt: AssignSingle, env: FunEnv):
        if len(stmt.target.parts) != 1:
            return _raise(SafetyKind.BAD_PATH, f"multi-part path {stmt.target}")
        name = stmt.target.parts[0].text
        ev = self.expr(stmt.value, env, f"value assigned to {stmt.target}")

        def run(local, limit):
            if limit <= 1:
                raise LimitError()
            value = ev(local, limit - 1)
            if name not in local:
                raise SafetyError(SafetyKind.UNKNOWN_VAR, name)
            local[name] = value

        return run

    def _assign_multi(self, stmt: AssignMulti, env: FunEnv):
        for target in stmt.targets:
            if len(target.parts) != 1:
                return _raise(SafetyKind.BAD_PATH, f"multi-part path {target}")
        names = tuple(t.parts[0].text for t in stmt.targets)
        call = self.call(stmt.value, env)
        count = len(names)

        def run(local, limit):
            values = call(local, limit - 1)
            if len(values) != count:
                raise SafetyError(
                    SafetyKind.RESULT_COUNT_MISMATCH,
                    f"assigning {count} targets from {len(values)} result(s)",
                )
            for name, value in zip(names, values):
                if name not in local:
                    raise SafetyError(SafetyKind.UNKNOWN_VAR, name)
                local[name] = value

        return run

    def _funcall_stmt(self, stmt: FunCallStmt, env: FunEnv):
        call = self.call(stmt.call, env)
        name = stmt.call.name.text

        def run(local, limit):
            values = call(local, limit - 1)
            if values:
                raise SafetyError(
                    SafetyKind.RESULT_COUNT_MISMATCH,
                    f"call statement discards {len(values)} result(s) of {name}",
                )

        return run

    def _if(self, stmt: If, env: FunEnv):
        ev = self.expr(stmt.test, env, "if condition")
        body = self.lazy(self.block, stmt.body, env)

        def run(local, limit):
            if limit <= 1:
                raise LimitError()
            if ev(local, limit - 1):
                return body[0](local, limit - 1)

        return run

    def _switch(self, stmt: Switch, env: FunEnv):
        ev = self.expr(stmt.target, env, "switch target")
        # Cases are tried in order: the first match wins, and a case whose
        # literal is bad fails only when no earlier case matched.
        cases: Dict[int, list] = {}
        failure = None
        for case in stmt.cases:
            try:
                value = eval_literal(case.value)
            except SafetyError as exc:
                failure = (exc.kind, exc.context)
                break
            if value not in cases:
                cases[value] = self.lazy(self.block, case.body, env)
        default = None if stmt.default is None else self.lazy(self.block, stmt.default, env)

        def run(local, limit):
            if limit <= 1:
                raise LimitError()
            body = cases.get(ev(local, limit - 1))
            if body is None:
                if failure is not None:
                    raise SafetyError(*failure)
                if default is None:
                    return None
                body = default
            return body[0](local, limit - 1)

        return run

    def _for(self, stmt: For, env: FunEnv):
        init_funs = hoisted_fundefs(stmt.init)
        try:
            loop_env = extend_funenv(env, init_funs) if init_funs else env
        except SafetyError as exc:
            return _raise(exc.kind, exc.context)
        init = self.statements(stmt.init.statements, loop_env)
        test = self.expr(stmt.test, loop_env, "loop condition")
        if self.snap is not None:
            # The body and the update block pop after their last snapshot.
            test = _snapped(test, self.snap)
        body = self.lazy(self.block, stmt.body, loop_env)
        update = self.lazy(self.block, stmt.update, loop_env)

        def run(local, limit):
            size = len(local)
            # The initializer runs as a statement list, in the loop's
            # environment and without a block of its own; its runner takes a
            # block's fuel, one unit more than the list's `limit - 1`.
            mode = init(local, limit)
            if mode is not None:
                return _left_loop_part(mode, "initializer", local, size)
            # Repeated head states end the loop at once (Brent's cycle
            # detection: compare against a checkpoint moved at powers of two).
            # Builtins are pure, so an iteration depends only on the head
            # state, the loop environment and the fuel, and fuel only decides
            # whether LimitError interrupts it.  With enough fuel a repeated
            # head state replays the same iterations forever; with less,
            # LimitError is the only possible outcome.  So no result and no
            # minimal successful fuel changes; only the exact repeats go
            # unexecuted.  Each iteration spends one unit; the condition, the
            # body and the update each run at the iteration's fuel minus one.
            fuel = limit - 1
            checkpoint, steps, horizon = None, 0, 1
            while True:
                if fuel <= 1 or local == checkpoint:
                    raise LimitError()
                steps += 1
                if steps == horizon:
                    checkpoint, steps, horizon = dict(local), 0, horizon * 2
                if not test(local, fuel - 1):
                    _pop_to(local, size)
                    return None
                mode = body[0](local, fuel - 1)
                if mode is not None and mode is not _CONTINUE:
                    _pop_to(local, size)
                    return None if mode is _BREAK else _LEAVE
                mode = update[0](local, fuel - 1)
                if mode is not None:
                    return _left_loop_part(mode, "update", local, size)
                fuel -= 1

        return run

    _STATEMENTS = {
        BlockStmt: _block_stmt,
        VariableSingle: _variable_single,
        VariableMulti: _variable_multi,
        AssignSingle: _assign_single,
        AssignMulti: _assign_multi,
        FunCallStmt: _funcall_stmt,
        If: _if,
        Switch: _switch,
        For: _for,
        Break: lambda self, stmt, env: _constant(_BREAK),
        Continue: lambda self, stmt, env: _constant(_CONTINUE),
        Leave: lambda self, stmt, env: _constant(_LEAVE),
        # Registration happened when the enclosing block was compiled.
        FunDefStmt: lambda self, stmt, env: _nop,
    }

    # --- expressions --------------------------------------------------------------

    def expr(self, expr: Expression, env: FunEnv, context: str):
        """A closure giving the expression's single value; `context` names the
        place that needs exactly one.  Under a tracer it reports the
        expression before checking the count, as the semantics does."""
        if type(expr) is not FunCallExpr:
            return self._leaf(expr, env)
        if self.tracer is None:
            return self.call(expr.call, env, offset=1, context=context)
        values = self.call(expr.call, env, offset=1)
        return _reported(values, self.tracer.expression_hook(expr, env), self.last, context)

    def values(self, expr: Expression, env: FunEnv):
        """A closure giving the expression's tuple of values, taking
        exec_expression's limit, and reporting it to the tracer if any."""
        if type(expr) is not FunCallExpr:
            leaf = self._leaf(expr, env)
            return lambda local, limit: (leaf(local, limit),)
        run = self.call(expr.call, env, offset=1)
        if self.tracer is None:
            return run
        return _reported(run, self.tracer.expression_hook(expr, env), self.last)

    def _leaf(self, expr: Expression, env: FunEnv):
        """A literal or a variable, reported to the tracer if any."""
        if type(expr) is LiteralExpr:
            try:
                value = eval_literal(expr.literal)
            except SafetyError as exc:
                return _raise(exc.kind, exc.context)
            if self.tracer is None:
                return lambda local, limit: value
            return _traced_literal(value, self.tracer.expression_hook(expr, env), self.last)
        if type(expr) is PathExpr:
            if len(expr.path.parts) != 1:
                return _raise(SafetyKind.BAD_PATH, f"multi-part path {expr.path}")
            name = expr.path.parts[0].text
            if self.tracer is None:
                return _read(name)
            return _traced_read(name, self.tracer.expression_hook(expr, env), self.last)
        raise TypeError(f"not an expression: {type(expr).__name__}")

    def call(self, call: FunCall, env: FunEnv, offset: int = 0, context: Optional[str] = None):
        """A closure giving the call's tuple of results.  It takes the call
        operation's limit (offset 0) or its expression's (offset 1).  Given a
        `context` that needs exactly one value (untraced only), the closure
        gives that value instead."""
        name = call.name.text
        # In evaluation order: right to left.
        arg_context = f"argument of {name}"
        args = tuple([self.expr(a, env, arg_context) for a in reversed(call.args)])
        n = len(args)
        arg_offset = offset + 1  # the arguments run at limit - arg_offset
        builtin = self.builtins.get(name)
        if builtin is not None:
            failure = None
            if n != builtin.n_inputs:
                failure = (SafetyKind.ARITY_MISMATCH, f"{name} takes {builtin.n_inputs} argument(s), got {n}")
        else:
            try:
                info, trimmed = find_fun(env, name)
            except SafetyError:
                failure = (SafetyKind.UNKNOWN_FUN, name)
            else:
                failure = None
                if n != len(info.inputs):
                    failure = (
                        SafetyKind.ARITY_MISMATCH,
                        f"function takes {len(info.inputs)} argument(s), got {n}",
                    )
        # The call checks its limit, then the first argument to run checks
        # for all of them; a function, once found, checks its own.
        found = builtin is None and (failure is None or failure[0] is SafetyKind.ARITY_MISMATCH)
        threshold = arg_offset if n or found else offset
        if failure is not None:
            return _refuse(args, threshold, arg_offset, failure)
        if builtin is None:
            return _function_call(info, self.body(info, trimmed), args, threshold, arg_offset, self.last, context)
        value = _builtin_value(builtin.fn, args, threshold, arg_offset)
        if context is not None:
            return value
        return lambda local, limit: (value(local, limit),)


# Closure factories of the compiler; each closes over exactly what it uses.

def _empty_block(local, limit):
    """The untraced block of no statements: its own check and its empty
    list's, made as one."""
    if limit <= 1:
        raise LimitError()
    return None


def _block(slots: list, declares: bool):
    """An untraced block running its statement list inline: the list's
    checks are made at the block's limit minus one, and the list's first
    check implies the block's own.  It pops its declarations on the way out
    if `declares`.  A list that is not a block runs on it at one unit more."""
    if not slots:
        return _empty_block

    def run(local, limit):
        size = len(local)
        for slot in slots:
            if limit <= 2:
                raise LimitError()
            mode = slot[0](local, limit - 2)
            if mode is not None:
                if declares:
                    _pop_to(local, size)
                return mode
            limit -= 1
        if declares:
            _pop_to(local, size)
        return None

    return run


def _traced_block(slots: list, hooks: list, snap, declares: bool, entry, block: Optional[Block], env: FunEnv):
    """The traced twin of `_block`, reporting `block`'s entry (if given)
    after the block's own check and before the list's, and each statement
    after it ran."""
    if not slots:

        def empty(local, limit):
            if limit <= 0:
                raise LimitError()
            if block is not None:
                entry(block, env)
            if limit <= 1:
                raise LimitError()
            return None

        return empty

    def run(local, limit):
        if limit <= 0:
            raise LimitError()
        if block is not None:
            entry(block, env)
        size = len(local)
        before = None
        for slot, hook in zip(slots, hooks):
            if limit <= 2:
                raise LimitError()
            if before is None:
                before = snap(local)
            mode = slot[0](local, limit - 2)
            # A statement starts in the state the one before it ended in.
            after = snap(local)
            hook(before, after, _REGULAR if mode is None else mode)
            if mode is not None:
                if declares:
                    _pop_to(local, size)
                return mode
            before = after
            limit -= 1
        if declares:
            _pop_to(local, size)
        return None

    return run


def _snapped(ev, snap):
    """The expression closure `ev`, run after a snapshot of its state."""

    def run(local, limit):
        snap(local)
        return ev(local, limit)

    return run


def _left_loop_part(mode: Mode, part: str, local: Dict[str, int], size: int) -> Mode:
    """A loop's initializer or update ended in `mode`, not regular: break and
    continue cannot leave it, leave ends the loop."""
    if mode is _BREAK:
        raise SafetyError(SafetyKind.BREAK_OUTSIDE_LOOP, f"break in loop {part}")
    if mode is _CONTINUE:
        raise SafetyError(SafetyKind.CONTINUE_OUTSIDE_LOOP, f"continue in loop {part}")
    _pop_to(local, size)
    return _LEAVE


def _reported(values, hook, last: list, context: Optional[str] = None):
    """The call's values, reported; given a `context` that needs exactly one
    value, that value, checked after the report."""

    def reported(local, limit):
        before = last[0]
        out = values(local, limit)
        hook(before, out)
        if context is None:
            return out
        if len(out) != 1:
            raise SafetyError(SafetyKind.NON_SINGLE_VALUE, context)
        return out[0]

    return reported


# The traced literal and read repeat the untraced leaves instead of wrapping
# them: a wrapper's extra call per leaf measured slower on the traced
# soundness workload (ROADMAP, direction 7).
def _traced_literal(value: int, hook, last: list):
    values = (value,)

    def literal(local, limit):
        hook(last[0], values)
        return value

    return literal


def _read(name: str):
    def read(local, limit):
        try:
            return local[name]
        except KeyError:
            raise SafetyError(SafetyKind.UNKNOWN_VAR, name) from None

    return read


def _traced_read(name: str, hook, last: list):
    def read(local, limit):
        try:
            found = local[name]
        except KeyError:
            raise SafetyError(SafetyKind.UNKNOWN_VAR, name) from None
        hook(last[0], (found,))
        return found

    return read


def _refuse(args, threshold: int, arg_offset: int, failure):
    def refuse(local, limit):
        if limit <= threshold:
            raise LimitError()
        for arg in args:
            arg(local, limit - arg_offset)
        raise SafetyError(*failure)

    return refuse


def _builtin_value(fn, args, threshold: int, arg_offset: int):
    """The builtin call's one value; `args` are in evaluation order."""
    if len(args) == 1:
        (arg,) = args

        def unary(local, limit):
            if limit <= threshold:
                raise LimitError()
            return fn(arg(local, limit - arg_offset))

        return unary
    if len(args) == 2:
        second, first = args

        def binary(local, limit):
            if limit <= threshold:
                raise LimitError()
            value = second(local, limit - arg_offset)
            return fn(first(local, limit - arg_offset), value)

        return binary

    def value(local, limit):
        if limit <= threshold:
            raise LimitError()
        return fn(*_evaluate(args, local, limit - arg_offset))

    return value


def _function_call(
    info: FunInfo, body: list, args, threshold: int, arg_offset: int, last: Optional[list], context: Optional[str]
):
    """`last` is the tracer's snapshot cell, None when untraced.  Untraced
    and given a `context` that needs exactly one value, the closure gives
    that value."""
    outputs = tuple(o.text for o in info.outputs)
    n = len(args)
    if last is not None:

        def traced(local, limit):
            if limit <= threshold:
                raise LimitError()
            argv = _evaluate(args, local, limit - arg_offset) if n != 1 else (args[0](local, limit - arg_offset),)
            # The caller's state is unchanged by the call: keep its snapshot.
            before = last[0]
            out = _invoke(info, body, outputs, argv, limit - arg_offset - 1)
            last[0] = before
            return out

        return traced
    first = second = None
    if n == 1:
        (first,) = args
    elif n == 2:
        second, first = args

    def run(local, limit):
        if limit <= threshold:
            raise LimitError()
        limit -= arg_offset
        if n == 1:
            argv = (first(local, limit),)
        elif n == 2:
            value = second(local, limit)
            argv = (first(local, limit), value)
        else:
            argv = _evaluate(args, local, limit) if n else ()
        out = _invoke(info, body, outputs, argv, limit - 1)
        if context is None:
            return out
        if len(out) != 1:
            raise SafetyError(SafetyKind.NON_SINGLE_VALUE, context)
        return out[0]

    return run


def _evaluate(args, local: Dict[str, int], limit: int) -> Tuple[int, ...]:
    """Argument values in source order from closures in evaluation order."""
    values = []
    for arg in args:
        values.append(arg(local, limit))
    values.reverse()
    return tuple(values)


def _initial_function_state(info: FunInfo, args: Sequence[int]) -> CState:
    """The state a function body starts in: its parameters bound to the
    arguments and its outputs to 0.  The caller owns the returned state's
    map and runs the body on it."""
    local = {p.text: v for p, v in zip(info.inputs, args)}
    for o in info.outputs:
        local[o.text] = 0
    return CState(local)


def _invoke(info: FunInfo, body: list, outputs: Tuple[str, ...], args: Sequence[int], limit: int) -> Tuple[int, ...]:
    """Run a function's compiled body on argument values; `limit` is the
    body block's.  The initial state is built by _initial_function_state,
    looked up at each call."""
    callee = _initial_function_state(info, args).local
    try:
        mode = body[0](callee, limit)
    except EvalError as exc:
        # A traceback holds every frame it has passed until the error is
        # caught, and the cyclic collector rescans that growing chain; cut it
        # at each call.  (Without this, a run that ran out of fuel 10,000
        # calls deep took twice as long as one that settled.)
        raise exc.with_traceback(None)
    if mode is _BREAK or mode is _CONTINUE:
        raise SafetyError(SafetyKind.FUNCTION_MODE_ERROR, f"function body terminated with {mode.value}")
    # Leave counts as regular here; unassigned outputs keep their initial 0.
    try:
        return tuple([callee[o] for o in outputs])
    except KeyError as exc:
        raise SafetyError(SafetyKind.UNKNOWN_VAR, exc.args[0]) from None


def _on_host(run: Callable[[], _T]) -> _T:
    """Compile and run one entry point's node: `run()` with the recursion
    headroom every tree walk takes.  Should the host's recursion depth run out
    before the fuel does, the run is undecided: HostLimitError, raised outside
    the handler so that it does not hold the RecursionError and its stack."""
    ensure_recursion_headroom()
    try:
        return run()
    except RecursionError:
        pass
    raise HostLimitError()


def _exec_node(
    compile_node, node, cstate: CState, funenv: FunEnv, dialect: Dialect, limit: int, tracer: Optional[Tracer]
) -> SOutcome:
    """Run the statement, statement list or block entry point: compile `node`
    with `compile_node` and run it under `_on_host` on a copy of the state."""
    local = dict(cstate.local)
    mode = _on_host(lambda: compile_node(_Compiler(dialect, tracer), node, funenv)(local, limit))
    return SOutcome(CState(local), Mode.REGULAR if mode is None else mode)


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
    local = dict(cstate.local)

    def run() -> Tuple[int, ...]:
        compiler = _Compiler(dialect, tracer)
        values = compiler.values(expr, funenv)
        if compiler.snap is not None:
            # No statement list has taken this state's snapshot.
            compiler.snap(local)
        return values(local, limit)

    return EOutcome(cstate, _on_host(run))


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
    outputs = tuple(o.text for o in info.outputs)
    return _on_host(
        lambda: _invoke(info, _Compiler(dialect, tracer).body(info, funenv), outputs, args, limit - 1)
    )


def exec_statement(
    stmt: Statement,
    cstate: CState,
    funenv: FunEnv,
    dialect: Dialect,
    limit: int,
    tracer: Optional[Tracer] = None,
) -> SOutcome:
    # The statement runs as the one statement of a list given one more unit
    # (so its runner, which takes a block's fuel, two more): the list's check
    # is then this entry point's own, the statement gets `limit`, and the
    # list reports it to the tracer with its snapshots.
    return _exec_node(_Compiler.statements, (stmt,), cstate, funenv, dialect, limit + 2, tracer)


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
    return _exec_node(_Compiler.statements, stmts, cstate, funenv, dialect, limit + 1, tracer)


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
    return _exec_node(_Compiler.block, block, cstate, funenv, dialect, limit, tracer)


class _CompiledTop:
    """A whole program compiled for one dialect and tracer by `compile_top`.
    `run` gives what `exec_top` gives, as often as it is called: code a run
    compiles as it first reaches it is kept for later runs.  The caller owns
    the value; nothing else keeps it."""

    def __init__(self, block: Block, dialect: Dialect, tracer: Optional[Tracer]):
        compiler = _Compiler(dialect, tracer)
        self._last, self._start = compiler.last, compiler.start
        self._top = compiler.block(block, (), top=True)

    def run(self, limit: int, initial_locals: Optional[Mapping[str, int]] = None) -> SOutcome:
        """`exec_top(block, initial_locals, dialect, limit, tracer)`."""
        if self._last is not None:
            self._last[0] = self._start()
        local = dict(initial_locals or {})
        mode = _on_host(lambda: self._top(local, limit))
        if mode is not None:
            raise SafetyError(
                SafetyKind.MODE_VIOLATION, f"program terminated with mode {mode.value}"
            )
        return SOutcome(CState(local), Mode.REGULAR)


def compile_top(block: Block, dialect: Dialect, tracer: Optional[Tracer]) -> _CompiledTop:
    """Compile a whole program once, to run it at several fuels or from
    several states; the tracer, if any, sees every run."""
    return _CompiledTop(block, dialect, tracer)


def exec_top(
    block: Block,
    initial_locals: Optional[Mapping[str, int]] = None,
    dialect: Dialect = EVM_PURE,
    limit: int = DEFAULT_FUEL,
    tracer: Optional[Tracer] = None,
) -> SOutcome:
    """Run a whole program from the variables `initial_locals` maps to their
    values (none if None).  Like exec_block with an empty function
    environment, except that the top scope is pushed even if empty and the
    final local map is returned as-is (top-level declarations are the
    program's observable result, so they are not restored away).  A
    non-regular final mode is a safety error."""
    return compile_top(block, dialect, tracer).run(limit, initial_locals)
