"""The closure-compiled interpreter's own contracts: host depth, the states
the entry points are given, the snapshots and hooks tracers see, compiled
programs run again, and compilation by position in the tree rather than by
node identity."""

import dataclasses

import pytest

from yulkit.ast import hoisted_fundefs
from yulkit.dynamics import (
    Builtin,
    CState,
    DEFAULT_FUEL,
    Dialect,
    EVM_PURE,
    EvalError,
    HostLimitError,
    LimitError,
    Mode,
    SafetyError,
    SafetyKind,
    Tracer,
    compile_top,
    exec_block,
    exec_expression,
    exec_function,
    exec_statement,
    exec_statement_list,
    exec_top,
    extend_funenv,
    find_fun,
)
from yulkit.syntax import parse_program
from yulkit.testgen import GenConfig, check_static_soundness_program, gen_program

from conftest import DEEP_RECURSION


@pytest.mark.parametrize(
    "tracer, depth",
    [(None, 1600), (Tracer(), 1600), (None, 2400), (Tracer(), 2100)],
    ids=["untraced", "traced", "untraced-2400", "traced-2100"],
)
def test_library_settles_1600_nested_calls(tracer, depth, fresh_recursion_limit):
    # A compiled call must spend no more Python frames than a walk of the
    # tree did: the library, from a fresh interpreter, settled up to 1,665.
    # A block runs its statements inline: seven frames per call here traced
    # instead of nine, so it settles up to 2,139.  Untraced, a call in
    # expression position also returns its value directly: six frames, up
    # to 2,496.
    block = parse_program("{ function f(n) -> r { if n { r := f(sub(n, 1)) } } let x := f(%d) }" % depth)
    fresh_recursion_limit()
    out = exec_top(block, tracer=tracer)
    assert (out.cstate.local, out.mode) == ({"x": 0}, Mode.REGULAR)


def _outcome(compiled, fuel):
    try:
        out = compiled.run(fuel)
    except EvalError as exc:
        return type(exc), str(exc)
    return out.cstate.local, out.mode


def test_untraced_runs_match_traced_runs_on_generated_programs():
    # Untraced, a call in expression position gives its value directly;
    # traced, it gives its tuple to the expression's report, which then
    # checks the count.  The twins also run blocks and statement lists on
    # runners of their own, so each checks the other for every outcome,
    # error text and fuel threshold.
    fuels = [*range(1, 65), 4096]
    for seed in range(40):
        for fundefs in (True, False):
            program = gen_program(GenConfig(seed=seed, allow_fundefs=fundefs))
            untraced, traced = (compile_top(program, EVM_PURE, tracer) for tracer in (None, Tracer()))
            for fuel in fuels:
                assert _outcome(untraced, fuel) == _outcome(traced, fuel), (seed, fundefs, fuel)


def test_builtins_of_other_arities_run_alike_traced_and_untraced():
    # EVM_PURE has only unary and binary builtins; a dialect may have others.
    dialect = Dialect({"seven": Builtin(0, lambda: 7), "digits": Builtin(3, lambda a, b, c: 100 * a + 10 * b + c)})
    program = parse_program(
        "{ let x := digits(1, seven(), 3) let y, z := f(digits(x, 0, 0)) function f(a) -> b, c { b := a } }"
    )
    unknown = parse_program("{ let x := digits(u, v, w) }")  # arguments run right to left
    for tracer in (None, Tracer()):
        assert _outcome(compile_top(program, dialect, tracer), 100) == ({"x": 173, "y": 17300, "z": 0}, Mode.REGULAR)
        assert _outcome(compile_top(unknown, dialect, tracer), 100) == (SafetyError, "unknown-var: w")
        assert exec_expression(program.statements[0].init, CState({}), (), dialect, 100, tracer).values == (173,)


def test_entry_points_run_on_a_copy_of_the_given_state():
    program = parse_program("{ x := 5 let y := 2 { let z := 3 x := add(x, z) } }")
    given = CState({"x": 1})
    seen = dict(given.local)
    out = exec_statement_list(program.statements, given, (), EVM_PURE, 100)
    assert out.cstate.local == {"x": 8, "y": 2}
    out = exec_statement(program.statements[0], given, (), EVM_PURE, 100)
    assert out.cstate.local == {"x": 5}
    out = exec_block(program, given, (), EVM_PURE, 100)
    assert out.cstate.local == {"x": 8}
    initial = {"x": 1}
    assert exec_top(program, initial_locals=initial).cstate.local == {"x": 8, "y": 2}
    assert given.local == seen == initial


class _Snapshots(Tracer):
    def __init__(self):
        self.states = []  # (state, its items when handed out)

    def on_statement(self, stmt, cstate, funenv, outcome):
        for state in (cstate, outcome.cstate):
            self.states.append((state, list(state.local.items())))

    def on_expression(self, expr, cstate, funenv, outcome):
        self.states.append((cstate, list(cstate.local.items())))


def test_tracer_states_are_snapshots_reused_while_equal():
    statements = (
        "function f(a) -> r { r := add(a, 1) } function g(a) { let b := a } "
        "let x := 1 let y := f(x) g(y) "
        "for { let i } lt(i, 3) { i := add(i, 1) } { x := f(x) }"
    )
    program = parse_program("{ " + statements + " }")
    tracer = _Snapshots()
    exec_top(program, tracer=tracer)
    # No state changed after it was handed out.
    assert all(list(state.local.items()) == items for state, items in tracer.states)
    # Equal consecutive states are one object: unchanged state, no new snapshot.
    pairs = list(zip(tracer.states, tracer.states[1:]))
    equal = [(a, b) for (a, _), (b, _) in pairs if a.local == b.local]
    assert equal and all(a is b for a, b in equal)
    # A compiled program run twice hands out no state of its first run in
    # its second, though the second starts in the state the first ended in:
    # the inner block leaves the state empty.
    compiled = compile_top(parse_program("{ { " + statements + " } }"), EVM_PURE, tracer)
    runs = []
    for _ in range(2):
        tracer.states = []
        compiled.run(DEFAULT_FUEL)
        runs.append({id(state): state for state, _ in tracer.states})
    assert runs[0] and runs[0].keys().isdisjoint(runs[1])


def test_a_compiled_program_runs_out_of_host_depth_again(fresh_recursion_limit):
    block = parse_program(DEEP_RECURSION)
    for tracer in (None, Tracer()):
        compiled = compile_top(block, EVM_PURE, tracer)
        for _ in range(2):
            fresh_recursion_limit()
            with pytest.raises(HostLimitError):
                compiled.run(DEFAULT_FUEL)


class _Events(Tracer):
    """Records every statement and expression event with copies of its
    states' maps, and every state it is handed."""

    def __init__(self):
        self.events = []
        self.states = []

    def on_statement(self, stmt, cstate, funenv, outcome):
        self.states += (cstate, outcome.cstate)
        self.events.append((stmt, dict(cstate.local), dict(outcome.cstate.local), outcome.mode))

    def on_expression(self, expr, cstate, funenv, outcome):
        self.states.append(cstate)
        self.events.append((expr, dict(cstate.local), outcome.values))


class _Snap:
    """A snapshot type of a tracer's own."""

    def __init__(self, local):
        self.local = dict(local)


class _OwnSnapshots(_Events):
    def snapshots(self):
        last = [_Snap({})]

        def snap(local):
            if last[0].local != local:
                last[0] = _Snap(local)
            return last[0]

        return snap, last, lambda: _Snap({})


# f's call returns to a state that its body's states came between; g(x)
# calls a function and leaves the caller's state as it was.
OWN_SNAPSHOTS = (
    "{ function f(a) -> r { let t := add(a, 1) r := t } function g(a) { let b := a } "
    "let x := f(1) g(x) x := add(f(x), x) }"
)


def _entry_point_runs():
    """Each of the six entry points, and a compiled program's second run, as
    a function of the tracer."""
    program = parse_program(OWN_SNAPSHOTS)
    funenv = extend_funenv((), hoisted_fundefs(program))
    info, trimmed = find_fun(funenv, "f")
    last = program.statements[-1]

    def second_run(tracer):
        compiled = compile_top(program, EVM_PURE, tracer)
        compiled.run(100)
        tracer.events, tracer.states = [], []
        compiled.run(100)

    return {
        "exec_top": lambda t: exec_top(program, tracer=t),
        "exec_block": lambda t: exec_block(program, CState({}), (), EVM_PURE, 100, t),
        "exec_statement_list": lambda t: exec_statement_list(program.statements, CState({}), funenv, EVM_PURE, 100, t),
        "exec_statement": lambda t: exec_statement(last, CState({"x": 3}), funenv, EVM_PURE, 100, t),
        "exec_expression": lambda t: exec_expression(last.value, CState({"x": 3}), funenv, EVM_PURE, 100, t),
        "exec_function": lambda t: exec_function(info, (5,), trimmed, EVM_PURE, 100, t),
        "compile_top_run_twice": second_run,
    }


@pytest.mark.parametrize("entry", sorted(_entry_point_runs()))
def test_a_tracer_gets_only_the_snapshots_it_takes(entry):
    run = _entry_point_runs()[entry]
    default, own = _Events(), _OwnSnapshots()
    run(default)
    run(own)
    # Every hook got the tracer's own snapshots, of the same states.
    assert default.events and own.events == default.events
    assert {type(state) for state in default.states} == {CState}
    assert {type(state) for state in own.states} == {_Snap}
    # Equal consecutive states are one object, after a call returns too.
    pairs = list(zip(own.states, own.states[1:]))
    assert all(a is b for a, b in pairs if a.local == b.local)


# A loop whose body, or also whose update block, declares a variable and
# pops it again before the condition runs: the condition's own snapshot,
# not the block's last one, is its state.
LOOP_STATES = {
    "{ let n := 0 for { } lt(n, 2) { } { let y := n n := add(n, 1) } }": [{"n": 0}, {"n": 1}, {"n": 2}],
    "{ let n := 0 for { } lt(n, 2) { let z := 1 n := add(n, 1) } { let y := n n := add(n, 1) } }": [
        {"n": 0},
        {"n": 2},
    ],
}


@pytest.mark.parametrize("source", sorted(LOOP_STATES))
def test_a_loop_condition_gets_the_state_its_blocks_left(source):
    program = parse_program(source)
    test = program.statements[1].test
    parts = {id(test), *(id(arg) for arg in test.call.args)}
    tracer = _Events()
    exec_top(program, tracer=tracer)
    # Per iteration the condition's arguments, right to left, then the
    # condition itself, each in the state of the condition.
    seen = [event[1] for event in tracer.events if id(event[0]) in parts]
    assert seen == [state for state in LOOP_STATES[source] for _ in range(3)]


@pytest.mark.parametrize("source", sorted(LOOP_STATES))
def test_a_loop_condition_is_judged_in_the_state_its_blocks_left(source):
    assert check_static_soundness_program(parse_program(source), (4, 64, 4096)) is None


@pytest.mark.parametrize("tracer", [None, Tracer()], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "source, threshold",
    [("{ }", 2), ("{ { } }", 5), ("{ if 1 { } }", 5), ("{ for { } 0 { } { } }", 5)],
)
def test_an_empty_block_needs_its_statement_lists_fuel(source, threshold, tracer):
    # The least fuel that settles each program, where an empty block (or a
    # loop's empty initializer) makes the last check: a block's own, and
    # its empty statement list's one unit below.
    compiled = compile_top(parse_program(source), EVM_PURE, tracer)
    with pytest.raises(LimitError):
        compiled.run(threshold - 1)
    assert compiled.run(threshold).mode is Mode.REGULAR


class _Hooked(Tracer):
    """Overrides only the statement hook and the block entry."""

    def __init__(self):
        self.events = []

    def on_block_entry(self, block, funenv):
        self.events.append(block)

    def statement_hook(self, stmt, funenv):
        return lambda before, after, mode: self.events.append((stmt, before.local, after.local, mode))


def test_exec_statement_reports_through_the_statement_hook():
    stmt = parse_program("{ x := add(x, 1) }").statements[0]
    out = exec_statement(stmt, CState({"x": 1}), (), EVM_PURE, 100)
    tracer = _Hooked()
    assert exec_statement(stmt, CState({"x": 1}), (), EVM_PURE, 100, tracer) == out
    assert tracer.events == [(stmt, {"x": 1}, {"x": 2}, Mode.REGULAR)]
    # A block's entry is reported before its statements run, so before
    # they run out of fuel too.
    block = parse_program("{ let x := 1 }")
    tracer = _Hooked()
    with pytest.raises(LimitError):
        exec_block(block, CState({}), (), EVM_PURE, 1, tracer)
    assert tracer.events == [block]


def test_blocks_compile_by_position_not_by_node_identity():
    # One block object at two places: inside a scope that defines g, and
    # outside it, where g is not visible.
    shared = parse_program("{ let y := g() }")
    program = parse_program("{ { function g() -> v { v := 1 } { } } { } }")
    inner, outer = program.statements
    inner_block = dataclasses.replace(
        inner.block, statements=inner.block.statements[:1] + (dataclasses.replace(inner.block.statements[1], block=shared),)
    )
    program = dataclasses.replace(
        program,
        statements=(dataclasses.replace(inner, block=inner_block), dataclasses.replace(outer, block=shared)),
    )
    with pytest.raises(SafetyError) as e:
        exec_top(program)
    assert (e.value.kind, e.value.context) == (SafetyKind.UNKNOWN_FUN, "g")
    first_only = dataclasses.replace(program, statements=program.statements[:1])
    assert exec_top(first_only).cstate.local == {}
