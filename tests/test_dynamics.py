"""The fueled defensive interpreter: literals, expressions, calls, statements,
whole programs, and the environment helpers."""

import pytest

from yulkit.ast import DecNumber, HexNumber, HexString, TrueLit, hoisted_fundefs
from yulkit.dynamics import (
    CState,
    DEFAULT_FUEL,
    EMPTY_DIALECT,
    EVM_PURE,
    FunInfo,
    HostLimitError,
    LimitError,
    MASK,
    Mode,
    SafetyError,
    SafetyKind,
    SOutcome,
    Tracer,
    eval_literal,
    exec_block,
    exec_expression,
    exec_function,
    exec_statement,
    exec_statement_list,
    exec_top,
    extend_funenv,
    find_fun,
    funenv_to_funtable,
)
from yulkit.statics import check_safe_top
from yulkit.syntax import parse_program

from conftest import DEEP_CALLS, DEEP_RECURSION, SCOPING_SRC


def stmt(src):
    return parse_program("{ " + src + " }").statements[0]


def expr(src):
    return parse_program("{ x := " + src + " }").statements[0].value


def run_expr(src, local=None, limit=100):
    out = exec_expression(expr(src), CState(local or {}), (), EVM_PURE, limit)
    return list(out.values)


# --- literals ---


def test_literal_true_is_one():
    assert eval_literal(TrueLit()) == 1


def test_literal_hex_number():
    # oracle: int("ff0012", 16)
    assert eval_literal(HexNumber("ff0012")) == 16711698


def test_literal_hex_string_big_endian():
    # oracle: 0x90 * 256 + 0xa4
    assert eval_literal(HexString("90a4")) == 37028


def test_literal_plain_string_bytes():
    lit = parse_program('{ let s := "hi" }').statements[0].init.literal
    # oracle: 0x68 * 256 + 0x69
    assert eval_literal(lit) == 26729


def test_literal_too_large_at_runtime():
    with pytest.raises(SafetyError) as e:
        eval_literal(DecNumber(str(2**256)))
    assert e.value.kind == SafetyKind.LITERAL_TOO_LARGE


def test_literal_with_more_digits_than_int_reads_is_too_large():
    # int() refuses a numeral of more than 4300 digits
    with pytest.raises(SafetyError) as e:
        eval_literal(DecNumber("9" * 5000))
    assert e.value.kind == SafetyKind.LITERAL_TOO_LARGE
    assert e.value.context == "decimal numeral " + "9" * 5000


def test_string_case_values_agree_with_the_checker():
    # "ab\x00" and "ab" are the distinct values 0x616200 and 0x6162: the
    # checker accepts both cases and the run takes the second.
    program = parse_program(
        r'{ let r := 0 switch "ab" case "ab\x00" { r := 1 } case "ab" { r := 2 } default { r := 3 } }'
    )
    check_safe_top(program, EVM_PURE.funtable())
    assert exec_top(program).cstate.local == {"r": 2}


# --- expressions ---


def test_expression_path_reads_state():
    assert run_expr("x", {"x": 7}) == [7]


def test_expression_limit_zero():
    with pytest.raises(LimitError):
        exec_expression(expr("1"), CState({}), (), EVM_PURE, 0)


def test_expression_builtin_add():
    assert run_expr("add(1, 2)") == [3]


def test_expression_add_wraps():
    assert run_expr(f"add({MASK}, 1)") == [0]


def test_expression_unknown_var():
    with pytest.raises(SafetyError) as e:
        run_expr("q")
    assert e.value.kind == SafetyKind.UNKNOWN_VAR


def test_expression_wrong_arg_count():
    with pytest.raises(SafetyError) as e:
        run_expr("add(1)")
    assert e.value.kind == SafetyKind.ARITY_MISMATCH


def test_evm_pure_builtins_sample():
    assert run_expr("sub(3, 5)") == [(3 - 5) % (1 << 256)]
    assert run_expr("div(7, 2)") == [3]
    assert run_expr("div(1, 0)") == [0]
    assert run_expr("mod(7, 0)") == [0]
    assert run_expr("lt(1, 2)") == [1]
    assert run_expr("gt(1, 2)") == [0]
    assert run_expr("eq(5, 5)") == [1]
    assert run_expr("iszero(0)") == [1]
    assert run_expr("and(12, 10)") == [8]
    assert run_expr("or(12, 10)") == [14]
    assert run_expr("xor(12, 10)") == [6]
    assert run_expr("not(0)") == [MASK]
    assert run_expr("shl(4, 1)") == [16]
    assert run_expr("shr(4, 16)") == [1]
    assert run_expr("mul(3, 5)") == [15]


# --- function calls and scope trimming ---


def test_function_outputs_default_to_zero():
    block = parse_program("{ function f() -> a, b { a := 1 } }")
    info = FunInfo.from_fundef(hoisted_fundefs(block)[0])
    env = extend_funenv((), hoisted_fundefs(block))
    assert exec_function(info, (), env, EVM_PURE, 100) == (1, 0)


def test_function_leave_returns_outputs():
    block = parse_program("{ function f() { leave } }")
    info = FunInfo.from_fundef(hoisted_fundefs(block)[0])
    assert exec_function(info, (), (), EVM_PURE, 100) == ()


def test_function_body_break_is_safety_error():
    block = parse_program("{ function f() { break } }")
    info = FunInfo.from_fundef(hoisted_fundefs(block)[0])
    with pytest.raises(SafetyError) as e:
        exec_function(info, (), (), EVM_PURE, 100)
    assert e.value.kind == SafetyKind.FUNCTION_MODE_ERROR


def test_call_trims_to_defining_scope():
    # h (defined inside g) calls top-level f: the scopes pushed for g and h
    # are popped for f's execution, and the call still resolves.
    src = """{
        function f() -> r { r := 1 }
        function g() -> r {
            function h() -> s { s := f() }
            r := h()
        }
        let a := g()
    }"""
    out = exec_top(parse_program(src), limit=100)
    assert out.cstate.local == {"a": 1}


def test_call_cannot_reach_deeper_scopes():
    # f (top level) calls h, which is defined only inside g: after trimming
    # to f's defining scope, h is not visible.
    src = """{
        function f() -> r { r := h() }
        function g() { function h() { } }
        let a := f()
    }"""
    with pytest.raises(SafetyError) as e:
        exec_top(parse_program(src), limit=100)
    assert e.value.kind == SafetyKind.UNKNOWN_FUN


def test_recursion_burns_fuel():
    src = "{ function f() -> r { r := f() } let a := f() }"
    with pytest.raises(LimitError):
        exec_top(parse_program(src), limit=1000)


# --- statements ---


def test_leave_statement_keeps_state():
    st = CState({"x": 3})
    out = exec_statement(stmt("leave"), st, (), EVM_PURE, 100)
    assert out == SOutcome(st, Mode.LEAVE)


def test_multi_declaration_zeros():
    out = exec_statement(stmt("let a, b"), CState({}), (), EVM_PURE, 100)
    assert out.cstate.local == {"a": 0, "b": 0}
    assert out.mode == Mode.REGULAR


def test_for_loop_counts_and_restores():
    loop = stmt("for { let i := 0 } lt(i, 3) { i := add(i, 1) } { }")
    out = exec_statement(loop, CState({}), (), EVM_PURE, 1000)
    assert out.mode == Mode.REGULAR
    assert "i" not in out.cstate.local


def test_for_init_leave_exits_loop():
    loop = stmt("for { let i := 0 leave } 1 { } { i := 9 }")
    out = exec_statement(loop, CState({}), (), EVM_PURE, 100)
    assert out.mode == Mode.LEAVE
    assert out.cstate.local == {}


def test_for_body_break_finishes_regular():
    loop = stmt("for { } 1 { } { break }")
    out = exec_statement(loop, CState({}), (), EVM_PURE, 100)
    assert out.mode == Mode.REGULAR


def test_for_update_break_is_safety_error():
    loop = stmt("for { } 1 { break } { }")
    with pytest.raises(SafetyError) as e:
        exec_statement(loop, CState({}), (), EVM_PURE, 100)
    assert e.value.kind == SafetyKind.BREAK_OUTSIDE_LOOP


# --- loops whose head state repeats ---

REPEATING_LOOPS = [
    "{ for { } 1 { } { } }",
    "{ let x for { } 1 { } { x := iszero(x) } }",
    "{ let i for { } 1 { } { if lt(i, 100) { i := add(i, 1) } } }",
]


class CountingTracer(Tracer):
    def __init__(self):
        self.events = 0

    def on_statement(self, stmt, cstate, funenv, outcome):
        self.events += 1

    def on_expression(self, expr, cstate, funenv, outcome):
        self.events += 1


@pytest.mark.parametrize("src", REPEATING_LOOPS)
@pytest.mark.parametrize("fuel", [4, 64, 4096, 1 << 20])
def test_repeating_loop_is_limit_error(src, fuel):
    with pytest.raises(LimitError):
        exec_top(parse_program(src), limit=fuel)


@pytest.mark.parametrize("src", REPEATING_LOOPS)
def test_repeating_loop_stops_early(src):
    # replaying every iteration until the fuel ran out delivered 1.0M-5.2M
    # events for these programs at this fuel
    tracer = CountingTracer()
    with pytest.raises(LimitError):
        exec_top(parse_program(src), limit=1 << 20, tracer=tracer)
    assert 0 < tracer.events < 2000


@pytest.mark.parametrize(
    "src, threshold",
    [
        (
            "{ let s for { let i := 0 } lt(i, 3000) { i := add(i, 1) } "
            "{ s := add(s, i) } }",
            3010,
        ),
        (
            "{ let i for { } 1 { } { if lt(i, 100) { i := add(i, 1) } "
            "if eq(i, 100) { break } } }",
            113,
        ),
    ],
)
def test_terminating_loop_keeps_minimal_fuel(src, threshold):
    # thresholds measured on the interpreter that replays every iteration
    block = parse_program(src)
    with pytest.raises(LimitError):
        exec_top(block, limit=threshold - 1)
    assert exec_top(block, limit=threshold).mode == Mode.REGULAR


@pytest.mark.parametrize("fuel", [64, 1 << 20])
def test_repeating_loop_keeps_first_iteration_safety_error(fuel):
    src = "{ for { } 1 { } { let y := 1 let y := 2 } }"
    with pytest.raises(SafetyError) as e:
        exec_top(parse_program(src), limit=fuel)
    assert e.value.kind == SafetyKind.DUPLICATE_VAR


def test_block_restores_locals_and_keeps_mode():
    block_stmt = stmt("{ let x := 1 break let y := 2 }")
    out = exec_statement(block_stmt, CState({}), (), EVM_PURE, 100)
    assert out.mode == Mode.BREAK
    # x restored away by block exit; y never declared (break stopped the list)
    assert out.cstate.local == {}


def test_block_empty_unchanged():
    st = CState({"q": 9})
    out = exec_statement(stmt("{ }"), st, (), EVM_PURE, 100)
    assert out == SOutcome(st, Mode.REGULAR)


def test_duplicate_function_in_visible_scope():
    src = "{ function f() { } { function f() { } } }"
    with pytest.raises(SafetyError) as e:
        exec_top(parse_program(src), limit=100)
    assert e.value.kind == SafetyKind.DUPLICATE_FUN


def test_duplicate_var_declaration():
    with pytest.raises(SafetyError) as e:
        exec_statement(stmt("let x"), CState({"x": 1}), (), EVM_PURE, 100)
    assert e.value.kind == SafetyKind.DUPLICATE_VAR


def test_switch_picks_first_matching_case():
    src = "switch 1 case 0 { x := 10 } case 1 { x := 11 } default { x := 12 }"
    out = exec_statement(stmt(src), CState({"x": 0}), (), EVM_PURE, 100)
    assert out.cstate.local == {"x": 11}


def test_switch_default_and_fallthrough():
    base = CState({"x": 0})
    out = exec_statement(
        stmt("switch 9 case 0 { x := 10 } default { x := 12 }"),
        base,
        (),
        EVM_PURE,
        100,
    )
    assert out.cstate.local == {"x": 12}
    out = exec_statement(
        stmt("switch 9 case 0 { x := 10 }"), base, (), EVM_PURE, 100
    )
    assert out.cstate.local == {"x": 0} and out.mode == Mode.REGULAR


def test_if_branches():
    out = exec_statement(stmt("if 1 { x := 5 }"), CState({"x": 0}), (), EVM_PURE, 100)
    assert out.cstate.local == {"x": 5}
    out = exec_statement(stmt("if 0 { x := 5 }"), CState({"x": 0}), (), EVM_PURE, 100)
    assert out.cstate.local == {"x": 0}


def test_assign_multi_positional():
    src = "{ function f() -> a, b { a := 1 b := 2 } let m, n := f() }"
    out = exec_top(parse_program(src), limit=100)
    assert out.cstate.local == {"m": 1, "n": 2}


# --- whole programs ---


def test_top_scoping_listing(scoping_block):
    out = exec_top(scoping_block, limit=100)
    assert out.mode == Mode.REGULAR
    assert out.cstate.local == {"x": 0}


def test_top_stray_break():
    with pytest.raises(SafetyError):
        exec_top(parse_program("{ break }"), limit=100)


def test_top_fuel_zero():
    with pytest.raises(LimitError):
        exec_top(parse_program("{ }"), limit=0)


def test_top_keeps_final_locals():
    out = exec_top(parse_program("{ let x := 1 let y := 2 }"), limit=100)
    assert out.cstate.local == {"x": 1, "y": 2}


def test_top_initial_locals_seed_state():
    out = exec_top(
        parse_program("{ x := add(x, 1) }"), initial_locals={"x": 41}, limit=100
    )
    assert out.cstate.local == {"x": 42}


def test_empty_dialect_has_no_builtins():
    with pytest.raises(SafetyError) as e:
        exec_top(parse_program("{ let x := add(1, 2) }"), dialect=EMPTY_DIALECT)
    assert e.value.kind == SafetyKind.UNKNOWN_FUN


def test_fuel_monotonicity_small():
    block = parse_program("{ let x := 0 x := add(x, 1) x := add(x, 2) }")
    settled = None
    for fuel in range(0, 30):
        try:
            out = exec_top(block, limit=fuel)
        except LimitError:
            assert settled is None, "success must not regress to a limit error"
            continue
        if settled is None:
            settled = out
        assert out == settled


# --- environment helpers ---


def test_funenv_to_funtable_merges_scopes():
    b1 = parse_program("{ function f() { } }")
    b2 = parse_program("{ function h(a) -> r { } }")
    env = extend_funenv(extend_funenv((), hoisted_fundefs(b1)), hoisted_fundefs(b2))
    assert funenv_to_funtable(env) == {"f": (0, 0), "h": (1, 1)}
    assert funenv_to_funtable(()) == {}


def test_extend_funenv_rejects_shadowing():
    b = parse_program("{ function f() { } }")
    env = extend_funenv((), hoisted_fundefs(b))
    with pytest.raises(SafetyError) as e:
        extend_funenv(env, hoisted_fundefs(b))
    assert e.value.kind == SafetyKind.DUPLICATE_FUN


def test_find_fun_trims():
    b1 = parse_program("{ function f(a, b) { } }")
    b2 = parse_program("{ function h() { } }")
    env = extend_funenv(extend_funenv((), hoisted_fundefs(b1)), hoisted_fundefs(b2))
    info, trimmed = find_fun(env, "f")
    assert len(info.inputs) == 2
    assert len(trimmed) == 1  # h's scope popped
    info, trimmed = find_fun(env, "h")
    assert len(trimmed) == 2
    with pytest.raises(SafetyError) as e:
        find_fun(env, "zz")
    assert e.value.kind == SafetyKind.UNKNOWN_FUN


def test_limit_error_has_no_payload():
    # constructor takes nothing; every instance renders the same
    with pytest.raises(TypeError):
        LimitError("why")
    assert str(LimitError()) == str(LimitError())
    assert not hasattr(LimitError(), "kind")


def test_default_fuel_value():
    assert DEFAULT_FUEL == 1 << 20


def test_host_recursion_is_not_fuel_exhaustion(fresh_recursion_limit):
    block = parse_program(DEEP_RECURSION)
    env = extend_funenv((), hoisted_fundefs(block))
    info, trimmed = find_fun(env, "f")
    call = block.statements[1]  # let x := f(DEEP_CALLS)
    entry_points = {
        "exec_top": lambda fuel: exec_top(block, limit=fuel),
        "exec_block": lambda fuel: exec_block(block, CState({}), (), EVM_PURE, fuel),
        "exec_statement_list": lambda fuel: exec_statement_list(
            block.statements, CState({}), env, EVM_PURE, fuel
        ),
        "exec_statement": lambda fuel: exec_statement(call, CState({}), env, EVM_PURE, fuel),
        "exec_expression": lambda fuel: exec_expression(
            call.init, CState({}), env, EVM_PURE, fuel
        ),
        "exec_function": lambda fuel: exec_function(info, (DEEP_CALLS,), trimmed, EVM_PURE, fuel),
    }
    for name, run in entry_points.items():
        for fuel in (DEFAULT_FUEL, 16 * DEFAULT_FUEL):
            fresh_recursion_limit()
            with pytest.raises(HostLimitError) as e:
                run(fuel)
            assert not isinstance(e.value, LimitError), name
            assert e.value.__context__ is None, name  # the exhausted stack is not kept
