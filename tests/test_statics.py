"""Static safety judgments: literals, expressions, statements, programs."""

import pytest

from yulkit.ast import DecNumber, HexString, PlainString, RawChar
from yulkit.dynamics import EVM_PURE
from yulkit.statics import (
    ErrorKind,
    Mode,
    StaticError,
    VarsModes,
    check_safe_block,
    check_safe_expression,
    check_safe_literal,
    check_safe_statement,
    check_safe_top,
    fun_table_of,
)
from yulkit.syntax import parse_program

from conftest import SCOPING_SRC

EVM_FUNS = EVM_PURE.funtable()


def stmt(src):
    return parse_program("{ " + src + " }").statements[0]


def expr(src):
    return parse_program("{ x := " + src + " }").statements[0].value


# --- literals ---


def test_literal_decimal_ok():
    check_safe_literal(DecNumber("64738"))


def test_literal_string_length_boundary():
    check_safe_literal(PlainString(tuple(RawChar("a") for _ in range(32))))
    with pytest.raises(StaticError) as e:
        check_safe_literal(PlainString(tuple(RawChar("a") for _ in range(33))))
    assert e.value.kind == ErrorKind.STRING_TOO_LONG
    check_safe_literal(HexString("00" * 32))
    with pytest.raises(StaticError):
        check_safe_literal(HexString("00" * 33))


def test_literal_value_boundary():
    check_safe_literal(DecNumber(str(2**256 - 1)))
    with pytest.raises(StaticError) as e:
        check_safe_literal(DecNumber(str(2**256)))
    assert e.value.kind == ErrorKind.LITERAL_TOO_LARGE
    with pytest.raises(StaticError):
        check_safe_literal(DecNumber(str(2**256 + 77)))


# --- expressions ---


def test_expression_path_counts_one():
    assert check_safe_expression(expr("y"), frozenset({"x", "y"}), {}) == 1


def test_expression_call_result_count():
    funs = {"f": (1, 2)}
    n = check_safe_expression(expr("f(y)"), frozenset({"x", "y"}), funs)
    assert n == 2


def test_expression_call_arity_mismatch():
    funs = {"f": (1, 2)}
    with pytest.raises(StaticError) as e:
        check_safe_expression(expr("f(y, y)"), frozenset({"x", "y"}), funs)
    assert e.value.kind == ErrorKind.ARITY_MISMATCH


def test_expression_unknown_names():
    with pytest.raises(StaticError) as e:
        check_safe_expression(expr("q"), frozenset({"x"}), {})
    assert e.value.kind == ErrorKind.UNKNOWN_VAR
    with pytest.raises(StaticError) as e:
        check_safe_expression(expr("f()"), frozenset({"x"}), {})
    assert e.value.kind == ErrorKind.UNKNOWN_FUN


def test_expression_multi_part_path_rejected():
    with pytest.raises(StaticError) as e:
        check_safe_expression(expr("a.b"), frozenset({"x"}), {})
    assert e.value.kind == ErrorKind.BAD_PATH


def test_expression_argument_must_be_single():
    funs = {"f": (0, 2), "g": (1, 1)}
    with pytest.raises(StaticError) as e:
        check_safe_expression(expr("g(f())"), frozenset({"x"}), funs)
    assert e.value.kind == ErrorKind.NON_SINGLE_VALUE


# --- statements ---


def test_statement_let_extends_vars():
    vm = check_safe_statement(stmt("let y := x"), frozenset({"x"}), {})
    assert vm == VarsModes(frozenset({"x", "y"}), frozenset({Mode.REGULAR}))


def test_statement_break_mode():
    vm = check_safe_statement(stmt("break"), frozenset(), {})
    assert vm.modes == frozenset({Mode.BREAK})
    assert vm.vars == frozenset()


def test_statement_fundef_body_cannot_break():
    with pytest.raises(StaticError) as e:
        check_safe_statement(stmt("function f() { break }"), frozenset(), {})
    assert e.value.kind == ErrorKind.MODE_VIOLATION


def test_statement_fundef_body_sees_only_params():
    # x is visible outside but not accessible across the function boundary
    with pytest.raises(StaticError) as e:
        check_safe_statement(
            stmt("function f() { let y := x }"), frozenset({"x"}), {}
        )
    assert e.value.kind == ErrorKind.UNKNOWN_VAR
    vm = check_safe_statement(
        stmt("function f(x) -> r { r := x }"), frozenset({"x"}), {}
    )
    assert vm.vars == frozenset({"x"})


def test_statement_shadowing_rejected():
    with pytest.raises(StaticError) as e:
        check_safe_statement(stmt("let x"), frozenset({"x"}), {})
    assert e.value.kind == ErrorKind.DUPLICATE_VAR
    with pytest.raises(StaticError):
        check_safe_block(
            parse_program("{ let x { let x } }"), frozenset(), {}
        )


def test_statement_assign_needs_visible_target():
    with pytest.raises(StaticError) as e:
        check_safe_statement(stmt("y := 1"), frozenset({"x"}), {})
    assert e.value.kind == ErrorKind.UNKNOWN_VAR


def test_statement_multi_assign_distinct_targets():
    funs = {"f": (0, 2)}
    vs = frozenset({"a", "b"})
    vm = check_safe_statement(stmt("a, b := f()"), vs, funs)
    assert vm.vars == vs
    with pytest.raises(StaticError) as e:
        check_safe_statement(stmt("a, a := f()"), vs, funs)
    assert e.value.kind == ErrorKind.DUPLICATE_VAR


def test_statement_call_statement_needs_zero_results():
    with pytest.raises(StaticError) as e:
        check_safe_statement(stmt("f()"), frozenset(), {"f": (0, 1)})
    assert e.value.kind == ErrorKind.RESULT_COUNT_MISMATCH
    vm = check_safe_statement(stmt("f()"), frozenset(), {"f": (0, 0)})
    assert vm.modes == frozenset({Mode.REGULAR})


def test_statement_if_adds_regular():
    vm = check_safe_statement(
        stmt("if 1 { break }"), frozenset(), {}
    )
    assert vm.modes == frozenset({Mode.REGULAR, Mode.BREAK})


def test_statement_switch_duplicate_case_values():
    # 1 and 0x1 are different trees but the same 256-bit value
    with pytest.raises(StaticError) as e:
        check_safe_statement(
            stmt("switch 0 case 1 { } case 0x1 { } default { }"),
            frozenset(),
            {},
        )
    assert e.value.kind == ErrorKind.DUPLICATE_CASE


def test_statement_switch_modes_union():
    vm = check_safe_statement(
        stmt("switch 0 case 1 { break } default { continue }"),
        frozenset(),
        {},
    )
    assert vm.modes == frozenset({Mode.BREAK, Mode.CONTINUE})
    # without a default, falling through is possible: Regular joins
    vm = check_safe_statement(
        stmt("switch 0 case 1 { break }"), frozenset(), {}
    )
    assert vm.modes == frozenset({Mode.BREAK, Mode.REGULAR})


def test_statement_for_init_scopes_over_loop():
    loop = stmt("for { let i := 0 } lt(i, 9) { i := add(i, 1) } { let j := i }")
    vm = check_safe_statement(loop, frozenset(), EVM_FUNS)
    # init names do not escape the loop statement
    assert vm == VarsModes(frozenset(), frozenset({Mode.REGULAR}))


def test_statement_for_init_fundefs_visible_in_body():
    loop = stmt("for { function f() -> r { r := 1 } } f() { } { break }")
    vm = check_safe_statement(loop, frozenset(), {})
    assert vm.modes == frozenset({Mode.REGULAR})


def test_statement_for_init_modes_restricted():
    with pytest.raises(StaticError) as e:
        check_safe_statement(stmt("for { break } 1 { } { }"), frozenset(), {})
    assert e.value.kind == ErrorKind.MODE_VIOLATION
    with pytest.raises(StaticError):
        check_safe_statement(stmt("for { } 1 { continue } { }"), frozenset(), {})


def test_statement_for_leave_passes_through():
    loop = stmt("for { leave } 1 { } { }")
    vm = check_safe_statement(loop, frozenset(), {})
    assert vm.modes == frozenset({Mode.REGULAR, Mode.LEAVE})


def test_statement_for_absorbs_break_continue():
    loop = stmt("for { } 1 { } { break continue }")
    vm = check_safe_statement(loop, frozenset(), {})
    assert vm.modes == frozenset({Mode.REGULAR})


# --- blocks and programs ---


def test_block_scoping_listing_regular(scoping_block):
    modes = check_safe_block(scoping_block, frozenset(), {})
    assert modes == frozenset({Mode.REGULAR})


def test_block_live_break_dead():
    block = parse_program("{ let x := 1 break let y := 2 }")
    modes = check_safe_block(block, frozenset(), {})
    assert modes == frozenset({Mode.BREAK})


def test_block_empty_regular():
    assert check_safe_block(parse_program("{ }"), frozenset(), {}) == frozenset(
        {Mode.REGULAR}
    )


def test_block_function_visible_before_definition():
    block = parse_program("{ let a := f() function f() -> r { } }")
    assert check_safe_block(block, frozenset(), {}) == frozenset({Mode.REGULAR})


def test_top_leave_rejected():
    with pytest.raises(StaticError) as e:
        check_safe_top(parse_program("{ leave }"), EVM_FUNS)
    assert e.value.kind == ErrorKind.MODE_VIOLATION


def test_top_var_not_visible_in_own_initializer():
    with pytest.raises(StaticError) as e:
        check_safe_top(parse_program("{ let x := add(x, 1) }"), EVM_FUNS)
    assert e.value.kind == ErrorKind.UNKNOWN_VAR
    assert "x" in e.value.context


def test_top_scoping_listing_safe(scoping_block):
    check_safe_top(scoping_block, EVM_FUNS)


# --- function tables ---


def test_fun_table_of_scoping_listing(scoping_block):
    assert fun_table_of(scoping_block) == {"f": (0, 0), "g": (0, 0)}


def test_fun_table_of_empty():
    assert fun_table_of(parse_program("{ }")) == {}


def test_fun_table_of_duplicate():
    with pytest.raises(StaticError) as e:
        fun_table_of(parse_program("{ function f() { } function f() { } }"))
    assert e.value.kind == ErrorKind.DUPLICATE_FUN


def test_fun_table_arities():
    block = parse_program("{ function f(a, b) -> c { } function g(x) { } }")
    assert fun_table_of(block) == {"f": (2, 1), "g": (1, 0)}


def test_error_message_format():
    err = StaticError(ErrorKind.UNKNOWN_VAR, "q")
    assert str(err) == "unknown-var: q"
