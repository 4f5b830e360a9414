"""Dead-code elimination, the loop-initializer rewrite, the restriction
predicates, and their semantic preservation properties."""

import random

import pytest

from yulkit.ast import hoisted_fundefs, to_source
from yulkit.dynamics import (
    CState,
    EVM_PURE,
    EvalError,
    LimitError,
    Mode,
    SOutcome,
    exec_statement_list,
    exec_top,
    extend_funenv,
)
from yulkit.generate import GenConfig, gen_program
from yulkit.statics import check_safe_statement, check_safe_top
from yulkit.syntax import parse_program
from yulkit.transforms import (
    dead_code_eliminate,
    for_loop_init_rewrite,
    funenv_dead,
    funenv_nofun,
    nofun,
    noloopinit,
    okeq,
)

from conftest import SCOPING_SRC, run_fresh


def run(block, fuel):
    try:
        return exec_top(block, limit=fuel)
    except EvalError as e:
        return e


# --- loop-init rewrite ---


def test_loop_init_rewrite_shape():
    old = parse_program("{ for { let i := 0 } lt(i, 3) { i := add(i, 1) } { } }")
    new = for_loop_init_rewrite(old)
    expected = parse_program(
        "{ { let i := 0 for { } lt(i, 3) { i := add(i, 1) } { } } }"
    )
    assert new == expected


def test_loop_init_rewrite_empty_init_untouched():
    old = parse_program("{ for { } 1 { } { break } }")
    assert for_loop_init_rewrite(old) == old


def test_loop_init_rewrite_no_loops_identical():
    old = parse_program("{ let x := 1 { x := 2 } }")
    assert for_loop_init_rewrite(old) == old


def test_loop_init_rewrite_recurses_everywhere():
    old = parse_program(
        """{
            function f() { for { let a } 1 { } { break } }
            if 1 { for { let b } 1 { } { break } }
        }"""
    )
    new = for_loop_init_rewrite(old)
    assert noloopinit(new)
    assert not noloopinit(old)


def test_loop_init_rewrite_establishes_noloopinit_generated():
    for seed in range(150):
        program = gen_program(GenConfig(seed=seed))
        assert noloopinit(for_loop_init_rewrite(program))


def test_loop_init_rewrite_idempotent():
    for seed in range(100):
        program = gen_program(GenConfig(seed=seed))
        once = for_loop_init_rewrite(program)
        assert for_loop_init_rewrite(once) == once


def test_loop_init_rewrite_not_fuel_neutral():
    # The rewrite moves the initializer into a wrapping block, which shifts
    # where fuel is spent.  For this loop the original settles at fuel 12 but
    # the rewritten form needs 16; in between, equal-fuel comparison sees a
    # split (one side out of fuel).  This is why equal-fuel equivalence is
    # checked with a doubling retry in the suites.
    old = parse_program("{ for { let i := 0 } lt(i, 3) { i := add(i, 1) } { } }")
    new = for_loop_init_rewrite(old)
    for fuel in range(12, 16):
        assert isinstance(run(old, fuel), SOutcome)
        assert isinstance(run(new, fuel), LimitError)
    for fuel in range(16, 40):
        out_old, out_new = run(old, fuel), run(new, fuel)
        assert isinstance(out_old, SOutcome)
        assert out_old == out_new


def test_loop_init_rewrite_mode_set_shrinks_only_by_regular():
    # a leave-carrying initializer: the loop statement can report Leave, and
    # the rewrite must not invent new modes
    old_stmt = parse_program("{ for { leave } 1 { } { } }").statements[0]
    new_stmt = for_loop_init_rewrite(
        parse_program("{ for { leave } 1 { } { } }")
    ).statements[0]
    vm_old = check_safe_statement(old_stmt, frozenset(), {})
    vm_new = check_safe_statement(new_stmt, frozenset(), {})
    assert vm_new.modes <= vm_old.modes
    assert vm_old.modes - vm_new.modes <= {Mode.REGULAR}


# --- dead-code elimination ---


def test_dead_code_drops_tail_after_break():
    old = parse_program("{ let x := 1 break let y := 2 }")
    assert dead_code_eliminate(old) == parse_program("{ let x := 1 break }")


def test_dead_code_keeps_code_after_if():
    # leave inside the if body does not truncate the outer block
    old = parse_program("{ if c { leave x := 1 } y := 2 }")
    assert dead_code_eliminate(old) == parse_program("{ if c { leave } y := 2 }")


def test_dead_code_no_terminators_unchanged():
    old = parse_program("{ let x := 1 x := 2 { x := 3 } }")
    assert dead_code_eliminate(old) == old


def test_dead_code_all_terminators_truncate():
    for term in ("break", "continue", "leave"):
        old = parse_program("{ %s let q }" % term)
        assert dead_code_eliminate(old) == parse_program("{ %s }" % term)


def test_dead_code_idempotent():
    for seed in range(100):
        program = gen_program(GenConfig(seed=seed))
        once = dead_code_eliminate(program)
        assert dead_code_eliminate(once) == once


def test_dead_code_preserves_restrictions():
    for seed in range(100):
        program = gen_program(GenConfig(seed=seed, allow_fundefs=False))
        assert nofun(program)
        assert nofun(dead_code_eliminate(program))
        rewritten = for_loop_init_rewrite(program)
        assert noloopinit(dead_code_eliminate(rewritten))


def test_dead_code_is_fuel_neutral():
    # unlike the loop-init rewrite: dropping unreachable statements never
    # changes where fuel runs out
    old = parse_program(
        "{ let x := 1 { x := add(x, 1) break let d := 9 d := 10 } x := add(x, 1) }"
    )
    new = dead_code_eliminate(old)
    assert new != old
    for fuel in range(0, 60):
        out_old, out_new = run(old, fuel), run(new, fuel)
        if isinstance(out_old, SOutcome):
            assert out_old == out_new
        else:
            assert type(out_old) is type(out_new)


def test_dead_code_static_preservation_concrete():
    old = parse_program("{ let x := 1 break let y := 2 }")
    new = dead_code_eliminate(old)
    vm_old = check_safe_statement(
        parse_program("{ %s }" % to_source(old)).statements[0], frozenset(), {}
    )
    vm_new = check_safe_statement(
        parse_program("{ %s }" % to_source(new)).statements[0], frozenset(), {}
    )
    assert vm_new.vars == vm_old.vars
    assert vm_new.modes <= vm_old.modes


# --- restriction predicates ---


def test_nofun_examples(scoping_block):
    assert nofun(parse_program("{ function f() { } }")) is False
    assert nofun(parse_program("{ for { } c { } { break } }")) is True
    assert nofun(scoping_block) is False


def test_nofun_sees_nested_definitions():
    assert nofun(parse_program("{ if 1 { function f() { } } }")) is False


def test_noloopinit_examples():
    assert noloopinit(parse_program("{ for { let i } 1 { } { } }")) is False
    assert noloopinit(parse_program("{ let x := 1 }")) is True
    assert noloopinit(parse_program("{ for { } 1 { } { } }")) is True


def test_noloopinit_sees_nested_loops():
    src = "{ for { } 1 { } { for { let j } 1 { } { } } }"
    assert noloopinit(parse_program(src)) is False


# --- function environment transforms ---


def test_funenv_dead_empty():
    assert funenv_dead(()) == ()
    assert funenv_nofun(()) is True


def test_funenv_dead_rewrites_bodies():
    block = parse_program("{ function f() { break x := 1 } }")
    env = extend_funenv((), hoisted_fundefs(block))
    dead_env = funenv_dead(env)
    (info,) = dead_env[0].values()
    assert info.body == parse_program("{ break }")


def test_funenv_nofun_flags_nested_fundef():
    block = parse_program("{ function f() { function g() { } } }")
    env = extend_funenv((), hoisted_fundefs(block))
    assert funenv_nofun(env) is False


# --- okeq ---


def test_okeq_semantics():
    st = CState({"x": 1})
    a = SOutcome(st, Mode.REGULAR)
    assert okeq(a, SOutcome(CState({"x": 1}), Mode.REGULAR))
    assert not okeq(a, SOutcome(CState({"x": 2}), Mode.REGULAR))
    assert not okeq(a, SOutcome(st, Mode.BREAK))
    assert okeq(LimitError(), LimitError())
    assert not okeq(a, LimitError())
    assert not okeq(LimitError(), a)


def test_dead_code_okeq_generated_nofun():
    # statement-by-statement equal-fuel equivalence on a small corpus;
    # the acceptance suite runs this via the dead-code property suite
    rng = random.Random(7)
    for seed in range(60):
        program = gen_program(GenConfig(seed=seed, allow_fundefs=False))
        check_safe_top(program, EVM_PURE.funtable())
        new = dead_code_eliminate(for_loop_init_rewrite(program))
        for fuel in (4, 64, 4096):
            out_old = run(for_loop_init_rewrite(program), fuel)
            out_new = run(new, fuel)
            assert okeq(out_old, out_new), (seed, fuel)


# --- from a fresh interpreter ---


@pytest.mark.parametrize(
    "call",
    [
        "transforms.dead_code_eliminate(deep)",
        "transforms.for_loop_init_rewrite(deep)",
        "renaming.reference_disambiguate(deep)",
        "renaming.reference_renamevar(deep)",
        "renaming.check_disambiguation(deep, deep)",
        "statics.check_safe_statement(BlockStmt(deep), frozenset(), {})",
        "statics.check_safe_statement_list(deep.statements, frozenset(), {})",
        "statics.check_safe_block(deep, frozenset(), {})",
        "assert statics.check_safe_expression(nested, frozenset(), {'iszero': (1, 1)}) == 1",
    ],
)
def test_deep_tree_from_a_fresh_interpreter(call):
    # 600 nested blocks, or 600 nested calls, recurse deeper than CPython's
    # default limit; the walk must not depend on an earlier caller having
    # raised it
    run_fresh(
        "from yulkit import renaming, statics, transforms\n"
        "from yulkit.ast import (Block, BlockStmt, DecNumber, FunCall, FunCallExpr,\n"
        "    Identifier, LiteralExpr, VariableSingle)\n"
        "deep = Block((VariableSingle(Identifier('x'), None),))\n"
        "nested = LiteralExpr(DecNumber('0'))\n"
        "for _ in range(600):\n"
        "    deep = Block((BlockStmt(deep),))\n"
        "    nested = FunCallExpr(FunCall(Identifier('iszero'), (nested,)))\n"
        f"{call}\n"
    )
