"""Renaming relations, global uniqueness, disambiguation checking, and the
reference renamers."""

import pytest

from yulkit.ast import to_source
from yulkit.dynamics import CState, EVM_PURE, LimitError, Mode, SOutcome, exec_top
from yulkit.renaming import (
    EMPTY_RENAMING,
    DisambiguationCertificate,
    RenameError,
    RenameKind,
    Renaming,
    add_var_to_renaming,
    block_renamevar,
    check_disambiguation,
    cstate_renamevar,
    reference_disambiguate,
    reference_renamevar,
    soutcome_renamevar,
    soutcome_result_renamevar,
    statement_renamevar,
    unique_funs,
    unique_vars,
)
from yulkit.statics import check_safe_top
from yulkit.syntax import parse_program

from conftest import SCOPING_SRC


def stmt(src):
    return parse_program("{ " + src + " }").statements[0]


# --- the renaming datatype ---


def test_renaming_extension():
    ren = add_var_to_renaming(EMPTY_RENAMING, "x", "y1")
    assert ren.pairs == (("x", "y1"),)


def test_renaming_rejects_duplicate_target():
    ren = add_var_to_renaming(EMPTY_RENAMING, "x", "y1")
    with pytest.raises(RenameError) as e:
        add_var_to_renaming(ren, "z", "y1")
    assert e.value.kind == RenameKind.INJECTIVITY_VIOLATION


def test_renaming_rejects_duplicate_key():
    ren = add_var_to_renaming(EMPTY_RENAMING, "x", "y1")
    with pytest.raises(RenameError):
        add_var_to_renaming(ren, "x", "y2")


def test_renaming_identity_pairs_allowed():
    ren = add_var_to_renaming(EMPTY_RENAMING, "x", "x")
    ren = add_var_to_renaming(ren, "w", "w")
    assert ren.pairs == (("x", "x"), ("w", "w"))


def test_renaming_construction_validates():
    # direct construction validates like the tree nodes do
    with pytest.raises(ValueError):
        Renaming((("a", "c"), ("b", "c")))
    with pytest.raises(ValueError):
        Renaming((("a", "b"), ("a", "c")))


# --- statement/block variable renaming ---


def test_statement_renamevar_extends_on_declaration():
    ren = statement_renamevar(stmt("let y1"), stmt("let y2"), EMPTY_RENAMING)
    assert ren.pairs == (("y1", "y2"),)


def test_statement_renamevar_identity_use():
    ren = Renaming((("x", "x"),))
    out = statement_renamevar(stmt("x := 17"), stmt("x := 17"), ren)
    assert out == ren


def test_statement_renamevar_literal_mismatch():
    ren = Renaming((("x", "y"),))
    with pytest.raises(RenameError) as e:
        statement_renamevar(stmt("x := 1"), stmt("y := 2"), ren)
    assert e.value.kind == RenameKind.LITERAL_MISMATCH


def test_statement_renamevar_use_must_map():
    ren = Renaming((("x", "y"),))
    statement_renamevar(stmt("x := 1"), stmt("y := 1"), ren)
    with pytest.raises(RenameError):
        statement_renamevar(stmt("x := 1"), stmt("z := 1"), ren)


def test_statement_renamevar_function_names_rigid():
    ren = EMPTY_RENAMING
    statement_renamevar(stmt("f()"), stmt("f()"), ren)
    with pytest.raises(RenameError):
        statement_renamevar(stmt("f()"), stmt("g()"), ren)


def test_block_renamevar_returns_input_renaming():
    ren = Renaming((("a", "b"),))
    assert block_renamevar(parse_program("{ }"), parse_program("{ }"), ren) == ren
    out = block_renamevar(
        parse_program("{ let q let r }"), parse_program("{ let q2 let r2 }"), ren
    )
    assert out == ren  # block-local pairs do not escape


def test_block_renamevar_shape_mismatch():
    with pytest.raises(RenameError) as e:
        block_renamevar(
            parse_program("{ let a }"), parse_program("{ let a let b }"), EMPTY_RENAMING
        )
    assert e.value.kind == RenameKind.SHAPE_MISMATCH


def test_renamevar_old_shadowing_rejected():
    # renaming keys must stay unique, so re-declaring a visible old name is
    # out of the relation's domain
    old = parse_program("{ let a { let a } }")
    new = parse_program("{ let a { let a1 } }")
    with pytest.raises(RenameError) as e:
        block_renamevar(old, new, EMPTY_RENAMING)
    assert e.value.kind == RenameKind.INJECTIVITY_VIOLATION


def test_renamevar_for_init_pairs_scope_over_loop():
    old = parse_program("{ for { let i } lt(i, 2) { i := 1 } { let j := i } }")
    new = parse_program("{ for { let k } lt(k, 2) { k := 1 } { let m := k } }")
    assert block_renamevar(old, new, EMPTY_RENAMING) == EMPTY_RENAMING


def test_renamevar_variable_may_share_a_builtin_name():
    # variables and functions are separate namespaces: a variable renamed to
    # `add` does not disturb calls of the builtin `add`
    old = parse_program("{ let a let s := add(a, 1) }")
    new = parse_program("{ let add let t := add(add, 1) }")
    block_renamevar(old, new, EMPTY_RENAMING)


# --- function renaming (within the disambiguation check) ---


def test_check_disambiguation_call_must_match():
    old = parse_program("{ function f() { } function g() { } f() }")
    renamed = parse_program("{ function q() { } function r() { } q() }")
    check_disambiguation(old, renamed)
    crossed = parse_program("{ function q() { } function r() { } r() }")
    with pytest.raises(RenameError) as e:
        check_disambiguation(old, crossed)
    assert str(e.value) == "unmapped-name: function f renames to q, found r"


def test_renamefun_free_builtin_must_not_be_captured():
    # old calls the free builtin `add`; renaming a local function onto that
    # name would capture the call
    old = parse_program("{ function q() { } q() let x := add(1, 1) }")
    good = parse_program("{ function p() { } p() let x := add(1, 1) }")
    check_disambiguation(old, good)
    bad = parse_program("{ function add() { } add() let x := add(1, 1) }")
    with pytest.raises(RenameError) as e:
        check_disambiguation(old, bad)
    assert e.value.kind == RenameKind.INJECTIVITY_VIOLATION


@pytest.mark.parametrize(
    "new_src",
    ["{ function f(c) -> b { b := c } }", "{ function f(a) -> d { d := a } }"],
    ids=["parameter", "result"],
)
def test_changed_signature_names_keep_the_function_pair(new_src):
    old = parse_program("{ function f(a) -> b { b := a } }")
    new = parse_program(new_src)
    assert check_disambiguation(old, new).function_renaming == Renaming((("f", "f"),))


def test_block_renamevar_refuses_dotted_path():
    block = parse_program("{ a.b := 1 }")
    with pytest.raises(RenameError) as e:
        block_renamevar(block, block, EMPTY_RENAMING)
    assert e.value.kind == RenameKind.SHAPE_MISMATCH


# --- global uniqueness ---


def test_unique_vars_funs_disambiguated(disambiguated_block):
    assert unique_vars(disambiguated_block) is True
    assert unique_funs(disambiguated_block) is True


def test_unique_vars_funs_original(scoping_block):
    assert unique_vars(scoping_block) is False  # y twice
    assert unique_funs(scoping_block) is False  # h twice


def test_unique_empty_block():
    empty = parse_program("{ }")
    assert unique_vars(empty) is True and unique_funs(empty) is True


def test_unique_vars_counts_params():
    assert unique_vars(parse_program("{ function f(a) { } function g(a) { } }")) is False


# --- disambiguation checking ---


def test_check_disambiguation_accepts_pair(scoping_block, disambiguated_block):
    cert = check_disambiguation(scoping_block, disambiguated_block)
    assert isinstance(cert, DisambiguationCertificate)
    assert cert.variable_renaming.pairs == (("x", "x"),)
    assert cert.function_renaming.pairs == (("f", "f"), ("g", "g"))


def test_check_disambiguation_rejects_non_unique(scoping_block):
    with pytest.raises(RenameError) as e:
        check_disambiguation(scoping_block, scoping_block)
    assert e.value.kind == RenameKind.INJECTIVITY_VIOLATION


def test_check_disambiguation_empty_pair():
    cert = check_disambiguation(parse_program("{ }"), parse_program("{ }"))
    assert cert.variable_renaming == EMPTY_RENAMING
    assert cert.function_renaming == EMPTY_RENAMING


def test_check_disambiguation_rejects_swapped(scoping_block, disambiguated_block):
    with pytest.raises(RenameError):
        check_disambiguation(disambiguated_block, scoping_block)


# --- reference renamers ---


def test_reference_disambiguate_scoping(scoping_block):
    new = reference_disambiguate(scoping_block)
    check_disambiguation(scoping_block, new)
    assert unique_vars(new) and unique_funs(new)


def test_reference_disambiguate_unique_input_unchanged(disambiguated_block):
    assert reference_disambiguate(disambiguated_block) == disambiguated_block


def test_reference_disambiguate_total_on_shadowing():
    # the renamer is total even on illegal input; the relation then rejects
    # the (input, output) pair because the old code reuses a visible name
    shadowed = parse_program("{ let a { let a } }")
    renamed = reference_disambiguate(shadowed)
    assert renamed == parse_program("{ let a { let a1 } }")
    with pytest.raises(RenameError):
        check_disambiguation(shadowed, renamed)


def test_reference_renamevar_keeps_function_names():
    block = parse_program(SCOPING_SRC)
    renamed = reference_renamevar(block)
    ren = block_renamevar(block, renamed, EMPTY_RENAMING)
    assert ren == EMPTY_RENAMING
    # function names unchanged, including both h definitions
    assert to_source(renamed).count("function h()") == 2
    assert "function f()" in to_source(renamed)


# --- execution-level relations ---


def test_cstate_renamevar_examples():
    ren = Renaming((("x", "y"),))
    assert cstate_renamevar(CState({"x": 7}), CState({"y": 7}), ren) is True
    assert cstate_renamevar(CState({"x": 7}), CState({"y": 8}), ren) is False
    # domains must match the renaming exactly
    assert cstate_renamevar(CState({"x": 7, "q": 1}), CState({"y": 7}), ren) is False


def test_soutcome_renamevar_mode_mismatch():
    ren = Renaming((("x", "y"),))
    a = SOutcome(CState({"x": 7}), Mode.BREAK)
    b = SOutcome(CState({"y": 7}), Mode.LEAVE)
    assert soutcome_renamevar(a, b, ren) is False
    b_ok = SOutcome(CState({"y": 7}), Mode.BREAK)
    assert soutcome_renamevar(a, b_ok, ren) is True


def test_soutcome_result_renamevar_errors():
    ren = EMPTY_RENAMING
    ok = SOutcome(CState({}), Mode.REGULAR)
    assert soutcome_result_renamevar(LimitError(), LimitError(), ren) is True
    assert soutcome_result_renamevar(ok, LimitError(), ren) is False
    assert soutcome_result_renamevar(LimitError(), ok, ren) is False
    assert soutcome_result_renamevar(ok, ok, ren) is True


def test_renamed_execution_related(scoping_block):
    renamed = reference_renamevar(scoping_block)
    out_old = exec_top(scoping_block, limit=100)
    out_new = exec_top(renamed, limit=100)
    ren = Renaming((("x", "x"),))
    assert soutcome_renamevar(out_old, out_new, ren) is True


def test_error_kind_strings():
    err = RenameError(RenameKind.SHAPE_MISMATCH, "statement counts differ")
    assert str(err) == "shape-mismatch: statement counts differ"
