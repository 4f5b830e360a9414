"""End-to-end command-line behaviour: exit codes, output formats, and the
certificate JSON emitted by the validate family."""

import hashlib
import io
import json
import sys

import pytest

from conftest import DEEP_RECURSION, DISAMBIGUATED_SRC, FIXTURES, SCOPING_SRC, run_fresh
from yulkit import __version__, cli
from yulkit.cli import EXIT_INPUT, EXIT_OK, EXIT_REJECTED, main
from yulkit.testgen import run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parse ---


def test_parse_literal_arg(capsys):
    code, out, _ = run_cli(capsys, "parse", "{let x x:=17}")
    assert code == EXIT_OK
    assert out == "{\n    let x\n    x := 17\n}\n"


def test_parse_single_statement_inline(capsys):
    code, out, _ = run_cli(capsys, "parse", "{let x}")
    assert code == EXIT_OK
    assert out == "{ let x }\n"


def test_parse_file(capsys):
    code, out, _ = run_cli(capsys, "parse", str(FIXTURES / "scoping.yul"))
    assert code == EXIT_OK
    assert out.strip() == SCOPING_SRC.strip()


def test_parse_json_autodetect(capsys):
    code, out, _ = run_cli(capsys, "parse", str(FIXTURES / "scoping.json"))
    assert code == EXIT_OK
    assert out.strip() == SCOPING_SRC.strip()


def test_parse_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "parse", "{ let }")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "DIR"],
        ["import-json", "DIR"],
        ["validate", "DIR", "{ }", "--transform", "dead-code"],
        ["validate", "{ }", "DIR", "--transform", "dead-code"],
    ],
    ids=["parse", "import-json", "validate-old", "validate-new"],
)
def test_unreadable_input_exits_2(capsys, tmp_path, argv):
    # a directory exists but cannot be read: input error, not a traceback
    argv = [str(tmp_path) if arg == "DIR" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: {tmp_path}: cannot read: Is a directory\n"


def test_missing_file_treated_as_source(capsys):
    # a nonexistent path is taken as literal text, which then fails to parse
    code, _, err = run_cli(capsys, "parse", "/no/such/file.yul")
    assert code == EXIT_INPUT
    assert "error:" in err


# --- check ---


def test_check_safe(capsys):
    code, out, _ = run_cli(capsys, "check", "{ let x := add(1, 2) }")
    assert code == EXIT_OK
    assert out == "safe\n"


def test_check_unsafe(capsys):
    code, out, _ = run_cli(capsys, "check", "{ x := 1 }")
    assert code == EXIT_REJECTED
    assert out.startswith("unsafe: unknown-var")


def test_check_dialect_none(capsys):
    code, out, _ = run_cli(capsys, "check", "--dialect", "none", "{ pop(add(1, 2)) }")
    assert code == EXIT_REJECTED
    assert "unknown-fun" in out


# --- run ---


def test_run_scoping(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--fuel", "100", str(FIXTURES / "scoping.yul")
    )
    assert code == EXIT_OK
    assert out == "x=0\nmode=regular\n"


def test_run_fuel_exhausted(capsys):
    code, out, _ = run_cli(capsys, "run", "--fuel", "0", "{ }")
    assert code == EXIT_REJECTED
    assert out == "error=limit\n"


def test_run_refuses_a_negative_fuel(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--fuel", "-5", "{ }"])
    assert exc.value.code == EXIT_INPUT
    assert "invalid count value: '-5'" in capsys.readouterr().err


def test_run_deep_recursion_settles_on_the_deep_stack(capsys):
    code, out, _ = run_cli(capsys, "run", DEEP_RECURSION)
    assert (code, out) == (EXIT_OK, "x=0\nmode=regular\n")


def test_run_reports_host_limit(capsys, monkeypatch, fresh_recursion_limit):
    # On an ordinary stack the same recursion exhausts the host, not the fuel.
    monkeypatch.setattr(cli, "call_with_deep_stack", lambda fn, *args: fn(*args))
    fresh_recursion_limit()
    code, out, _ = run_cli(capsys, "run", DEEP_RECURSION)
    assert code == EXIT_REJECTED
    assert out == "error=host-limit\n"


def test_run_safety_error(capsys):
    # top level must finish in regular mode; a stray break is caught there
    code, out, _ = run_cli(capsys, "run", "{ break }")
    assert code == EXIT_REJECTED
    assert out == "error=safety:mode-violation\n"


def test_run_refuses_a_numeral_too_long_for_int(capsys):
    code, out, err = run_cli(capsys, "run", "{ let x := " + "9" * 5000 + " }")
    assert (code, out) == (EXIT_REJECTED, "error=safety:literal-too-large\n")
    assert "Traceback" not in err


def test_run_safety_error_inside_update(capsys):
    code, out, _ = run_cli(capsys, "run", "{ for { } 1 { break } { } }")
    assert code == EXIT_REJECTED
    assert out == "error=safety:break-outside-loop\n"


def test_run_with_vars(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--var", "x=41", "--var", "y=0x10", "{ x := add(x, y) }"
    )
    assert code == EXIT_OK
    assert out == "x=57\ny=16\nmode=regular\n"


def test_run_var_bad_binding(capsys):
    code, _, err = run_cli(capsys, "run", "--var", "nonsense", "{ }")
    assert code == EXIT_INPUT
    assert "name=value" in err


def test_run_var_out_of_range(capsys):
    for too_big in (str(1 << 256), "1" * 5000):
        code, _, err = run_cli(capsys, "run", "--var", f"x={too_big}", "{ }")
        assert code == EXIT_INPUT
        assert "out of range" in err


@pytest.mark.parametrize(
    "value",
    ["\u0663", "1_000", "+5", " 7", "0x_ff", "007", "0X1f", "", "0x"],
    ids=["arabic-indic-digit", "underscore", "sign", "space", "hex-underscore",
         "leading-zeros", "upper-x", "empty", "bare-0x"],
)
def test_run_var_value_is_a_yul_numeral(capsys, value):
    # a value is a numeral as a program writes it: no sign, underscore, space,
    # leading zero, `0X` or non-ASCII digit
    code, out, err = run_cli(capsys, "run", "--var", f"x={value}", "{ }")
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "value, bound",
    [("0", 0), ("0x1F", 31), ("0x" + "0" * 70 + "ff", 255), (str((1 << 256) - 1), (1 << 256) - 1)],
    ids=["zero", "hex", "hex-leading-zeros", "largest"],
)
def test_run_var_binds_a_numeral(capsys, value, bound):
    code, out, _ = run_cli(capsys, "run", "--var", f"x={value}", "{ }")
    assert (code, out) == (EXIT_OK, f"x={bound}\nmode=regular\n")


@pytest.mark.parametrize(
    "bindings",
    [["1x=3"], ["let=4"], ["a.b=1"], ["x=1", "x=2"]],
    ids=["digit-first", "keyword", "path", "twice"],
)
def test_run_var_takes_each_identifier_once(capsys, bindings):
    argv = [arg for binding in bindings for arg in ("--var", binding)]
    code, out, err = run_cli(capsys, "run", *argv, "{ }")
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: ")


# --- transform ---


def test_transform_dead_code(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--pass", "dead-code", "{ for { } 1 { } { break x := 1 } }"
    )
    assert code == EXIT_OK
    assert out == "{\n    for { } 1 { } { break }\n}\n"


def test_transform_loop_init(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform",
        "--pass",
        "loop-init-rewrite",
        "{ for { let i := 0 } lt(i, 3) { i := add(i, 1) } { } }",
    )
    assert code == EXIT_OK
    assert out == (
        "{\n"
        "    {\n"
        "        let i := 0\n"
        "        for { } lt(i, 3) { i := add(i, 1) } { }\n"
        "    }\n"
        "}\n"
    )


# --- import-json ---


def test_import_json(capsys):
    code, out, _ = run_cli(capsys, "import-json", str(FIXTURES / "scoping.json"))
    assert code == EXIT_OK
    assert out.strip() == SCOPING_SRC.strip()


def test_import_json_invalid_json(capsys):
    code, _, err = run_cli(capsys, "import-json", "{ not json")
    assert code == EXIT_INPUT
    assert "not valid JSON" in err


def test_import_json_bad_schema(capsys):
    code, _, err = run_cli(
        capsys, "import-json", json.dumps({"nodeType": "YulTeapot"})
    )
    assert code == EXIT_INPUT
    assert "error:" in err


# --- validate: executable transforms ---


def cert_of(out):
    return json.loads(out)


def test_validate_dead_code_accept(capsys, tmp_path):
    old = tmp_path / "old.yul"
    new = tmp_path / "new.yul"
    old.write_text("{ for { } 1 { } { break x := 1 } }\n")
    new.write_text("{ for { } 1 { } { break } }\n")
    code, out, _ = run_cli(
        capsys, "validate", str(old), str(new), "--transform", "dead-code"
    )
    assert code == EXIT_OK
    cert = cert_of(out)
    assert cert["tool"] == "yulkit"
    assert cert["tool_version"] == __version__
    assert cert["schema"] == 1
    assert cert["transform"] == "dead-code"
    assert cert["result"] == "accepted"
    assert "detail" not in cert  # acceptance of an executable transform is bare
    assert [entry["path"] for entry in cert["inputs"]] == [str(old), str(new)]
    assert cert["inputs"][0]["sha256"] == hashlib.sha256(old.read_bytes()).hexdigest()
    assert cert["inputs"][1]["sha256"] == hashlib.sha256(new.read_bytes()).hexdigest()


def test_validate_dead_code_reject(capsys, tmp_path):
    old = tmp_path / "old.yul"
    new = tmp_path / "new.yul"
    old.write_text("{ for { } 1 { } { break x := 1 } }\n")
    new.write_text("{ for { } 1 { } { break x := 1 } }\n")  # not transformed
    code, out, _ = run_cli(
        capsys, "validate", str(old), str(new), "--transform", "dead-code"
    )
    assert code == EXIT_REJECTED
    cert = cert_of(out)
    assert cert["result"] == "rejected"
    assert "does not match" in cert["detail"]["error"]


def test_validate_loop_init_differential(capsys, tmp_path):
    old = tmp_path / "old.yul"
    new = tmp_path / "new.yul"
    old.write_text("{ let s for { let i := 0 } lt(i, 3) { i := add(i, 1) } { s := add(s, i) } }")
    new.write_text("{ let s { let i := 0 for { } lt(i, 3) { i := add(i, 1) } { s := add(s, i) } } }")
    code, out, _ = run_cli(
        capsys,
        "validate",
        str(old),
        str(new),
        "--transform",
        "loop-init-rewrite",
        "--differential",
        "5",
    )
    assert code == EXIT_OK
    cert = cert_of(out)
    assert cert["result"] == "accepted"
    assert "differential" in cert["suites_run"]


def test_validate_old_on_stdin(capsys, monkeypatch, tmp_path):
    # OLD is read once: the tree checked and the bytes hashed are the same.
    data = b"{ let s for { let i := 0 } lt(i, 3) { i := add(i, 1) } { s := add(s, i) } }"
    new = tmp_path / "new.yul"
    new.write_text("{ let s { let i := 0 for { } lt(i, 3) { i := add(i, 1) } { s := add(s, i) } } }")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run_cli(
        capsys, "validate", "-", str(new), "--transform", "loop-init-rewrite"
    )
    assert (code, err) == (EXIT_OK, "")
    cert = cert_of(out)
    assert cert["result"] == "accepted"
    assert cert["inputs"][0] == {"path": "<stdin>", "sha256": hashlib.sha256(data).hexdigest()}
    assert cert["inputs"][1]["path"] == str(new)


@pytest.mark.parametrize(
    "argv",
    [["validate", "-", "-", "--transform", "dead-code"], ["validate-rename", "-", "-"]],
    ids=["validate", "validate-rename"],
)
def test_validate_refuses_stdin_as_both_inputs(capsys, monkeypatch, argv):
    # standard input can be read only once, so it cannot be both OLD and NEW
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"{ }")))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: OLD and NEW are both '-', but standard input can be read only once\n"


# A pair each transform accepts, the relation its differential runs check,
# and the error its certificate gives when a run refutes the relation.
DEMOTIONS = {
    "dead-code": (
        "{ for { } 1 { } { break x := 1 } }",
        "{ for { } 1 { } { break } }",
        "okeq",
        "differential run found diverging outcomes",
    ),
    "loop-init-rewrite": (
        "{ let s for { let i := 0 } lt(i, 3) { i := add(i, 1) } { s := add(s, i) } }",
        "{ let s { let i := 0 for { } lt(i, 3) { i := add(i, 1) } { s := add(s, i) } } }",
        "okeq",
        "differential run found diverging outcomes",
    ),
    "disambiguate": (
        SCOPING_SRC,
        DISAMBIGUATED_SRC,
        "soutcome_result_renamevar",
        "differential run found unrelated outcomes",
    ),
}


@pytest.mark.parametrize("transform", sorted(DEMOTIONS))
def test_validate_differential_refutation_demotes(capsys, monkeypatch, tmp_path, transform):
    old_src, new_src, relation, error = DEMOTIONS[transform]
    old = tmp_path / "old.yul"
    new = tmp_path / "new.yul"
    old.write_text(old_src)
    new.write_text(new_src)
    monkeypatch.setattr(cli, relation, lambda *args: False)
    code, out, _ = run_cli(
        capsys, "validate", str(old), str(new), "--transform", transform, "--differential", "4"
    )
    assert code == EXIT_REJECTED
    cert = cert_of(out)
    assert cert["result"] == "rejected"
    assert cert["detail"] == {"error": error}
    summary = cert["suites_run"]["differential"]
    assert set(summary) == {"runs", "failed_fuel", "state"}
    assert summary["runs"] == 4


# Every name a differential run may add to the initial state, z0 to z999,
# is declared: the runs must still end.  In a fresh interpreter, so that a
# run that never ends fails at the timeout.
EVERY_STATE_NAME = "{ " + " ".join(f"let z{i}" for i in range(1000)) + " }"


@pytest.mark.parametrize("transform", sorted(DEMOTIONS))
def test_validate_differential_with_every_state_name_taken(tmp_path, transform):
    program = tmp_path / "every.yul"
    program.write_text(EVERY_STATE_NAME)
    argv = ["validate", str(program), str(program), "--transform", transform, "--differential", "4"]
    out = run_fresh(f"import sys\nfrom yulkit.cli import main\nsys.exit(main({argv!r}))", timeout=60)
    cert = cert_of(out)
    assert cert["result"] == "accepted"
    assert cert["suites_run"]["differential"]["runs"] == 4


# --- validate: disambiguation ---


def test_validate_disambiguate_accept(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate",
        str(FIXTURES / "scoping.yul"),
        str(FIXTURES / "scoping_disambiguated.yul"),
        "--transform",
        "disambiguate",
    )
    assert code == EXIT_OK
    cert = cert_of(out)
    assert cert["result"] == "accepted"
    assert cert["detail"]["variable_renaming"] == [["x", "x"]]
    assert sorted(cert["detail"]["function_renaming"]) == [["f", "f"], ["g", "g"]]


def test_validate_disambiguate_reject_reversed(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate",
        str(FIXTURES / "scoping_disambiguated.yul"),
        str(FIXTURES / "scoping.yul"),
        "--transform",
        "disambiguate",
    )
    assert code == EXIT_REJECTED
    cert = cert_of(out)
    assert cert["result"] == "rejected"
    assert "error" in cert["detail"]


def test_validate_rename_alias(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate-rename",
        str(FIXTURES / "scoping.yul"),
        str(FIXTURES / "scoping_disambiguated.yul"),
        "--differential",
        "3",
    )
    assert code == EXIT_OK
    cert = cert_of(out)
    assert cert["transform"] == "disambiguate"
    assert cert["result"] == "accepted"
    assert "differential" in cert["suites_run"]


def test_validate_self_pair_rejected(capsys):
    # the same code twice is not a valid disambiguation (nothing got renamed
    # apart, so the original clashes are still there)
    code, out, _ = run_cli(
        capsys,
        "validate-rename",
        str(FIXTURES / "scoping.yul"),
        str(FIXTURES / "scoping.yul"),
    )
    assert code == EXIT_REJECTED
    assert cert_of(out)["result"] == "rejected"


# --- suite ---


def test_suite_round_trip(capsys):
    code, out, _ = run_cli(capsys, "suite", "round-trip", "--n", "5")
    assert code == EXIT_OK
    assert out == "suite round-trip: 5 case(s), 0 failure(s)\n"


def test_suite_custom_fuels(capsys):
    code, out, _ = run_cli(
        capsys, "suite", "static-soundness", "--n", "3", "--fuel", "4", "--fuel", "64"
    )
    assert code == EXIT_OK
    assert "0 failure(s)" in out


@pytest.mark.parametrize("name", ["fuel-monotonicity", "gen-safety", "restrictions", "round-trip"])
def test_suite_fuel_refused_where_no_run_takes_it(capsys, name):
    code, out, err = run_cli(capsys, "suite", name, "--n", "1", "--fuel", "4")
    assert (code, out) == (EXIT_INPUT, "")
    assert err == (
        f"error: suite {name} takes no fuels "
        "(only dead-code, loop-init, renamevar, static-soundness do)\n"
    )
    with pytest.raises(ValueError, match="takes no fuels"):
        run_suite(name, 1, fuels=(4,))


@pytest.mark.parametrize("fuel", ["0", "-3"])
def test_suite_refuses_a_fuel_below_1(capsys, fuel):
    # a run at such a fuel executes nothing, so its suite could only pass
    code, out, err = run_cli(
        capsys, "suite", "static-soundness", "--n", "3", "--fuel", "4", "--fuel", fuel
    )
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: fuels must be at least 1, got {fuel}\n"
    with pytest.raises(ValueError, match=f"got {fuel}$"):
        run_suite("static-soundness", 1, fuels=(int(fuel),))


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "round-trip", "--n"],
        ["validate", "{ }", "{ }", "--transform", "dead-code", "--differential"],
        ["validate-rename", "{ }", "{ }", "--differential"],
    ],
    ids=["suite-n", "validate-differential", "validate-rename-differential"],
)
def test_counts_are_refused_below_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-1"])
    assert exc.value.code == EXIT_INPUT
    assert "invalid count value: '-1'" in capsys.readouterr().err
    assert main(argv + ["0"]) == EXIT_OK
    capsys.readouterr()


def test_suite_replay(capsys):
    code, out, _ = run_cli(capsys, "suite", "round-trip", "--replay", "3")
    assert code == EXIT_OK
    assert out == "replay of seed 3: pass\n"


@pytest.mark.parametrize("extra", [["--n", "50"], ["--seed", "9"]], ids=["n", "seed"])
def test_suite_replay_refuses_n_and_seed(capsys, extra):
    # a replay runs the one case its seed names; --n and --seed would be ignored
    code, out, err = run_cli(capsys, "suite", "round-trip", "--replay", "3", *extra)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: --replay reruns one case by its seed; it takes no --n or --seed\n"


def test_suite_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "no-such-suite"])
    assert exc.value.code == 2
    capsys.readouterr()


# --- misc ---


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_no_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parser_is_built_once_and_answers_as_a_fresh_one(capsys):
    assert cli._build_parser() is cli._build_parser()
    fresh = cli._build_parser.__wrapped__()
    for argv in ([], ["run"], ["run", "--fuel", "x", "{ }"], ["frobnicate"], ["--version"]):
        answers = []
        for parse in (main, fresh.parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            answers.append((exc.value.code, capsys.readouterr()))
        assert answers[0] == answers[1] == answers[2], argv
    assert run_cli(capsys, "run", "{ let x := 1 }") == (EXIT_OK, "x=1\nmode=regular\n", "")
