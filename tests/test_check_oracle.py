"""Check oracle: the exact verdict of the static checker on a fixed set of
programs, recorded once and required to stay identical.

The fixture holds, for the builtins of `EVM_PURE`:

- hand-written inputs, at least one per `ErrorKind` and one per place the
  checker raises a kind from (a switch with neither cases nor a default does
  not parse, so its `mode-violation` is not here), and some safe programs;
- every program in tests/fixtures, as `.yul` text and as converted solc JSON;
- every mutated program of the parse oracle that parses.

Each record is either the exact `str(StaticError)` or `safe`.  A change to
the checker that keeps behaviour leaves every record unchanged.  To compare
against the fixture without pytest (exit status 1 on any mismatch):

    PYTHONPATH=src python3 tests/test_check_oracle.py --check

To record the cases again, after a change that is meant to alter a verdict:

    PYTHONPATH=src python3 tests/test_check_oracle.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

from yulkit.dynamics import EVM_PURE
from yulkit.solc_json import convert
from yulkit.statics import ErrorKind, StaticError, check_safe_top
from yulkit.syntax import parse_program

import oracle

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CASES = FIXTURES / "golden" / "check_cases.json"
PARSE_CASES = FIXTURES / "golden" / "parse_cases.json"

_TWO = "function two() -> a, b { } "
_NONE = "function none() { } "
_BIG = str(1 << 256)

# name -> source; the name starts with the ErrorKind value it is expected to
# raise, or with "safe".
INPUTS = {
    "unknown-var in expression": "{ let x := y }",
    "unknown-var as assignment target": "{ y := 1 }",
    "unknown-var as multi-assignment target": "{ " + _TWO + "let x x, y := two() }",
    "unknown-var after its block": "{ { let x } let y := x }",
    "unknown-var across a function boundary": "{ let x function f() { let y := x } }",
    "unknown-var of a loop initializer after the loop": "{ for { let i } 0 { } { } let y := i }",
    "unknown-var before its declaration": "{ let y := x let x }",
    "unknown-fun in expression": "{ let x := g() }",
    "unknown-fun as statement": "{ g() }",
    "unknown-fun in multi-declaration": "{ let a, b := g() }",
    "unknown-fun in multi-assignment": "{ let a let b a, b := g() }",
    "unknown-fun outside its block": "{ { function g() { } } g() }",
    "unknown-fun of a loop initializer after the loop": (
        "{ for { function g() { } } 0 { } { } g() }"
    ),
    "duplicate-var in declaration": "{ let x let x }",
    "duplicate-var in a nested block": "{ let x { let x } }",
    "duplicate-var in multi-declaration": "{ " + _TWO + "let x let y, x := two() }",
    "duplicate-var in multi-assignment": "{ " + _TWO + "let x x, x := two() }",
    "duplicate-var in a loop initializer": "{ let i for { let i } 0 { } { } }",
    "duplicate-var in a loop body": "{ for { let i } 0 { } { let i } }",
    "duplicate-var of a parameter": "{ function f(a) { let a } }",
    "duplicate-fun in one block": "{ function f() { } function f() { } }",
    "duplicate-fun of a builtin": "{ function add(a, b) -> c { } }",
    "duplicate-fun in a nested block": "{ function f() { } { function f() { } } }",
    "duplicate-fun in a loop initializer": (
        "{ for { function f() { } function f() { } } 0 { } { } }"
    ),
    "duplicate-fun in a loop body": "{ for { function f() { } } 0 { } { function f() { } } }",
    "arity-mismatch of a builtin": "{ let x := add(1) }",
    "arity-mismatch of a user function": "{ function f(a) { } f() }",
    "arity-mismatch in an argument": "{ let x := add(1, not(1, 2)) }",
    "result-count-mismatch in multi-declaration": "{ function f() -> a { } let x, y := f() }",
    "result-count-mismatch in multi-assignment": (
        "{ function f() -> a { } let x let y x, y := f() }"
    ),
    "result-count-mismatch of a call statement": "{ add(1, 2) }",
    "literal-too-large decimal": "{ let x := " + _BIG + " }",
    "literal-too-large decimal past the conversion limit": "{ let x := " + "9" * 5000 + " }",
    "literal-too-large hex": "{ let x := 0x1" + "0" * 64 + " }",
    "literal-too-large as case value": "{ switch 0 case " + _BIG + " { } }",
    "string-too-long plain": '{ let x := "' + "a" * 33 + '" }',
    "string-too-long in multibyte characters": '{ let x := "' + "é" * 17 + '" }',
    "string-too-long hex": '{ let x := hex"' + "00" * 33 + '" }',
    "bad-path in expression": "{ let x := a.b }",
    "bad-path as assignment target": "{ let a a.b := 1 }",
    "bad-path as multi-assignment target": "{ " + _TWO + "let a let b a, b.c := two() }",
    "mode-violation break at top level": "{ break }",
    "mode-violation several modes at top level": "{ if 1 { leave } continue }",
    "mode-violation in a loop initializer": "{ for { break } 1 { } { } }",
    "mode-violation in a loop update": "{ for { } 1 { continue } { } }",
    "mode-violation escaping a function": "{ function f() { break } }",
    "duplicate-case by value": "{ switch 0 case 1 { } case 0x01 { } }",
    "duplicate-case of a string and a number": '{ switch 0 case "a" { } case 97 { } }',
    "duplicate-case of true and one": "{ switch 0 case true { } case 1 { } }",
    "non-single-value argument": "{ " + _NONE + "let x := add(none(), 1) }",
    "non-single-value initializer": "{ " + _TWO + "let x := two() }",
    "non-single-value assignment": "{ " + _NONE + "let x x := none() }",
    "non-single-value if condition": "{ " + _NONE + "if none() { } }",
    "non-single-value switch target": "{ " + _NONE + "switch none() default { } }",
    "non-single-value loop condition": "{ " + _NONE + "for { } none() { } { } }",
    "safe break and continue in a loop": "{ for { let i } lt(i, 2) { i := add(i, 1) } { break continue } }",
    "safe leave in a function": "{ function f() -> r { if 1 { leave } r := 1 } let x := f() }",
    "safe functions hoisted in every block": "{ g() function g() { h() function h() { } } }",
    "safe sibling blocks reuse names": "{ { let x function f() { } } { let x function f() { } } }",
    "safe loop initializer scopes the loop": (
        "{ for { let i function f() -> r { } } lt(i, f()) { i := f() } { i := add(i, 1) } }"
    ),
    "safe dead code after leave": "{ function f() -> r { leave r := 1 } }",
    "mode-violation of dead code after leave": "{ function f() { leave break } }",
}


def verdict(block) -> str:
    """`safe`, or the exact text of the checker's error."""
    try:
        check_safe_top(block, EVM_PURE.funtable())
    except StaticError as exc:
        return str(exc)
    return "safe"


def parsed_mutants() -> list:
    """The mutated sources of the parse oracle that parse, in its order."""
    mutated = json.loads(PARSE_CASES.read_text())["mutated"]
    return [rec["source"] for rec in mutated if "printed" in rec]


def compute_cases() -> dict:
    fixtures = {}
    for path in sorted(FIXTURES.glob("*.yul")):
        fixtures[path.name] = verdict(parse_program(path.read_text()))
    for path in sorted(FIXTURES.glob("*.json")):
        fixtures[path.name] = verdict(convert(json.loads(path.read_text())))
    return {
        "inputs": {name: {"source": src, "verdict": verdict(parse_program(src))} for name, src in INPUTS.items()},
        "fixtures": fixtures,
        "mutants": [{"source": src, "verdict": verdict(parse_program(src))} for src in parsed_mutants()],
    }


def test_every_error_kind_is_recorded():
    recorded = json.loads(CASES.read_text())["inputs"]
    assert set(recorded) == set(INPUTS)
    kinds = {rec["verdict"].split(":")[0] for rec in recorded.values()}
    assert kinds == {k.value for k in ErrorKind} | {"safe"}
    for name, rec in recorded.items():
        assert rec["verdict"].startswith(name.split(" ")[0]), name


def test_inputs_unchanged():
    recorded = json.loads(CASES.read_text())["inputs"]
    for name, rec in recorded.items():
        assert verdict(parse_program(rec["source"])) == rec["verdict"], name


def test_fixtures_unchanged():
    assert json.loads(CASES.read_text())["fixtures"] == compute_cases()["fixtures"]


def test_parse_mutants_unchanged():
    recorded = json.loads(CASES.read_text())["mutants"]
    assert [rec["source"] for rec in recorded] == parsed_mutants()
    for i, rec in enumerate(recorded):
        assert verdict(parse_program(rec["source"])) == rec["verdict"], f"mutant {i}: {rec['source']!r}"


def _labelled(cases: dict) -> dict:
    """Every record of a set of cases, by a label that names it."""
    labelled = {f"input {name}": rec for name, rec in cases["inputs"].items()}
    labelled.update((f"fixture {name}", rec) for name, rec in cases["fixtures"].items())
    labelled.update((f"mutant {i}", rec) for i, rec in enumerate(cases["mutants"]))
    return labelled


ORACLE = (compute_cases, _labelled, *oracle.json_fixture(CASES))

if __name__ == "__main__":
    sys.exit(oracle.main(sys.argv[1:], *ORACLE))
