"""Rename-error oracle: the exact verdict of the renaming relations on a
fixed set of program pairs, recorded once and required to stay identical.

The pairs in INPUTS reach every place `renaming` raises a RenameError: each
shape, name, arity and literal check of the paired walk, both injectivity
checks of `add_var_to_renaming`, the uniqueness checks of
`check_disambiguation` and the arity check of `funinfo_renamevar`; a few
accepted pairs stand beside them.  Each pair is run through one relation:

- `disambiguation`: `check_disambiguation(old, new)`, which maps function
  names as well as variables;
- `renamevar`: `block_renamevar(old, new, EMPTY_RENAMING)`, function names
  held equal;
- `funinfo`: `funinfo_renamevar` on the first function each program defines.

Each record is the exact `str(RenameError)`, or `accepted` with, for
`disambiguation`, the certificate's two renamings.  A change to the
renaming code that keeps behaviour leaves every record unchanged.  To
compare against the fixture without pytest (exit status 1 on any mismatch):

    PYTHONPATH=src python3 tests/test_rename_oracle.py --check

To record the cases again, after a change that is meant to alter a verdict:

    PYTHONPATH=src python3 tests/test_rename_oracle.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

from yulkit.ast import hoisted_fundefs
from yulkit.dynamics import FunInfo
from yulkit.renaming import (
    EMPTY_RENAMING,
    RenameError,
    RenameKind,
    block_renamevar,
    check_disambiguation,
    funinfo_renamevar,
)
from yulkit.syntax import parse_program

import oracle

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CASES = FIXTURES / "golden" / "rename_cases.json"

_TWO = "function f() -> a, b { } "

# name -> (relation, old, new); the name starts with the RenameKind value it
# is expected to raise, or with "accepted".
INPUTS = {
    "unmapped-name: variable never declared": ("renamevar", "{ x := 1 }", "{ x := 1 }"),
    "unmapped-name: variable renamed inconsistently": ("renamevar", "{ let x x := 1 }", "{ let a b := 1 }"),
    "unmapped-name: function renamed inconsistently": (
        "disambiguation",
        "{ function f() { } function g() { } f() }",
        "{ function q() { } function r() { } r() }",
    ),
    "unmapped-name: free function renamed": (
        "disambiguation", "{ let x := add(1, 2) }", "{ let x := sub(1, 2) }"
    ),
    "injectivity-violation: free function captured": (
        "disambiguation",
        "{ function q() { } q() let x := add(1, 1) }",
        "{ function add() { } add() let x := add(1, 1) }",
    ),
    "injectivity-violation: variable renamed twice": ("renamevar", "{ let x let x }", "{ let a let b }"),
    "injectivity-violation: two variables onto one": ("renamevar", "{ let x let y }", "{ let a let a }"),
    "injectivity-violation: function renamed twice": (
        "disambiguation",
        "{ function f() { } { function f() { } } }",
        "{ function a() { } { function b() { } } }",
    ),
    "injectivity-violation: two functions onto one": (
        "disambiguation",
        "{ function f() { } { function g() { } } }",
        "{ function f() { } { function f() { } } }",
    ),
    "injectivity-violation: a variable name repeats": (
        "disambiguation", "{ { let x } { let y } }", "{ { let x } { let x } }"
    ),
    "injectivity-violation: a function name repeats": (
        "disambiguation",
        "{ { function f() { } } { function g() { } } }",
        "{ { function f() { } } { function f() { } } }",
    ),
    "injectivity-violation: a body variable onto a parameter": (
        "funinfo", "{ function f(a) { let x } }", "{ function f(b) { let b } }"
    ),
    "shape-mismatch: function called under another name": ("renamevar", "{ f() }", "{ g() }"),
    "shape-mismatch: function defined under another name": (
        "renamevar", "{ function f() { } }", "{ function g() { } }"
    ),
    "shape-mismatch: function definition count": (
        "renamevar", "{ function f() { } let x }", "{ let x let y }"
    ),
    "shape-mismatch: multi-part path": ("renamevar", "{ a.b := 1 }", "{ a.b := 1 }"),
    "shape-mismatch: expression kind": ("renamevar", "{ let x := 1 }", "{ let x := y }"),
    "shape-mismatch: statement count": ("renamevar", "{ let x }", "{ }"),
    "shape-mismatch: statement count of the whole program": (
        "disambiguation", "{ let x let y let z }", "{ let x }"
    ),
    "shape-mismatch: statement kind": ("renamevar", "{ let x }", "{ { } }"),
    "shape-mismatch: initializer against none": ("renamevar", "{ let x := 1 }", "{ let x }"),
    "shape-mismatch: declared name count": ("renamevar", "{ let x, y }", "{ let x, y, z }"),
    "shape-mismatch: multi-declaration initializer against none": (
        "renamevar", "{ " + _TWO + "let x, y := f() }", "{ " + _TWO + "let x, y }"
    ),
    "shape-mismatch: target count": (
        "renamevar",
        "{ " + _TWO + "let x let y x, y := f() }",
        "{ " + _TWO + "let x let y x, y, y := f() }",
    ),
    "shape-mismatch: case count": ("renamevar", "{ switch 1 case 1 { } }", "{ switch 1 case 1 { } case 2 { } }"),
    "shape-mismatch: default against none": (
        "renamevar", "{ switch 1 case 1 { } default { } }", "{ switch 1 case 1 { } }"
    ),
    "arity-mismatch: call": ("renamevar", "{ let x := add(1, 2) }", "{ let x := add(1) }"),
    "arity-mismatch: function definition": ("renamevar", "{ function f(a) { } }", "{ function f(a, b) { } }"),
    "arity-mismatch: function bodies": ("funinfo", "{ function f(a) -> r { } }", "{ function f(a) { } }"),
    "literal-mismatch: expression": ("renamevar", "{ let x := 1 }", "{ let x := 2 }"),
    "literal-mismatch: case value": ("renamevar", "{ switch 1 case 1 { } }", "{ switch 1 case 2 { } }"),
    "accepted: variables renamed": (
        "renamevar", "{ let x let y := add(x, 1) }", "{ let a let b := add(a, 1) }"
    ),
    "accepted: function renamed": (
        "disambiguation",
        "{ function f(a) -> r { r := a } { let x := f(1) } { let x := f(2) } }",
        "{ function g(b) -> s { s := b } { let x := g(1) } { let y := g(2) } }",
    ),
    "accepted: parameters renamed": (
        "funinfo", "{ function f(a) -> r { r := a } }", "{ function g(b) -> s { s := b } }"
    ),
}


def _first_function(source: str) -> FunInfo:
    return FunInfo.from_fundef(hoisted_fundefs(parse_program(source))[0])


def verdict(relation: str, old: str, new: str) -> str:
    """`accepted`, with the certificate's renamings for `disambiguation`, or
    the exact text of the RenameError."""
    try:
        if relation == "disambiguation":
            cert = check_disambiguation(parse_program(old), parse_program(new))
            return "accepted " + json.dumps(
                [cert.variable_renaming.pairs, cert.function_renaming.pairs]
            )
        if relation == "renamevar":
            block_renamevar(parse_program(old), parse_program(new), EMPTY_RENAMING)
        else:
            funinfo_renamevar(_first_function(old), _first_function(new))
    except RenameError as exc:
        return str(exc)
    return "accepted"


def compute_cases() -> dict:
    return {
        name: {"relation": relation, "old": old, "new": new, "verdict": verdict(relation, old, new)}
        for name, (relation, old, new) in INPUTS.items()
    }


def test_every_error_kind_is_recorded():
    recorded = json.loads(CASES.read_text())
    assert set(recorded) == set(INPUTS)
    kinds = {rec["verdict"].split(" ")[0].rstrip(":") for rec in recorded.values()}
    assert kinds == {k.value for k in RenameKind} | {"accepted"}
    for name, rec in recorded.items():
        assert rec["verdict"].startswith(name.split(":")[0]), name


def test_verdicts_unchanged():
    recorded = json.loads(CASES.read_text())
    for name, rec in recorded.items():
        assert verdict(rec["relation"], rec["old"], rec["new"]) == rec["verdict"], name


ORACLE = (compute_cases, dict, *oracle.json_fixture(CASES))

if __name__ == "__main__":
    sys.exit(oracle.main(sys.argv[1:], *ORACLE))
