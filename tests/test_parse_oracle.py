"""Parse oracle: the exact result of parsing a fixed set of inputs, recorded
once and required to stay identical.

The fixture holds one input for every place the parser raises (the nesting
cap included), and seeded mutations of small generated programs: each
program cut before a random token, with a random token deleted, and with a
random token replaced by one of SUBSTITUTES.  Each record is the source and
either the exact `str(ParseError)` or the parsed tree printed by `to_source`.

A change to the parser that keeps behaviour leaves every record unchanged.
To compare against the fixture without pytest (exit status 1 on any
mismatch):

    PYTHONPATH=src python3 tests/test_parse_oracle.py --check

To record the cases again, after a change that is meant to alter an output:

    PYTHONPATH=src python3 tests/test_parse_oracle.py --write
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

from yulkit.ast import to_source
from yulkit.generate import GenConfig, gen_program
from yulkit.syntax import MAX_NESTING, ParseError, lex, parse_program

import oracle

# In a subdirectory: every *.json directly in tests/fixtures is a solc AST
# fixture paired with Yul text.
CASES = pathlib.Path(__file__).parent / "fixtures" / "golden" / "parse_cases.json"

# One input per place the parser raises (several where a place has variants).
ERROR_INPUTS = {
    "expected open brace": "let x",
    "expected open brace at end of input": "",
    "expected close brace at end of input": "{ let x := 1",
    "expected close paren": "{ f(1 2) }",
    "expected open paren after function name": "{ function f { } }",
    "expected assignment": "{ x }",
    "expected assignment after targets": "{ x, y }",
    "expected variable name": "{ let 1 }",
    "expected variable name after comma": "{ let a, }",
    "keyword as variable name": "{ let break }",
    "expected function name": "{ function (a) { } }",
    "expected parameter name": "{ function f(1) { } }",
    "expected parameter name after comma": "{ function f(a, ) { } }",
    "expected result name": "{ function f() -> { } }",
    "expected result name after comma": "{ function f() -> a, { } }",
    "expected identifier in path": "{ a. := 1 }",
    "expected identifier after dot in expression": "{ x := a.1 }",
    "expected statement": "{ 1 }",
    "expected statement, symbol": "{ ( }",
    "expected statement, case": "{ case 1 { } }",
    "repeated name in declaration": "{ let a, a := f() }",
    "repeated name in declaration, no initializer": "{ let a, b, a }",
    "multi-variable declaration with literal": "{ let a, b := 1 }",
    "multi-variable declaration with path": "{ let a, b := c }",
    "repeated parameter": "{ function f(a, a) { } }",
    "repeated result": "{ function f() -> r, r { } }",
    "parameter repeated as result": "{ function f(a) -> a { } }",
    "switch without cases": "{ switch x }",
    "switch without cases before close": "{ switch x let y }",
    "expected case value": "{ switch x case y { } }",
    "dotted function name in statement": "{ a.b(1) }",
    "dotted function name in expression": "{ x := a.b(1) }",
    "multi-assignment with literal": "{ a, b := 1 }",
    "multi-assignment with path": "{ a, b := c }",
    "expected expression": "{ x := }",
    "expected expression, keyword": "{ if let { } }",
    "expected expression at end of input": "{ if",
    "trailing input": "{ } {",
    "trailing literal": "{ }\n 0x1",
    "type annotation": "{ let x : u256 := 1 }",
    "lexical error": "{ let x := 007 }",
    "block nesting cap": "{" * (MAX_NESTING + 1) + "}" * (MAX_NESTING + 1),
    "expression nesting cap": (
        "{ x := " + "f(" * MAX_NESTING + "1" + ")" * MAX_NESTING + " }"
    ),
    "nesting cap at end of input": "{" * MAX_NESTING + " if",
    # the cap reached at a call argument that is a name, a literal or a path
    "nesting cap at name argument": (
        "{ x := " + "f(" * (MAX_NESTING - 1) + "y" + ")" * (MAX_NESTING - 1) + " }"
    ),
    "nesting cap at literal argument": (
        "{ x := " + "f(" * (MAX_NESTING - 1) + "1" + ")" * (MAX_NESTING - 1) + " }"
    ),
    "nesting cap at dotted argument": (
        "{ x := " + "f(" * (MAX_NESTING - 1) + "a.b" + ")" * (MAX_NESTING - 1) + " }"
    ),
    "argument at end of input": "{ f(x",
    "expected argument after comma": "{ f(1,) }",
    "expected comma between arguments": "{ x := f(a b) }",
    "expected identifier after dot in argument": "{ f(x.) }",
}

# Texts a substituted token is drawn from: a token of every class.
SUBSTITUTES = (
    "{", "}", "(", ")", ",", ".", "->", ":=",
    "let", "function", "if", "switch", "case", "default", "for",
    "break", "continue", "leave", "true", "false",
    "x", "f", "add", "0", "0x1f", '"s"', 'hex"00"',
)
RANDOM_SEED = 20261018
PROGRAMS = 80
MUTATIONS_PER_KIND = 6
CONFIG = dict(max_depth=2, max_stmts_per_block=4)


def parse_record(source: str) -> dict:
    """The exact parser result for one source text."""
    try:
        tree = parse_program(source)
    except ParseError as exc:
        return {"source": source, "error": str(exc)}
    return {"source": source, "printed": to_source(tree)}


def _token_spans(source: str) -> list:
    """The (start, end) offset of every token of a source that lexes."""
    line_starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
    spans = []
    for tok in lex(source):
        start = line_starts[tok.line - 1] + tok.column - 1
        spans.append((start, start + len(tok.text)))
    return spans


def mutated_sources() -> list:
    rng = random.Random(RANDOM_SEED)
    sources = []
    for seed in range(PROGRAMS):
        text = to_source(gen_program(GenConfig(seed=seed, **CONFIG)))
        spans = _token_spans(text)
        for _ in range(MUTATIONS_PER_KIND):
            start, _end = spans[rng.randrange(len(spans))]
            sources.append(text[:start])
            start, end = spans[rng.randrange(len(spans))]
            sources.append(text[:start] + text[end:])
            start, end = spans[rng.randrange(len(spans))]
            sources.append(text[:start] + rng.choice(SUBSTITUTES) + text[end:])
    return sources


def compute_cases() -> dict:
    return {
        "errors": {name: parse_record(src) for name, src in ERROR_INPUTS.items()},
        "mutated": [parse_record(src) for src in mutated_sources()],
    }


def test_every_raise_site_is_recorded_as_an_error():
    recorded = json.loads(CASES.read_text())["errors"]
    assert set(recorded) == set(ERROR_INPUTS)
    assert all("error" in rec for rec in recorded.values())


def test_parser_errors_unchanged():
    recorded = json.loads(CASES.read_text())["errors"]
    for name, rec in recorded.items():
        assert parse_record(rec["source"]) == rec, name


def test_mutated_programs_unchanged():
    recorded = json.loads(CASES.read_text())["mutated"]
    assert len(recorded) == PROGRAMS * MUTATIONS_PER_KIND * 3
    for i, rec in enumerate(recorded):
        assert parse_record(rec["source"]) == rec, f"mutated case {i}: {rec['source']!r}"


def _labelled(cases: dict) -> dict:
    """Every record of a set of cases, by a label that names it."""
    labelled = {f"error {name}": rec for name, rec in cases["errors"].items()}
    labelled.update((f"mutated case {i}", rec) for i, rec in enumerate(cases["mutated"]))
    return labelled


ORACLE = (compute_cases, _labelled, *oracle.json_fixture(CASES))

if __name__ == "__main__":
    sys.exit(oracle.main(sys.argv[1:], *ORACLE))
