"""Lexer oracle: the exact tokens and errors of a fixed set of inputs,
recorded once and required to stay identical.

The fixture holds one input for every lexical error path, with the exact
`str(ParseError)` it gives, and 2,000 seeded random short strings over a
dense lexical alphabet, each with its token tuples
`(kind, text, line, column, to_source(literal))` or its exact error.

A change to the lexer that keeps behaviour leaves every record unchanged.
To compare against the fixture without pytest (exit status 1 on any
mismatch):

    PYTHONPATH=src python3 tests/test_lex_oracle.py --check

To record the cases again, after a change that is meant to alter an output:

    PYTHONPATH=src python3 tests/test_lex_oracle.py --write
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

from yulkit.ast import to_source
from yulkit.syntax import ParseError, lex

import oracle

# In a subdirectory: every *.json directly in tests/fixtures is a solc AST
# fixture paired with Yul text.
CASES = pathlib.Path(__file__).parent / "fixtures" / "golden" / "lex_cases.json"

# One input per error path of the lexer (several where a path has variants).
ERROR_INPUTS = {
    "unterminated block comment": "{ x /* never\n closed",
    "unterminated block comment, star at end": "/* *",
    "illegal character": "let x := #",
    "illegal character after newline": "{\n\t@}",
    "illegal lone slash": "x / y",
    "illegal non-ascii": "let é := 1",
    "lone minus": "function f() - r {}",
    "lone minus at end": "-",
    "lone colon": "let x : u256 := 1",
    "lone colon at end": "x :",
    "leading zeros": "\nlet x := 007",
    "leading zeros, two zeros": "00",
    "bare 0x at end": "0x",
    "bare 0x before non-hex": "let a := 0xg1",
    "unterminated string at end of input": '{ "abc',
    "unterminated string at newline": '"ab\ncd"',
    "unterminated string at carriage return": '"ab\rcd"',
    "hex escape with one digit": '"\\x4"',
    "hex escape with non-hex digits": '"\\xzz"',
    "hex escape at end of input": '"\\x',
    "unicode escape": '  "a\\u0041"',
    "unknown escape": '"\\q"',
    "backslash at end of input": '"\\',
    "control character": '\n  "a\x01b"',
    "control character tab": '"a\tb"',
    "unterminated hex string": 'x := hex"ab',
    "unterminated hex string, empty": 'hex"',
    "bad hex string digit": 'hex"ag"',
    "bad hex string digit newline": 'hex"a\nb"',
    "odd hex string length": ' hex"abc"',
}

# Fragments the random strings are drawn from: every token class, every
# error trigger, and the characters that move line and column.  Half of the
# strings use only the fragments that lex cleanly next to one another, so
# that many of them lex in full.
CLEAN = (
    "a", "Z", "_", "$", "x", "u", "f", "g", "hex", "let", "true", "leave",
    "1", "9", "0x", "0xff", "0X", "ff", '"ab"', '"\\x4f\\n"', 'hex"0a"', 'hex""',
    "//c\n", "/* \n */", "->", ":=", "{", "}", "(", ")", ",", ".",
    " ", " ", " ", "\n", "\n", "\r\n", "\t",
)
ALPHABET = CLEAN + (
    "0", "00", '"', "\\", "\\x", "\\n", "\\u", "'", "/", "*", "//", "/*", "*/",
    "-", ":", 'hex"', "\r", "\x01", "#", "é",
)
RANDOM_SEED = 20261018
RANDOM_COUNT = 2000
RANDOM_MAX_FRAGMENTS = 12


def lex_record(source: str) -> dict:
    """The exact lexer result for one source text."""
    try:
        tokens = lex(source)
    except ParseError as exc:
        return {"source": source, "error": str(exc)}
    return {
        "source": source,
        "tokens": [
            [t.kind, t.text, t.line, t.column,
             None if t.literal is None else to_source(t.literal)]
            for t in tokens
        ],
    }


def random_sources() -> list:
    rng = random.Random(RANDOM_SEED)
    return [
        "".join(
            rng.choice(CLEAN if i % 2 else ALPHABET)
            for _ in range(rng.randint(0, RANDOM_MAX_FRAGMENTS))
        )
        for i in range(RANDOM_COUNT)
    ]


def compute_cases() -> dict:
    return {
        "errors": {name: lex_record(src) for name, src in ERROR_INPUTS.items()},
        "random": [lex_record(src) for src in random_sources()],
    }


def test_every_error_path_is_recorded_as_an_error():
    recorded = json.loads(CASES.read_text())["errors"]
    assert set(recorded) == set(ERROR_INPUTS)
    assert all("error" in rec for rec in recorded.values())


def test_lexer_errors_unchanged():
    recorded = json.loads(CASES.read_text())["errors"]
    for name, rec in recorded.items():
        assert lex_record(rec["source"]) == rec, name


def test_lexer_random_strings_unchanged():
    recorded = json.loads(CASES.read_text())["random"]
    assert len(recorded) == RANDOM_COUNT
    for i, rec in enumerate(recorded):
        assert lex_record(rec["source"]) == rec, f"random case {i}: {rec['source']!r}"


def _labelled(cases: dict) -> dict:
    """Every record of a set of cases, by a label that names it."""
    labelled = {f"error {name}": rec for name, rec in cases["errors"].items()}
    labelled.update((f"random case {i}", rec) for i, rec in enumerate(cases["random"]))
    return labelled


ORACLE = (compute_cases, _labelled, *oracle.json_fixture(CASES))

if __name__ == "__main__":
    sys.exit(oracle.main(sys.argv[1:], *ORACLE))
