"""Execution oracle: the exact outcomes, fuel thresholds and traced event
sequences of a fixed set of programs, recorded once and required to stay
identical.

The fixture holds four kinds of case:

- hand-written programs, one for every safety error the interpreter can
  raise at every place it can raise it, plus the fuel-ordering and
  control-flow corners around them (`HAND_WRITTEN`);
- seeded mutants of generated programs: a printed line deleted, duplicated
  or swapped, or a token deleted or replaced, kept when the result parses
  but fails the static check (`MUTANT_COUNT` of each kind);
- entry-point runs: the top-level statements of generated programs run by
  `exec_statement_list` in the program's own function environment and in
  that environment after dead-code elimination of the function bodies;
- the other entry points, `exec_statement`, `exec_block`,
  `exec_expression` and `exec_function`, on hand-written nodes in one
  function environment and state (`ENTRY_POINT_CASES`), and `exec_block`
  and `exec_function` on the same generated programs: each program run as
  a block in an empty environment, and each of its top-level functions
  called on the arguments 1, 2, ...

For each case it records the exact outcome at every fuel of FUELS (mode and
local state in order, the values an expression or function gives, or the
error class and text), the number of tracer events at each of those fuels,
the least fuel at which the run settles (if it settles at the largest
fuel), and the sha256 of the full traced event sequence at the largest
fuel: every hook, the node it names, the state, the function environment
and the outcome.

A change to the interpreter that keeps behaviour leaves every record
unchanged.  To compare against the fixture without pytest (exit status 1 on
any mismatch):

    PYTHONPATH=src python3 tests/test_exec_oracle.py --check

To record the cases again, after a change that is meant to alter an output:

    PYTHONPATH=src python3 tests/test_exec_oracle.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys
from dataclasses import replace

from yulkit.ast import hoisted_fundefs, to_source
from yulkit.dynamics import (
    CState,
    EOutcome,
    EVM_PURE,
    EvalError,
    SafetyKind,
    SOutcome,
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
from yulkit.generate import GenConfig, gen_program
from yulkit.statics import StaticError, check_safe_top
from yulkit.syntax import ParseError, lex, parse_program
from yulkit.transforms import funenv_dead

import oracle

# In a subdirectory: every *.json directly in tests/fixtures is a solc AST
# fixture paired with Yul text.
CASES = pathlib.Path(__file__).parent / "fixtures" / "golden" / "exec_cases.json"

FUELS = (1, 2, 3, 4, 5, 6, 7, 8, 16, 64, 256, 4096)

_BIG_DEC = str(1 << 256)
_BIG_HEX = "0x1" + "0" * 64
_LONG_STR = '"' + "a" * 33 + '"'
_LONG_HEX = 'hex"' + "ab" * 33 + '"'

# Every runtime safety error, at every place the interpreter can raise it.
# Two kinds never arise at runtime: duplicate-case is static only (a switch
# runs its first matching case) and leave-outside-function (a top-level
# leave is a mode-violation).  Neither can an unknown function output: a
# function's outputs are in its state from entry to exit.
HAND_WRITTEN = {
    "unknown-var: read": "{ let x := y }",
    "unknown-var: read after the argument to its right": "{ let x := add(y, 1) }",
    "unknown-var: caller's variable inside a function": "{ let x := 1 function f() -> r { r := x } let y := f() }",
    "unknown-var: assign": "{ y := 1 }",
    "unknown-var: assign after the value": "{ y := z }",
    "unknown-var: multi-assign first target": "{ function f() -> a, b { } let q a, q := f() }",
    "unknown-var: multi-assign second target": "{ function f() -> a, b { } let q q, a := f() }",
    "unknown-var: variable of an exited block": "{ { let x := 1 } x := 2 }",
    "unknown-var: loop variable after the loop": "{ for { let i := 0 } lt(i, 2) { i := add(i, 1) } { } let j := i }",
    "duplicate-var: let": "{ let x let x }",
    "duplicate-var: let with initializer": "{ let x let x := add(1, 2) }",
    "duplicate-var: let multi from a call": "{ function f() -> a, b { } let p let q, p := f() }",
    "duplicate-var: inner block": "{ let x { let x } }",
    "duplicate-var: loop initializer": "{ let i for { let i } 0 { } { } }",
    "duplicate-var: loop body": "{ let i for { } 1 { } { let i } }",
    "duplicate-var: function body declares a parameter": "{ function f(a) { let a } f(1) }",
    "duplicate-fun: same block": "{ function f() { } function f() { } }",
    "duplicate-fun: inner block": "{ function f() { } { function f() { } } }",
    "duplicate functions in an unreached block": "{ function f() { } if 0 { function f() { } } }",
    "duplicate-fun: loop initializer": "{ function f() { } for { function f() { } } 0 { } { } }",
    "duplicate-fun: loop body": "{ function f() { } for { } 1 { } { function f() { } } }",
    "duplicate-fun: loop update": "{ function f() { } for { } 1 { function f() { } } { } }",
    "duplicate-fun: function body": "{ function f() { function f() { } } f() }",
    "duplicate-fun: switch case": "{ function f() { } switch 0 case 0 { function f() { } } }",
    "duplicate-fun: after a statement ran": "{ let x := 1 { let y := 2 { function g() { } function g() { } } } }",
    "unknown-fun: expression": "{ let x := f(1) }",
    "unknown-fun: no arguments": "{ let x := f() }",
    "unknown-fun: after the arguments": "{ let x := f(add(1, 2), 3) }",
    "unknown-var: argument of an unknown function": "{ let x := f(y) }",
    "unknown-fun: call statement": "{ f() }",
    "unknown-fun: let multi": "{ let a, b := f() }",
    "unknown-fun: multi-assign": "{ let a let b a, b := f(1) }",
    "unknown-fun: inner block's function": "{ { function g() { } } g() }",
    "unknown-fun: caller's inner function": "{ function f() { g() } { function g() { } f() } }",
    "unknown-fun: name of no builtin": "{ let x := addd(1, 2) }",
    "arity-mismatch: builtin, too few": "{ let x := add(1) }",
    "arity-mismatch: builtin, too many": "{ let x := iszero(1, 2) }",
    "arity-mismatch: builtin statement": "{ add(1, 2, 3) }",
    "arity-mismatch: user function": "{ function f(a) -> r { } let x := f() }",
    "arity-mismatch: user function, too many": "{ function f(a) { } f(1, 2) }",
    "arity-mismatch: user function in let multi": "{ function f(a) -> r, s { } let x, y := f(1, 2) }",
    "result-count-mismatch: builtin call statement": "{ add(1, 2) }",
    "result-count-mismatch: user call statement": "{ function f() -> r { } f() }",
    "result-count-mismatch: let multi from a builtin": "{ let a, b := add(1, 2) }",
    "result-count-mismatch: let multi from a user function": "{ function f() -> a, b, c { } let p, q := f() }",
    "result-count-mismatch: multi-assign": "{ let a let b a, b := add(1, 2) }",
    "result-count-mismatch: multi-assign from a user function": "{ function f() { } let a let b a, b := f() }",
    "non-single-value: argument": "{ function f() { } let x := add(f(), 1) }",
    "non-single-value: argument with two results": "{ function f() -> a, b { } let x := add(1, f()) }",
    "non-single-value: argument of a user function": "{ function f() { } function g(a) { } g(f()) }",
    "non-single-value: initializer": "{ function f() { } let x := f() }",
    "non-single-value: assigned value": "{ function f() -> a, b { } let x x := f() }",
    "non-single-value: if condition": "{ function f() { } if f() { } }",
    "non-single-value: switch target": "{ function f() -> a, b { } switch f() default { } }",
    "non-single-value: loop condition": "{ function f() { } for { } f() { } { } }",
    "non-single-value: loop condition after the initializer": "{ function f() { } for { let i := 1 } f() { } { } }",
    "bad-path: read": "{ let x := a.b }",
    "bad-path: argument": "{ let x := add(a.b, 1) }",
    "bad-path: assign": "{ a.b := 1 }",
    "bad-path: assign before the value": "{ a.b := y }",
    "bad-path: multi-assign": "{ function f() -> p, q { } let c c, a.b := f() }",
    "literal-too-large: decimal": "{ let x := " + _BIG_DEC + " }",
    "literal-too-large: hex": "{ let x := " + _BIG_HEX + " }",
    "literal-too-large: argument": "{ let x := add(1, " + _BIG_HEX + ") }",
    "literal-too-large: switch case reached": "{ switch 2 case 1 { } case " + _BIG_DEC + " { } default { } }",
    "too large a switch case after the match": "{ let r switch 1 case 1 { r := 5 } case " + _BIG_DEC + " { } }",
    "too large a switch case never reached": "{ let r if 0 { switch 2 case " + _BIG_HEX + " { } } }",
    "largest numerals fit": "{ let x := " + str((1 << 256) - 1) + " let y := 0x" + "f" * 64 + " }",
    "string-too-long: plain": "{ let x := " + _LONG_STR + " }",
    "string-too-long: hex": "{ let x := " + _LONG_HEX + " }",
    "string-too-long: switch case": "{ switch 0 case " + _LONG_STR + " { } default { } }",
    "32-byte strings fit": '{ let x := "' + "b" * 32 + '" switch x case "' + "b" * 32 + '" { x := 1 } }',
    "mode-violation: break at top": "{ break }",
    "mode-violation: continue at top": "{ continue }",
    "mode-violation: leave at top": "{ leave }",
    "mode-violation: break in a top block": "{ let x := 1 { x := 2 break } }",
    "mode-violation: break in an if": "{ if 1 { break } }",
    "mode-violation: continue in a switch": "{ switch 1 case 1 { continue } }",
    "break-outside-loop: initializer": "{ for { break } 1 { } { } }",
    "break-outside-loop: update": "{ for { } 1 { break } { } }",
    "continue-outside-loop: initializer": "{ for { continue } 1 { } { } }",
    "continue-outside-loop: update": "{ for { } 1 { continue } { } }",
    "function-mode-error: break": "{ function f() { break } f() }",
    "function-mode-error: continue": "{ function f() -> r { r := 1 continue } let x := f() }",
    "function-mode-error: break in a nested block": "{ function f() { { if 1 { break } } } f() }",
    "leave in a loop initializer ends the function": "{ function f() -> r { for { r := 3 leave } 1 { } { } r := 4 } let x := f() }",
    "leave in a loop update ends the function": "{ function f() -> r { for { let i } 1 { r := i leave } { i := 9 } r := 4 } let x := f() }",
    "leave in a loop body ends the function": "{ function f() -> r { for { let i } 1 { } { r := 5 leave } } let x := f() }",
    "break and continue": "{ let s for { let i := 0 } lt(i, 9) { i := add(i, 1) } { if eq(i, 2) { continue } s := add(s, i) if eq(i, 5) { break } } }",
    "nested loops": "{ let s for { let i := 0 } lt(i, 3) { i := add(i, 1) } { for { let j := 0 } lt(j, 3) { j := add(j, 1) } { s := add(s, mul(i, j)) } } }",
    "repeating loop": "{ let x for { } 1 { } { x := and(add(x, 1), 3) } }",
    "repeating loop, empty": "{ for { } 1 { } { } }",
    "loop until a large state": "{ let x := 1 for { } lt(x, 1000) { x := add(x, x) } { } }",
    "loop initializer function": "{ let r for { function g() -> v { v := 7 } } lt(r, 3) { r := add(r, 1) } { r := add(r, g()) } }",
    "recursion": "{ function f(n) -> r { if n { r := add(n, f(sub(n, 1))) } } let x := f(20) }",
    "mutual recursion": "{ function e(n) -> r { r := 1 if n { r := o(sub(n, 1)) } } function o(n) -> r { if n { r := e(sub(n, 1)) } } let a := e(7) let b := o(7) }",
    "multiple results": "{ function f(a, b) -> x, y { x := b y := a } let p, q := f(1, 2) p, q := f(q, p) }",
    "argument order": "{ function f(a, b, c) -> r { r := add(mul(a, 100), add(mul(b, 10), c)) } let x := f(1, 2, 3) }",
    "function defined later and inner functions": "{ let x := f() function f() -> r { r := g() function g() -> s { s := 9 } } }",
    "outputs start at zero": "{ function f() -> a, b { a := 1 } let x, y := f() }",
    "switch cases and default": "{ let r switch add(1, 1) case 1 { r := 1 } case 2 { r := 2 } default { r := 3 } switch 9 case 1 { r := 4 } default { r := add(r, 10) } }",
    "switch on strings": '{ let r switch "ab" case "ab" { r := 1 } case hex"6162" { r := 2 } }',
    "builtins": "{ let a := div(7, 0) let b := shl(1, 3) let c := shr(300, 8) let d := not(0) let e := sub(0, 1) let f := mod(7, 0) }",
    "literals": '{ let a := true let b := false let c := 0x0a let d := "\\x41" let e := hex"" }',
    "call statement of an empty function": "{ function f() { } f() let x := 1 }",
    "declaration without value": "{ let a, b, c let d }",
    "empty program": "{ }",
}

MUTANT_SEED = 20261018
MUTANT_COUNT = 150  # of each kind: line mutants and token mutants
MUTANT_CONFIG = GenConfig(seed=0, max_depth=3, max_stmts_per_block=4)
# Token texts a token mutant may put in place of another.
REPLACEMENTS = (
    "break", "continue", "leave", "0", "1", "x", "f", "g", "add", "iszero",
    "let", ":=", ",", "{", "}", "(", ")", _BIG_HEX, _LONG_STR, "a.b",
)
ENTRY_SEEDS = range(40)

# The function environment and state the hand-written entry-point cases run
# in, and per entry point the nodes they run: statements, expressions and
# blocks as source, functions as (name, arguments).
ENTRY_POINT_FUNS = (
    "{ function f(a) -> r { r := add(a, 1) }"
    " function two() -> a, b { a := 1 b := 2 }"
    " function none() { }"
    " function count(n) -> r { for { } lt(r, n) { r := add(r, 1) } { } }"
    " function stop() -> r { r := 3 leave r := 4 }"
    " function escape() { break } }"
)
ENTRY_POINT_STATE = {"x": 5, "y": 7}
ENTRY_POINT_CASES = {
    "statement": (
        "x := f(x)",
        "y := add(x, y)",
        "let z := f(f(x))",
        "let p, q := two()",
        "x, y := two()",
        "let z := two()",
        "x := none()",
        "w := 1",
        "let x",
        "none()",
        "f(1)",
        "if lt(x, y) { x := 0 }",
        "switch x case 5 { y := 1 } default { y := 2 }",
        "for { let i } lt(i, 3) { i := add(i, 1) } { x := add(x, i) }",
        "for { } 1 { } { }",
        "for { break } 1 { } { }",
        "for { } 1 { continue } { }",
        "{ let z := count(x) y := z }",
        "break",
        "continue",
        "leave",
        "function g() { }",
        "x := stop()",
        "escape()",
    ),
    "expression": (
        "x",
        "w",
        "7",
        "0x1" + "0" * 64,
        '"abc"',
        "add(x, y)",
        "add(w, 1)",
        "f(f(x))",
        "two()",
        "none()",
        "add(two(), 1)",
        "add(1, none())",
        "g(1)",
        "f(1, 2)",
        "count(y)",
        "stop()",
        "escape()",
    ),
    "block": (
        "{ }",
        "{ let z := f(x) y := z }",
        "{ function g() -> r { r := 9 } x := g() }",
        "{ function f() { } }",
        "{ let x }",
        "{ x := 1 break y := 2 }",
        "{ leave }",
        "{ for { } lt(x, 9) { x := add(x, 1) } { } }",
    ),
    "function": (
        ("f", (41,)),
        ("two", ()),
        ("none", ()),
        ("count", (20,)),
        ("count", (1 << 20,)),
        ("stop", ()),
        ("escape", ()),
        ("f", ()),
    ),
}


def _state(cstate) -> list:
    return [[k, v] for k, v in cstate.local.items()]


class _Recorder(Tracer):
    """Hashes every event: the hook, the node, the state, the function
    environment and the outcome."""

    def __init__(self) -> None:
        self.events = 0
        self._hash = hashlib.sha256()
        self._printed = {}  # id(node) -> printed text; nodes outlive the run

    def _node(self, node) -> str:
        text = self._printed.get(id(node))
        if text is None:
            text = self._printed[id(node)] = to_source(node)
        return text

    @staticmethod
    def _env(funenv) -> list:
        return [
            [[name, [p.text for p in info.inputs], [o.text for o in info.outputs]]
             for name, info in sorted(scope.items())]
            for scope in funenv
        ]

    def _add(self, record) -> None:
        self.events += 1
        self._hash.update(json.dumps(record).encode() + b"\n")

    def on_block_entry(self, block, funenv) -> None:
        self._add(["block", self._node(block), self._env(funenv)])

    def on_statement(self, stmt, cstate, funenv, outcome) -> None:
        self._add(["statement", self._node(stmt), _state(cstate), self._env(funenv),
                   outcome.mode.value, _state(outcome.cstate)])

    def on_expression(self, expr, cstate, funenv, outcome) -> None:
        self._add(["expression", self._node(expr), _state(cstate), self._env(funenv),
                   _state(outcome.cstate), list(outcome.values)])

    def digest(self) -> str:
        return self._hash.hexdigest()


class _Counter(Tracer):
    def __init__(self) -> None:
        self.events = 0

    def on_block_entry(self, *args) -> None:
        self.events += 1

    def on_statement(self, *args) -> None:
        self.events += 1

    def on_expression(self, *args) -> None:
        self.events += 1


def _outcome(run, fuel: int, tracer=None) -> list:
    try:
        out = run(fuel, tracer)
    except EvalError as exc:
        return [type(exc).__name__, str(exc)]
    if isinstance(out, SOutcome):
        return [out.mode.value, _state(out.cstate)]
    if isinstance(out, EOutcome):
        return ["values", list(out.values), _state(out.cstate)]
    return ["values", list(out)]


def run_record(run) -> dict:
    """The record of one case; `run(fuel, tracer)` executes it."""
    outcomes, events = {}, {}
    for fuel in FUELS:
        counter = _Counter()
        outcomes[str(fuel)] = _outcome(run, fuel)
        assert _outcome(run, fuel, counter) == outcomes[str(fuel)]
        events[str(fuel)] = counter.events
    recorder = _Recorder()
    assert _outcome(run, FUELS[-1], recorder) == outcomes[str(FUELS[-1])]
    settles = outcomes[str(FUELS[-1])][0] != "LimitError"
    return {
        "outcomes": outcomes,
        "events": events,
        "min_fuel": _min_fuel(run, FUELS[-1]) if settles else None,
        "trace": recorder.digest(),
    }


def _min_fuel(run, settled_at: int) -> int:
    """The least fuel at which the run settles (fuel is monotone)."""
    lo, hi = 1, settled_at
    while lo < hi:
        mid = (lo + hi) // 2
        if _outcome(run, mid)[0] != "LimitError":
            hi = mid
        else:
            lo = mid + 1
    return lo


def program_record(source: str) -> dict:
    program = parse_program(source)
    record = run_record(lambda fuel, tracer: exec_top(program, limit=fuel, tracer=tracer))
    return {"source": source, **record}


def _unsafe(source: str) -> bool:
    try:
        check_safe_top(parse_program(source), EVM_PURE.funtable())
    except (ParseError, StaticError):
        return True
    return False


def _parses(source: str) -> bool:
    try:
        parse_program(source)
    except ParseError:
        return False
    return True


def _line_mutant(rng: random.Random, source: str) -> str:
    lines = source.split("\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    op = rng.choice(("delete", "duplicate", "swap"))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def _token_mutant(rng: random.Random, source: str) -> str:
    texts = [t.text for t in lex(source)]
    i = rng.randrange(len(texts))
    if rng.random() < 0.3:
        del texts[i]
    else:
        texts[i] = rng.choice(REPLACEMENTS + (rng.choice(texts),))
    return " ".join(texts)


def mutant_sources() -> dict:
    rng = random.Random(MUTANT_SEED)
    found = {"line": [], "token": []}
    seed = 0
    while any(len(v) < MUTANT_COUNT for v in found.values()):
        printed = to_source(gen_program(replace(MUTANT_CONFIG, seed=seed)))
        seed += 1
        for kind, mutate in (("line", _line_mutant), ("token", _token_mutant)):
            if len(found[kind]) >= MUTANT_COUNT:
                continue
            mutant = mutate(rng, printed)
            if _parses(mutant) and _unsafe(mutant):
                found[kind].append(mutant)
    return found


def entry_record(seed: int) -> dict:
    program = gen_program(replace(MUTANT_CONFIG, seed=seed))
    env = extend_funenv((), hoisted_fundefs(program))
    records = {}
    for name, funenv in (("own", env), ("dead", funenv_dead(env))):
        records[name] = run_record(
            lambda fuel, tracer: exec_statement_list(
                program.statements, CState({}), funenv, EVM_PURE, fuel, tracer
            )
        )
    return records


def _node_record(run, node, cstate: CState, funenv) -> dict:
    return run_record(lambda fuel, tracer: run(node, cstate, funenv, EVM_PURE, fuel, tracer))


def _function_record(name: str, args, funenv) -> dict:
    info, trimmed = find_fun(funenv, name)
    return run_record(lambda fuel, tracer: exec_function(info, args, trimmed, EVM_PURE, fuel, tracer))


def entry_point_records() -> dict:
    env = extend_funenv((), hoisted_fundefs(parse_program(ENTRY_POINT_FUNS)))
    state = CState(dict(ENTRY_POINT_STATE))
    entries = {
        "statement": (exec_statement, lambda src: parse_program("{ " + src + " }").statements[0]),
        "expression": (exec_expression, lambda src: parse_program("{ let _ := " + src + " }").statements[0].init),
        "block": (exec_block, parse_program),
    }
    records = {
        entry: {src: _node_record(run, parse(src), state, env) for src in ENTRY_POINT_CASES[entry]}
        for entry, (run, parse) in entries.items()
    }
    records["function"] = {
        f"{name}{list(args)}": _function_record(name, args, env) for name, args in ENTRY_POINT_CASES["function"]
    }
    generated = []
    for seed in ENTRY_SEEDS:
        program = gen_program(replace(MUTANT_CONFIG, seed=seed))
        own = extend_funenv((), hoisted_fundefs(program))
        generated.append({
            "block": _node_record(exec_block, program, CState({}), ()),
            "functions": {
                name: _function_record(name, tuple(range(1, len(info.inputs) + 1)), own)
                for name, info in own[0].items()
            },
        })
    records["generated"] = generated
    return records


def compute_cases() -> dict:
    return {
        "hand_written": {name: program_record(src) for name, src in HAND_WRITTEN.items()},
        "mutants": {kind: [program_record(src) for src in sources]
                    for kind, sources in mutant_sources().items()},
        "entry": [entry_record(seed) for seed in ENTRY_SEEDS],
        "entry_points": entry_point_records(),
    }


def _dump(value, depth: int = 0) -> str:
    """JSON with one case record per line."""
    pad = " " * depth
    if isinstance(value, dict) and "outcomes" not in value and "own" not in value:
        items = [f'{pad} {json.dumps(k)}: {_dump(v, depth + 1)}' for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, list):
        return "[\n" + ",\n".join(f"{pad} {_dump(v, depth + 1)}" for v in value) + f"\n{pad}]"
    return json.dumps(value, sort_keys=True)


def _recorded() -> dict:
    return json.loads(CASES.read_text())


def test_hand_written_cases_unchanged():
    recorded = _recorded()["hand_written"]
    assert set(recorded) == set(HAND_WRITTEN)
    for name, rec in recorded.items():
        assert program_record(rec["source"]) == rec, name


def test_one_compiled_program_runs_at_every_fuel():
    # Run in turn at each fuel, one compiled program gives the outcomes and
    # event counts recorded from a fresh exec_top at each.
    recorded = _recorded()
    records = [*recorded["hand_written"].values(), *recorded["mutants"]["line"], *recorded["mutants"]["token"]]
    for rec in records:
        program = parse_program(rec["source"])
        untraced = compile_top(program, EVM_PURE, None)
        counter = _Counter()
        traced = compile_top(program, EVM_PURE, counter)
        for fuel in FUELS:
            expected = rec["outcomes"][str(fuel)]
            assert _outcome(lambda f, tracer: untraced.run(f), fuel) == expected, (rec["source"], fuel)
            counter.events = 0
            assert _outcome(lambda f, tracer: traced.run(f), fuel) == expected, (rec["source"], fuel)
            assert counter.events == rec["events"][str(fuel)], (rec["source"], fuel)


def test_each_safety_case_raises_its_kind():
    # A case named "<kind>: ..." raises that kind; together they cover every
    # kind but the two that never arise at runtime.
    kinds = {kind.value for kind in SafetyKind}
    covered = set()
    for name, rec in _recorded()["hand_written"].items():
        kind = name.split(":")[0]
        if kind in kinds:
            error, text = rec["outcomes"][str(FUELS[-1])]
            assert (error, text.split(":")[0]) == ("SafetyError", kind), name
            covered.add(kind)
    assert covered == kinds - {"duplicate-case", "leave-outside-function"}


def test_mutants_unchanged():
    recorded = _recorded()["mutants"]
    assert {kind: len(recs) for kind, recs in recorded.items()} == {
        "line": MUTANT_COUNT, "token": MUTANT_COUNT
    }
    for kind, recs in recorded.items():
        for i, rec in enumerate(recs):
            assert program_record(rec["source"]) == rec, f"{kind} mutant {i}: {rec['source']!r}"


def test_entry_point_runs_unchanged():
    recorded = _recorded()["entry"]
    assert len(recorded) == len(ENTRY_SEEDS)
    for seed, rec in zip(ENTRY_SEEDS, recorded):
        assert entry_record(seed) == rec, f"seed {seed}"


def _entry_point_labels(records: dict) -> dict:
    labelled = {
        f"{entry} {case}": rec for entry, recs in records.items() if entry != "generated" for case, rec in recs.items()
    }
    for seed, rec in zip(ENTRY_SEEDS, records["generated"]):
        labelled[f"block of seed {seed}"] = rec["block"]
        labelled.update((f"function {name} of seed {seed}", fn) for name, fn in rec["functions"].items())
    return labelled


def test_other_entry_points_unchanged():
    recorded = _entry_point_labels(_recorded()["entry_points"])
    computed = _entry_point_labels(entry_point_records())
    assert recorded.keys() == computed.keys()
    for label, rec in recorded.items():
        assert computed[label] == rec, label


def _labelled(cases: dict) -> dict:
    """Every record of a set of cases, by a label that names it."""
    labelled = {f"hand-written {name}": rec for name, rec in cases["hand_written"].items()}
    for kind, recs in cases["mutants"].items():
        labelled.update((f"{kind} mutant {i}", rec) for i, rec in enumerate(recs))
    labelled.update((f"entry seed {seed}", rec) for seed, rec in zip(ENTRY_SEEDS, cases["entry"]))
    labelled.update(_entry_point_labels(cases["entry_points"]))
    return labelled


ORACLE = (compute_cases, _labelled, *oracle.json_fixture(CASES, _dump))

if __name__ == "__main__":
    sys.exit(oracle.main(sys.argv[1:], *ORACLE))
