"""Command-line interface.

One executable, eight subcommands: parse, check, run, transform, validate,
validate-rename, import-json, suite.  Exit codes are frozen for CI use:
0 success / acceptance, 1 semantic rejection (unsafe program, failed
validation, error outcome, failing suite), 2 malformed input (parse or
conversion errors, bad flags).

`validate` emits a certificate: a JSON verdict binding the input files (by
content hash) to the claimed transformation, with the witnessing detail on
acceptance and the reason on rejection.  A certificate is a checker verdict,
not a proof object.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import random
import sys
from typing import List, Optional, Sequence, Tuple

from . import __version__
from ._stack import call_with_deep_stack
from .ast import Block, DecNumber, HexNumber, Identifier, declarations, literal_value, to_source
from .dynamics import (
    DEFAULT_FUEL,
    DIALECTS,
    HostLimitError,
    LimitError,
    SafetyError,
    exec_top,
)
from .renaming import (
    RenameError,
    Renaming,
    add_var_to_renaming,
    check_disambiguation,
    soutcome_result_renamevar,
)
from .solc_json import ConvertError, convert
from .statics import StaticError, check_safe_literal, check_safe_top
from .syntax import ParseError, parse_program
from .testgen import SUITE_NAMES, run_pair, run_suite
from .transforms import dead_code_eliminate, for_loop_init_rewrite, okeq

_TRANSFORMS = {
    "dead-code": dead_code_eliminate,
    "loop-init-rewrite": for_loop_init_rewrite,
}

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2


class _InputError(Exception):
    """Wraps parse/convert problems for uniform exit-code handling."""


def _read_input(spec: str) -> Tuple[str, bytes]:
    """Returns (display name, raw bytes).  `-` reads standard input; an
    existing path is read as a file; anything else is taken as literal
    source text (handy for one-liners)."""
    try:
        if spec == "-":
            return "<stdin>", sys.stdin.buffer.read()
        if os.path.exists(spec):
            with open(spec, "rb") as fh:
                return spec, fh.read()
    except OSError as exc:  # a directory, say: input that cannot be read
        name = "<stdin>" if spec == "-" else spec
        raise _InputError(f"{name}: cannot read: {exc.strerror or exc}") from None
    return "<arg>", spec.encode("utf-8")


def _looks_like_json(name: str, data: bytes) -> bool:
    if name.endswith(".json"):
        return True
    if name.endswith(".yul"):
        return False
    head = data.lstrip()[:2]
    return head.startswith(b'{"') or head.startswith(b"[")


def _convert_json(name: str, data: bytes) -> Block:
    """Convert solc AST JSON to a tree."""
    try:
        tree = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise _InputError(f"{name}: not valid JSON: {exc}") from None
    try:
        return convert(tree)
    except ConvertError as exc:
        raise _InputError(f"{name}: {exc}") from None


def _load_block(spec: str) -> Tuple[str, bytes, Block]:
    """Read an input once and load the program in it, from Yul text or solc
    AST JSON, auto-detected.  Returns (display name, raw bytes, tree), so a
    certificate hashes exactly the bytes that were checked."""
    name, data = _read_input(spec)
    if _looks_like_json(name, data):
        return name, data, _convert_json(name, data)
    try:
        return name, data, parse_program(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise _InputError(f"{name}: not UTF-8: {exc}") from None
    except ParseError as exc:
        raise _InputError(f"{name}: {exc}") from None


def _parse_value(text: str) -> int:
    """A `--var` value, read as a program's numeral is read: a decimal
    numeral, or `0x` and hex digits, below 2^256."""
    lit = HexNumber(text[2:]) if text.startswith("0x") else DecNumber(text)
    try:
        check_safe_literal(lit)
    except StaticError:
        raise ValueError(f"value out of range: {text}") from None
    return literal_value(lit)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- subcommands ---------------------------------------------------------------


def _cmd_parse(args: argparse.Namespace) -> int:
    _, _, block = _load_block(args.input)
    print(to_source(block))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    _, _, block = _load_block(args.input)
    dialect = DIALECTS[args.dialect]
    try:
        check_safe_top(block, dialect.funtable())
    except StaticError as exc:
        print(f"unsafe: {exc}")
        return EXIT_REJECTED
    print("safe")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    _, _, block = _load_block(args.input)
    dialect = DIALECTS[args.dialect]
    initial = {}
    for binding in args.var or []:
        name, sep, value = binding.partition("=")
        if not sep or not name:
            raise _InputError(f"--var needs name=value, got {binding!r}")
        if name in initial:
            raise _InputError(f"--var gives {name} twice")
        try:
            Identifier(name)
            initial[name] = _parse_value(value)
        except ValueError as exc:
            raise _InputError(str(exc)) from None
    try:
        out = exec_top(block, initial_locals=initial, dialect=dialect, limit=args.fuel)
    except LimitError:
        print("error=limit")
        return EXIT_REJECTED
    except HostLimitError:
        print("error=host-limit")
        return EXIT_REJECTED
    except SafetyError as exc:
        print(f"error=safety:{exc.kind.value}")
        return EXIT_REJECTED
    for name in sorted(out.cstate.local):
        print(f"{name}={out.cstate.local[name]}")
    print(f"mode={out.mode.value}")
    return EXIT_OK


def _cmd_transform(args: argparse.Namespace) -> int:
    _, _, block = _load_block(args.input)
    print(to_source(_TRANSFORMS[args.transform_pass](block)))
    return EXIT_OK


def _cmd_import_json(args: argparse.Namespace) -> int:
    name, data = _read_input(args.input)
    print(to_source(_convert_json(name, data)))
    return EXIT_OK


# --- validation and certificates --------------------------------------------------


def _renaming_pairs(ren: Renaming) -> List[List[str]]:
    return [[old, new] for old, new in ren.pairs]


# The names a differential run adds to the initial state are drawn from these.
_STATE_NAMES = frozenset(f"z{i}" for i in range(1000))


def _fresh_names(taken: frozenset, count: int, rng: random.Random) -> List[str]:
    """`count` distinct names not in `taken`, drawn from z0-z999; if fewer of
    those are free, the first free names after z999, without a draw."""
    if len(_STATE_NAMES) - len(taken & _STATE_NAMES) < count:
        spare = (f"z{i}" for i in itertools.count(len(_STATE_NAMES)))
        return list(itertools.islice((name for name in spare if name not in taken), count))
    names = []
    while len(names) < count:
        candidate = f"z{rng.randrange(1000)}"
        if candidate not in taken and candidate not in names:
            names.append(candidate)
    return names


def _differential(
    old: Block, new: Block, transform: str, runs: int, renaming: Optional[Renaming] = None
) -> Tuple[bool, dict]:
    """Paired executions from random initial states at random fuels.  Without
    a renaming each pair of outcomes must be okeq; with one, related by
    soutcome_result_renamevar under it, extended by the fresh state names.
    For the loop-init rewrite a split fuel limit is retried at doubled fuel
    (the rewrite moves block-entry costs)."""
    rng = random.Random(f"differential:{transform}")
    avoid = frozenset(name for block in (old, new) for _, name in declarations(block))
    if renaming is not None:
        avoid = avoid | frozenset(renaming.old_names()) | frozenset(renaming.new_names())
    for _ in range(runs):
        extra = _fresh_names(avoid, rng.randint(0, 3), rng)
        state = {name: rng.randrange(1 << 8) for name in extra}
        fuel, out_old, out_new = run_pair(
            lambda f: exec_top(old, initial_locals=state, limit=f),
            lambda f: exec_top(new, initial_locals=state, limit=f),
            rng.randrange(16, 1 << 14),
            transform == "loop-init-rewrite",
        )
        if renaming is None:
            related = okeq(out_old, out_new)
        else:
            ren = renaming
            for name in extra:
                ren = add_var_to_renaming(ren, name, name)
            related = soutcome_result_renamevar(out_old, out_new, ren)
        if not related:
            return False, {"runs": runs, "failed_fuel": fuel, "state": state}
    relation = "okeq" if renaming is None else "soutcome_result_renamevar"
    return True, {"runs": runs, "relation": relation}


def _certificate(
    transform: str,
    inputs: Sequence[Tuple[str, bytes]],
    result: str,
    detail: Optional[dict],
    suites_run: Optional[dict],
) -> dict:
    cert = {
        "tool": "yulkit",
        "tool_version": __version__,
        "schema": 1,
        "statement": "checker verdict over the named inputs; not a proof object",
        "transform": transform,
        "inputs": [
            {"path": path, "sha256": _sha256(data)} for path, data in inputs
        ],
        "result": result,
    }
    if detail is not None:
        cert["detail"] = detail
    if suites_run is not None:
        cert["suites_run"] = suites_run
    return cert


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.old == args.new == "-":
        raise _InputError("OLD and NEW are both '-', but standard input can be read only once")
    old_name, old_data, old_block = _load_block(args.old)
    new_name, new_data, new_block = _load_block(args.new)
    inputs = [(old_name, old_data), (new_name, new_data)]

    detail: Optional[dict] = None
    suites: Optional[dict] = None
    renaming: Optional[Renaming] = None

    if args.transform == "disambiguate":
        try:
            cert = check_disambiguation(old_block, new_block)
        except RenameError as exc:
            detail = {"error": f"{exc.kind.value}: {exc.context}"}
        else:
            renaming = cert.variable_renaming
            detail = {
                "variable_renaming": _renaming_pairs(cert.variable_renaming),
                "function_renaming": _renaming_pairs(cert.function_renaming),
            }
        accepted = renaming is not None
    else:
        accepted = _TRANSFORMS[args.transform](old_block) == new_block
        if not accepted:
            detail = {"error": "transformed old code does not match new code"}

    if accepted and args.differential:
        ok, summary = _differential(old_block, new_block, args.transform, args.differential, renaming)
        suites = {"differential": summary}
        if not ok:
            # supplementary evidence can only demote, never promote
            accepted = False
            outcomes = "diverging" if renaming is None else "unrelated"
            detail = {"error": f"differential run found {outcomes} outcomes"}

    cert_json = _certificate(
        args.transform, inputs, "accepted" if accepted else "rejected", detail, suites
    )
    print(json.dumps(cert_json, indent=2, sort_keys=True))
    return EXIT_OK if accepted else EXIT_REJECTED


def _cmd_suite(args: argparse.Namespace) -> int:
    replay = args.replay is not None
    if replay and (args.n is not None or args.seed is not None):
        raise _InputError("--replay reruns one case by its seed; it takes no --n or --seed")
    n, seed = (1, args.replay) if replay else (100 if args.n is None else args.n, args.seed or 0)
    try:
        report = run_suite(args.name, n, seed=seed, fuels=args.fuel)
    except ValueError as exc:  # fuels below 1, or given to a suite that runs at none
        raise _InputError(str(exc)) from None
    if replay and report.passed:
        print(f"replay of seed {args.replay}: pass")
    else:
        print(report.summary())
    return EXIT_OK if report.passed else EXIT_REJECTED


# --- parser ------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yulkit",
        description="Parse, check, run, transform, and validate Yul code.",
    )
    parser.add_argument("--version", action="version", version=f"yulkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def count(text: str) -> int:
        # a number of cases, runs or fuel units: zero or more
        value = int(text)
        if value < 0:
            raise ValueError(text)
        return value

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "input",
            help="a .yul or solc-AST .json file, '-' for stdin, or literal Yul text",
        )

    p = sub.add_parser("parse", help="parse and print the canonical form")
    add_input(p)
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("check", help="static safety check")
    add_input(p)
    p.add_argument("--dialect", choices=sorted(DIALECTS), default="evm-pure")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("run", help="execute a program")
    add_input(p)
    p.add_argument("--fuel", type=count, default=DEFAULT_FUEL)
    p.add_argument(
        "--var",
        action="append",
        metavar="NAME=VALUE",
        help="initial local: a Yul numeral below 2^256, decimal or 0x hex; repeatable",
    )
    p.add_argument("--dialect", choices=sorted(DIALECTS), default="evm-pure")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("transform", help="apply a transformation, print the result")
    add_input(p)
    p.add_argument(
        "--pass",
        dest="transform_pass",
        choices=sorted(_TRANSFORMS),
        required=True,
    )
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser(
        "validate", help="check that new code is a claimed transformation of old code"
    )
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument(
        "--transform",
        choices=sorted(_TRANSFORMS) + ["disambiguate"],
        required=True,
    )
    p.add_argument(
        "--differential",
        type=count,
        default=0,
        metavar="N",
        help="additionally run N paired executions (supplementary evidence only)",
    )
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("validate-rename", help="validate a disambiguation pair")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--differential", type=count, default=0, metavar="N")
    p.set_defaults(fn=_cmd_validate, transform="disambiguate")

    p = sub.add_parser("import-json", help="convert solc AST JSON to Yul text")
    add_input(p)
    p.set_defaults(fn=_cmd_import_json)

    p = sub.add_parser("suite", help="run a property suite")
    p.add_argument("name", choices=SUITE_NAMES)
    p.add_argument("--n", type=count, help="number of cases (default 100)")
    p.add_argument("--seed", type=int, help="seed of the first case (default 0)")
    p.add_argument("--fuel", type=int, action="append", help="repeatable fuel list")
    p.add_argument("--replay", type=int, metavar="SEED", help="rerun one case by seed")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return call_with_deep_stack(args.fn, args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
