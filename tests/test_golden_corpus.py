"""Golden corpus: the documented outputs of a fixed set of generated programs
and fixture pairs, recorded once and required to stay byte-identical.

For `gen_program` seeds 0-99, at the default `GenConfig` and with
`allow_fundefs=False`, the fixture records the sha256 of the printed program
and of the printed output of both transforms, `reference_disambiguate`'s
output and the certificate `check_disambiguation` gives for it, the
`check_safe_top` verdict, the `exec_top` outcome and tracer event count at
each fuel of FUELS, and, for programs that settle at the largest fuel, the
least fuel at which they settle.  It also records the `yulkit validate`
certificates of the fixture pairs in VALIDATE_PAIRS, with paths relative to
`tests/fixtures`.

A refactor that keeps behaviour leaves every one of these unchanged.  To
compare against the corpus without pytest (exit status 1 on any mismatch):

    PYTHONPATH=src python3 tests/test_golden_corpus.py --check

To record the corpus again, after a change that is meant to alter an output:

    PYTHONPATH=src python3 tests/test_golden_corpus.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
from dataclasses import replace

from yulkit.ast import to_source
from yulkit.cli import main as cli_main
from yulkit.dynamics import EVM_PURE, LimitError, SafetyError, Tracer, exec_top
from yulkit.generate import GenConfig, gen_program
from yulkit.renaming import RenameError, check_disambiguation, reference_disambiguate
from yulkit.statics import StaticError, check_safe_top
from yulkit.transforms import dead_code_eliminate, for_loop_init_rewrite

import oracle

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# In a subdirectory: every *.json directly in tests/fixtures is a solc AST
# fixture paired with Yul text.
CORPUS = FIXTURES / "golden" / "golden_corpus.json"

SEEDS = range(100)
CONFIGS = {
    "default": GenConfig(seed=0),
    "no-fundefs": GenConfig(seed=0, allow_fundefs=False),
}
FUELS = (4, 16, 64, 256, 1024, 4096)

# (OLD, NEW, transform) under tests/fixtures; each is run with --differential 20.
VALIDATE_PAIRS = (
    ("scoping.yul", "scoping_disambiguated.yul", "disambiguate"),
    ("scoping.json", "scoping_disambiguated.json", "disambiguate"),
    ("scoping_disambiguated.yul", "scoping.yul", "disambiguate"),
    ("scoping.yul", "kitchen_sink.yul", "disambiguate"),
    ("kitchen_sink.yul", "kitchen_sink.json", "dead-code"),
    ("kitchen_sink.yul", "kitchen_sink.yul", "loop-init-rewrite"),
    ("scoping.yul", "scoping.yul", "dead-code"),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _CountingTracer(Tracer):
    def __init__(self) -> None:
        self.events = 0

    def on_block_entry(self, *args) -> None:
        self.events += 1

    def on_statement(self, *args) -> None:
        self.events += 1

    def on_expression(self, *args) -> None:
        self.events += 1


def _outcome(program, fuel: int, tracer=None) -> str:
    try:
        out = exec_top(program, limit=fuel, tracer=tracer)
    except LimitError:
        return "error=limit"
    except SafetyError as exc:
        return f"error=safety:{exc.kind.value}"
    local = " ".join(f"{k}={v}" for k, v in sorted(out.cstate.local.items()))
    return f"mode={out.mode.value} {local}".rstrip()


def _settles(program, fuel: int) -> bool:
    return _outcome(program, fuel) != "error=limit"


def _min_fuel(program, settled_at: int) -> int:
    """The least fuel at which the program settles (fuel is monotone)."""
    lo, hi = 1, settled_at
    while lo < hi:
        mid = (lo + hi) // 2
        if _settles(program, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def program_record(cfg: GenConfig) -> dict:
    program = gen_program(cfg)
    disambiguated = reference_disambiguate(program)
    try:
        cert = check_disambiguation(program, disambiguated)
        certificate = {
            "variables": [list(p) for p in cert.variable_renaming.pairs],
            "functions": [list(p) for p in cert.function_renaming.pairs],
        }
    except RenameError as exc:
        certificate = {"error": str(exc)}
    try:
        check_safe_top(program, EVM_PURE.funtable())
        verdict = "safe"
    except StaticError as exc:
        verdict = f"unsafe: {exc}"
    runs = {}
    for fuel in FUELS:
        tracer = _CountingTracer()
        runs[str(fuel)] = [_outcome(program, fuel, tracer), tracer.events]
    top = FUELS[-1]
    settled = runs[str(top)][0] != "error=limit"
    return {
        "printed": _sha256(to_source(program)),
        "dead_code": _sha256(to_source(dead_code_eliminate(program))),
        "loop_init": _sha256(to_source(for_loop_init_rewrite(program))),
        "disambiguated": _sha256(to_source(disambiguated)),
        "certificate": certificate,
        "check": verdict,
        "runs": runs,
        "min_fuel": _min_fuel(program, top) if settled else None,
    }


def validate_record(old: str, new: str, transform: str) -> dict:
    """`yulkit validate OLD NEW --transform T --differential 20`, run from
    tests/fixtures so the certificate names the inputs relative to it."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main(["validate", old, new, "--transform", transform, "--differential", "20"])
    finally:
        os.chdir(cwd)
    return {"argv": [old, new, transform], "exit": code, "certificate": json.loads(out.getvalue())}


def compute_corpus() -> dict:
    programs = {
        name: [program_record(replace(cfg, seed=seed)) for seed in SEEDS]
        for name, cfg in CONFIGS.items()
    }
    return {
        "programs": programs,
        "validate": [validate_record(*pair) for pair in VALIDATE_PAIRS],
    }


def _first_difference(expected, actual, where: str):
    if type(expected) is not type(actual):
        return where
    if isinstance(expected, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return f"{where}.{key}"
            found = _first_difference(expected[key], actual[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = _first_difference(e, a, f"{where}[{i}]")
            if found:
                return found
        return None if len(expected) == len(actual) else f"{where} (length)"
    return None if expected == actual else where


def test_golden_corpus_unchanged():
    expected = json.loads(CORPUS.read_text())
    for name, cfg in CONFIGS.items():
        for seed in SEEDS:
            actual = program_record(replace(cfg, seed=seed))
            diff = _first_difference(expected["programs"][name][seed], actual, "")
            assert diff is None, f"{name} seed {seed}: field {diff.lstrip('.')} differs"
    assert len(expected["validate"]) == len(VALIDATE_PAIRS)
    for pair, recorded in zip(VALIDATE_PAIRS, expected["validate"]):
        actual = validate_record(*pair)
        diff = _first_difference(recorded, actual, "")
        assert diff is None, f"validate {' '.join(pair)}: field {diff.lstrip('.')} differs"


def _labelled(corpus: dict) -> dict:
    """Every record of a corpus, by a label that names it."""
    labelled = {
        f"{name} seed {seed}": rec for name, recs in corpus["programs"].items() for seed, rec in zip(SEEDS, recs)
    }
    labelled.update((f"validate {' '.join(rec['argv'])}", rec) for rec in corpus["validate"])
    return labelled


ORACLE = (compute_corpus, _labelled, *oracle.json_fixture(CORPUS))

if __name__ == "__main__":
    sys.exit(oracle.main(sys.argv[1:], *ORACLE))
