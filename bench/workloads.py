"""The benchmark's three workloads: how each builds its inputs from the seed,
what one operation is, and the checks on each operation's output.

Every check compares the program's output with a fact the benchmark knows
apart from that output: a tree the generator built without parsing, a verdict
a pair was built to have, a hash computed here with hashlib.  A check either
returns OK, returns FAILED for the one known defect kept in `validate`, or
raises WrongOutput.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Deque, Dict, Iterator, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")

OK = "ok"
FAILED = "failed"

SOUNDNESS_FUELS = (4, 64, 4096)

# Fixtures that are unsafe on purpose (tests/fixtures/NOTES.md); every other
# fixture is statically safe.
UNSAFE_FIXTURES = frozenset({"dotted.yul"})

# validate: paired executions per accepted pair.  Small, because one run of a
# function-free program can execute ~65k statements at fuels up to 16384.
DIFFERENTIAL_RUNS = 1
VALIDATE_KINDS = ("dead-code", "loop-init-rewrite", "disambiguate")
ACCEPTED_PER_KIND = 4  # per round, plus one pair rejected by construction
# Generated programs that have not settled at fuel 64 almost never settle (47
# of 200 at fuels 64 and 4096 alike), and each costs a differential run to the
# limit.  What that run costs ranges from nothing (a loop whose state repeats
# ends at once) to 9 s, and it follows the tracer events (statements,
# expressions and block entries) the program yields at fuel PROBE_FUEL
# (rank correlation 0.97 with the time of one untraced run at fuel 9,730,
# over 282 such programs with functions).  UNSETTLED_CUTS split those events into equally
# likely classes (8 with functions, 4 function-free; cut at the quantiles of
# generator seeds 6,000,000-6,002,499, where 23% of programs with functions
# and 14% of function-free ones did not settle), and every cycle of CYCLE
# rounds holds one OLD of each class per transform: the heavy tail in every
# run is the generator's, but does not depend on what a seed happens to draw.
# Programs from EXTREME_EVENTS are left out (3 of 574 with functions, 2 of
# 348 function-free): a validate call on the one met took 9.1 s, a third of a
# 30 s run, so whether a seed drew one would decide its rate.
SETTLE_FUEL = 64
PROBE_FUEL = 2048
EXTREME_EVENTS = 18_000
UNSETTLED_CUTS = {
    True: (70, 140, 333, 794, 1643, 2677, 4226),  # with functions
    False: (51, 98, 175),  # function-free
}
CYCLE = 8
SETTLES, EXTREME = "settles", "extreme"

# What `validate -` prints today: cli._validate_pair reads standard input a
# second time and parses the empty result.
STDIN_DEFECT = "expected '{', found end of input"

# Pool sizes per second of run length.
FRONTEND_PROGRAMS_PER_S = 12
VALIDATE_ROUNDS_PER_S = 1.6
BATCHES = 4
# frontend: printed sizes in bytes that cut the default GenConfig's programs
# into 20 equally likely classes (the 5%, 10%, ..., 95% points of generator
# seeds 0-1499; mean 5.5 KB, largest 37 KB).  Every corpus holds the same
# number of programs of each class, so its make-up is the generator's but its
# mean size does not depend on the seed: drawn freely, the bytes per program
# of 724-program corpora ranged from 5.2 to 5.9 KB over seeds 11-15, and
# ops_per_s with them.
FRONTEND_SIZE_CUTS = (
    58, 152, 462, 959, 1440, 2048, 2543, 3035, 3612, 4203,
    4874, 5463, 6181, 6904, 7921, 9137, 10498, 12337, 16080,
)

_IDENT = re.compile(r"[A-Za-z_$][A-Za-z0-9_$.]*")


class WrongOutput(Exception):
    """The program's output disagrees with a fact known independently of it."""


def library() -> SimpleNamespace:
    """The yulkit entry points the benchmark calls.  Imported on call, so that
    the caller decides when yulkit is imported (and can time it)."""
    from yulkit import cli
    from yulkit.ast import to_source
    from yulkit.dynamics import EVM_PURE, EvalError, Tracer, exec_top
    from yulkit.renaming import reference_disambiguate
    from yulkit.statics import StaticError, check_safe_top
    from yulkit.syntax import parse_program
    from yulkit.testgen import GenConfig, gen_program, run_suite
    from yulkit.transforms import dead_code_eliminate, for_loop_init_rewrite

    return SimpleNamespace(
        GenConfig=GenConfig,
        StaticError=StaticError,
        EvalError=EvalError,
        Tracer=Tracer,
        funtable=EVM_PURE.funtable(),
        gen_program=gen_program,
        run_suite=run_suite,
        parse_program=parse_program,
        to_source=to_source,
        check_safe_top=check_safe_top,
        exec_top=exec_top,
        dead_code_eliminate=dead_code_eliminate,
        for_loop_init_rewrite=for_loop_init_rewrite,
        reference_disambiguate=reference_disambiguate,
        cli_main=cli.main,
        call_with_deep_stack=cli.call_with_deep_stack,
    )


def shape(text: str) -> str:
    """Source text with every identifier (and keyword) replaced by `_`.  Two
    programs related by a renaming, or equal as trees, print to texts of equal
    shape; so texts of different shape can never form an accepted pair."""
    return _IDENT.sub("_", text)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _split(count: int) -> List[range]:
    """BATCHES consecutive ranges covering range(count)."""
    per = -(-count // BATCHES)
    return [range(b * per, min(count, (b + 1) * per)) for b in range(BATCHES)]


def _settles(lib, tree) -> bool:
    try:
        lib.exec_top(tree, limit=SETTLE_FUEL)
    except lib.EvalError:
        return False
    return True


def probe_events(lib, tree) -> int:
    """Tracer events of a run at PROBE_FUEL: a count, so the same on every box."""

    class Count(lib.Tracer):
        events = 0

        def on_block_entry(self, *args) -> None:
            self.events += 1

        def on_statement(self, *args) -> None:
            self.events += 1

        def on_expression(self, *args) -> None:
            self.events += 1

    count = Count()
    try:
        lib.exec_top(tree, limit=PROBE_FUEL, tracer=count)
    except lib.EvalError:
        pass
    return count.events


def cost_class(lib, tree, fundefs: bool):
    """SETTLES; or for a program that does not settle within SETTLE_FUEL, the
    index of its class by probe_events, or EXTREME."""
    if _settles(lib, tree):
        return SETTLES
    events = probe_events(lib, tree)
    if events >= EXTREME_EVENTS:
        return EXTREME
    return bisect.bisect_right(UNSETTLED_CUTS[fundefs], events)


def unsettled_classes(fundefs: bool, r: int) -> List[int]:
    """The classes of the unsettled OLD programs of round r, so that a cycle
    of CYCLE rounds holds each class once, spread evenly."""
    n = len(UNSETTLED_CUTS[fundefs]) + 1
    return [c for c in range(n) if c * CYCLE // n == r % CYCLE]


# --- soundness ---------------------------------------------------------------------


@dataclass(frozen=True)
class SoundnessCase:
    """One case of the static-soundness suite: generate, check, then execute
    traced at each fuel while the tracer re-derives the static judgment."""

    seed: int

    def run(self, lib):
        return lib.run_suite("static-soundness", 1, seed=self.seed, fuels=SOUNDNESS_FUELS)

    def check(self, report, lib) -> str:
        # Generated programs are safe by construction: any failure is a fault.
        if report.cases_run != 1:
            raise WrongOutput(f"case {self.seed}: ran {report.cases_run} cases, asked for 1")
        if not report.passed:
            raise WrongOutput(f"case {self.seed} failed:\n{report.summary()}")
        return OK


class Soundness:
    def __init__(self, seed: int, seconds: float):
        self.first_case = 1_000_000 + seed * 100_000

    def batches(self, lib) -> List:
        return []  # the inputs are the case seeds; nothing to build

    def rounds(self) -> Iterator[List[SoundnessCase]]:
        for i in itertools.count():
            yield [SoundnessCase(self.first_case + i)]

    def probe(self, lib) -> List[SoundnessCase]:
        return [SoundnessCase(7)]


# --- frontend ----------------------------------------------------------------------


@dataclass(frozen=True)
class SourceProgram:
    """Read one program: parse, check, print."""

    name: str
    text: str
    tree: object  # the tree the generator built, or None for a fixture
    safe: bool

    def run(self, lib):
        tree = lib.parse_program(self.text)
        try:
            lib.check_safe_top(tree, lib.funtable)
            safe = True
        except lib.StaticError:
            safe = False
        return tree, safe, lib.to_source(tree)

    def check(self, outcome, lib) -> str:
        tree, safe, printed = outcome
        if safe != self.safe:
            raise WrongOutput(f"{self.name}: check_safe_top says safe={safe}, expected {self.safe}")
        if self.tree is not None:
            if tree != self.tree:
                raise WrongOutput(f"{self.name}: parsed tree differs from the generated tree")
            if printed != self.text:
                raise WrongOutput(f"{self.name}: printed text differs from the canonical text")
        elif lib.parse_program(printed) != tree:
            raise WrongOutput(f"{self.name}: printed text does not parse back to the same tree")
        return OK


def read_fixtures() -> List[SourceProgram]:
    programs = []
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".yul"):
            with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
                text = fh.read()
            programs.append(SourceProgram(name, text, None, name not in UNSAFE_FIXTURES))
    return programs


def generated_program(lib, seed: int) -> SourceProgram:
    tree = lib.gen_program(lib.GenConfig(seed=seed))
    return SourceProgram(f"seed {seed}", lib.to_source(tree), tree, True)


def size_class(text: str) -> int:
    return bisect.bisect_right(FRONTEND_SIZE_CUTS, len(text))


class Frontend:
    """A corpus of generated programs, the same number from each size class
    (FRONTEND_SIZE_CUTS), in the order drawn, after the fixtures."""

    def __init__(self, seed: int, seconds: float):
        self.first_seed = 2_000_000 + seed * 100_000
        classes = len(FRONTEND_SIZE_CUTS) + 1
        # programs per size class and batch
        self.quota = max(1, round(FRONTEND_PROGRAMS_PER_S * seconds / (classes * BATCHES)))
        self.programs: List[SourceProgram] = read_fixtures()

    def build_batch(self, lib, first_seed: int) -> None:
        wanted = [self.quota] * (len(FRONTEND_SIZE_CUTS) + 1)
        seeds = itertools.count(first_seed)
        while any(wanted):
            program = generated_program(lib, next(seeds))
            c = size_class(program.text)
            if wanted[c]:
                wanted[c] -= 1
                self.programs.append(program)

    def batches(self, lib):
        seeds_per_batch = 10_000  # a batch draws about twice its programs
        for b in range(BATCHES):
            yield lambda b=b: self.build_batch(lib, self.first_seed + b * seeds_per_batch)

    def rounds(self) -> Iterator[List[SourceProgram]]:
        for program in itertools.cycle(self.programs):
            yield [program]

    def probe(self, lib) -> List[SourceProgram]:
        return read_fixtures() + [generated_program(lib, 3)]


# --- validate ----------------------------------------------------------------------


class Drawer:
    """Generated programs of one configuration, drawn in seed order and kept
    by cost class until a pair takes them, so that few draws are wasted on a
    class already taken.  At most KEEP programs of a class are kept (the
    others are dropped), so that the benchmark's own memory stays small."""

    KEEP = 16

    def __init__(self, lib, fundefs: bool, first_seed: int):
        self.lib = lib
        self.fundefs = fundefs
        self.seeds = itertools.count(first_seed)
        self.kept: Dict[object, Deque[Tuple[int, object]]] = collections.defaultdict(collections.deque)

    def take(self, cost: object) -> Tuple[int, object]:
        """The first kept (seed, tree) of the cost class, drawing until there is one."""
        while not self.kept[cost]:
            s = next(self.seeds)
            tree = self.lib.gen_program(self.lib.GenConfig(seed=s, allow_fundefs=self.fundefs))
            kept = self.kept[cost_class(self.lib, tree, self.fundefs)]
            if len(kept) < self.KEEP:
                kept.append((s, tree))
        return self.kept[cost].popleft()


@dataclass(frozen=True)
class ValidatePair:
    """`yulkit validate OLD NEW --transform T --differential K`, in process."""

    transform: str
    old: str  # a path, or "-" to pass the OLD bytes on standard input
    new: str
    old_sha256: str
    new_sha256: str
    accept: bool  # the verdict the pair was built to have
    stdin: Optional[bytes] = None

    def argv(self) -> List[str]:
        return [
            "validate", self.old, self.new,
            "--transform", self.transform,
            "--differential", str(DIFFERENTIAL_RUNS),
        ]

    def run(self, lib):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        if self.stdin is not None:
            sys.stdin = io.TextIOWrapper(io.BytesIO(self.stdin))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli_main(self.argv())
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def check(self, outcome, lib) -> str:
        code, out, err = outcome
        if self.stdin is not None and code == 2 and STDIN_DEFECT in err:
            return FAILED
        want = 0 if self.accept else 1
        if code != want:
            raise WrongOutput(f"{self.describe()}: exit {code}, expected {want}; {err.strip()}")
        try:
            cert = json.loads(out)
        except ValueError:
            raise WrongOutput(f"{self.describe()}: certificate is not JSON") from None
        if cert.get("schema") != 1 or cert.get("transform") != self.transform:
            raise WrongOutput(f"{self.describe()}: certificate schema or transform is wrong")
        if cert.get("result") != ("accepted" if self.accept else "rejected"):
            raise WrongOutput(f"{self.describe()}: certificate result {cert.get('result')!r}")
        old_path = "<stdin>" if self.stdin is not None else self.old
        expected_inputs = [
            {"path": old_path, "sha256": self.old_sha256},
            {"path": self.new, "sha256": self.new_sha256},
        ]
        if cert.get("inputs") != expected_inputs:
            raise WrongOutput(f"{self.describe()}: certificate inputs {cert.get('inputs')!r}")
        if self.accept and cert["suites_run"]["differential"]["runs"] != DIFFERENTIAL_RUNS:
            raise WrongOutput(f"{self.describe()}: differential run count is wrong")
        return OK

    def describe(self) -> str:
        if self.stdin is not None:
            return f"validate - NEW --transform {self.transform} (OLD on standard input)"
        return f"validate {self.old} {self.new} --transform {self.transform}"


_TRANSFORM_OF = {
    "dead-code": "dead_code_eliminate",
    "loop-init-rewrite": "for_loop_init_rewrite",
    "disambiguate": "reference_disambiguate",
}


class Validate:
    """A round is, for each transform, ACCEPTED_PER_KIND pairs NEW = T(OLD),
    some with an OLD that does not settle within SETTLE_FUEL (see
    UNSETTLED_CUTS), and one pair whose NEW comes from another seed
    and has another shape; plus one accepted pair whose OLD is passed on
    standard input.  A run attempts whole cycles of CYCLE rounds, so every
    run holds each class in the same share."""

    def __init__(self, seed: int, seconds: float, directory: str):
        self.first_seed = 3_000_000 + seed * 100_000
        self.count = CYCLE * max(1, round(VALIDATE_ROUNDS_PER_S * seconds / CYCLE))
        self.directory = directory
        self.pool: List[List[ValidatePair]] = []

    def _write(self, name: str, text: str) -> Tuple[str, str]:
        path = os.path.join(self.directory, name)
        data = text.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        return path, _sha256(data)

    @staticmethod
    def drawers(lib, first_seed: int) -> Dict[bool, "Drawer"]:
        """Drawers of programs with and without functions, from disjoint seeds."""
        return {True: Drawer(lib, True, first_seed), False: Drawer(lib, False, first_seed + 10_000)}

    def build_round(self, lib, r: int, drawers: Dict[bool, "Drawer"], prefix: str = "") -> List[ValidatePair]:
        pairs: List[ValidatePair] = []
        for kind in VALIDATE_KINDS:
            transform = getattr(lib, _TRANSFORM_OF[kind])
            # dead-code elimination is sound only on function-free code
            fundefs = kind != "dead-code"
            drawer = drawers[fundefs]
            unsettled = unsettled_classes(fundefs, r)
            accepted: List[ValidatePair] = []
            first_shape = None
            for c in [SETTLES] * (ACCEPTED_PER_KIND - len(unsettled)) + unsettled:
                s, tree = drawer.take(c)
                base = f"{prefix}r{r}-{kind}-{s}"
                new_text = lib.to_source(transform(tree))
                old, old_sha = self._write(base + "-old.yul", lib.to_source(tree))
                new, new_sha = self._write(base + "-new.yul", new_text)
                accepted.append(ValidatePair(kind, old, new, old_sha, new_sha, True))
                if first_shape is None:
                    first_shape = shape(new_text)
            while True:
                # NEW from another seed, of another shape than pair 0's NEW
                s, tree = drawer.take(SETTLES)
                new_text = lib.to_source(transform(tree))
                if shape(new_text) != first_shape:
                    break
            new, new_sha = self._write(f"{prefix}r{r}-{kind}-{s}-new.yul", new_text)
            first = accepted[0]
            pairs += accepted + [ValidatePair(kind, first.old, new, first.old_sha256, new_sha, False)]
        kind = VALIDATE_KINDS[r % len(VALIDATE_KINDS)]
        stdin_of = next(p for p in pairs if p.transform == kind and p.accept)
        with open(stdin_of.old, "rb") as fh:
            data = fh.read()
        pairs.append(
            ValidatePair(kind, "-", stdin_of.new, _sha256(data), stdin_of.new_sha256, True, data)
        )
        return pairs

    def build_batch(self, lib, part: range, first_seed: int) -> None:
        drawers = self.drawers(lib, first_seed)
        self.pool.extend(self.build_round(lib, r, drawers) for r in part)

    def batches(self, lib):
        seeds_per_batch = 20_000  # a batch of 12 rounds draws about 450
        for b, part in enumerate(_split(self.count)):
            yield lambda b=b, part=part: self.build_batch(lib, part, self.first_seed + b * seeds_per_batch)

    def rounds(self) -> Iterator[List[ValidatePair]]:
        cycles = [sum(self.pool[i:i + CYCLE], []) for i in range(0, len(self.pool), CYCLE)]
        return itertools.cycle(cycles)

    def probe(self, lib) -> List[ValidatePair]:
        return self.build_round(lib, 0, self.drawers(lib, 11), prefix="probe-")
