"""The differential property suites: per-program checkers, the table of
suites and the runner.  Programs come from `generate.gen_program`.

Each suite runs n independent cases; case i of a run seeded S uses seed S+i,
and a failure report carries that case seed, so any failure can be replayed
with a run of one case at that seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from .ast import Block, Statement, hoisted_fundefs, to_source
from .dynamics import (
    CState,
    DEFAULT_FUEL,
    EVM_PURE,
    EvalError,
    FunEnv,
    HostLimitError,
    LimitError,
    SOutcome,
    SafetyError,
    Tracer,
    compile_top,
    exec_statement,
    exec_statement_list,
    exec_top,
    extend_funenv,
    funenv_to_funtable,
)
from .generate import GenConfig, gen_program
from .renaming import (
    EMPTY_RENAMING,
    RenameError,
    Renaming,
    funenv_renamevar,
    reference_renamevar,
    soutcome_result_renamevar,
    statement_renamevar,
)
from .statics import (
    Judgments,
    Mode,
    StaticError,
    check_safe_expression,  # no caller here: a name for bench/tracing.py to wrap
    check_safe_statement,
    check_safe_top,
    fun_table_of,
)
from .syntax import parse_program
from .transforms import (
    dead_code_eliminate,
    for_loop_init_rewrite,
    funenv_dead,
    funenv_nofun,
    nofun,
    noloopinit,
    okeq,
    statement_dead,
    statement_loop_init,
)

DEFAULT_FUELS: Tuple[int, ...] = (4, 64, 4096)

# --- suite plumbing ------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteFailure:
    seed: int
    program: str
    prop: str
    detail: str


def _failure(seed: int, program: Block, prop: str, detail: Optional[str]) -> Optional[SuiteFailure]:
    """A checker's verdict on a case's program as the case's result."""
    return None if detail is None else SuiteFailure(seed, to_source(program), prop, detail)


@dataclass(frozen=True)
class SuiteReport:
    name: str
    cases_run: int
    failures: Tuple[SuiteFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"suite {self.name}: {self.cases_run} case(s), "
            f"{len(self.failures)} failure(s)"
        ]
        for f in self.failures:
            lines.append(f"  seed {f.seed}: {f.prop}: {f.detail}")
            lines.append("    " + f.program.replace("\n", "\n    "))
        return "\n".join(lines)


def _random_value(rng: random.Random) -> int:
    return rng.randrange(16) if rng.random() < 0.7 else rng.randrange(1 << 256)


def _random_cstate(rng: random.Random, names: FrozenSet[str]) -> CState:
    return CState({name: _random_value(rng) for name in sorted(names)})


# Outcomes that decide nothing: the fuel, or the host's stack, ran out.
_UNDECIDED = (LimitError, HostLimitError)


def _run(run: Callable[[int], SOutcome], fuel: int) -> Union[SOutcome, EvalError]:
    """Run one execution at `fuel`, returning its error instead of raising it."""
    try:
        return run(fuel)
    except EvalError as exc:
        return exc


def run_pair(
    run_old: Callable[[int], SOutcome],
    run_new: Callable[[int], SOutcome],
    fuel: int,
    retry: bool,
) -> Tuple[int, Union[SOutcome, EvalError], Union[SOutcome, EvalError]]:
    """Run two programs at the same fuel, each error returned as a value.
    With `retry`, while one side settles and the other is undecided, both run
    again at doubled fuel, up to DEFAULT_FUEL: the loop-init rewrite costs a
    few extra block entries, so fuel limits shift.  Returns the final fuel and
    both outcomes."""
    while True:
        out_old, out_new = _run(run_old, fuel), _run(run_new, fuel)
        split = (
            isinstance(out_old, SOutcome) and isinstance(out_new, _UNDECIDED)
            or isinstance(out_new, SOutcome) and isinstance(out_old, _UNDECIDED)
        )
        if not (retry and split and fuel < DEFAULT_FUEL):
            return fuel, out_old, out_new
        fuel *= 2


def _compare_statements(
    stmts: Sequence[Statement],
    vars: FrozenSet[str],
    funs: Mapping[str, Tuple[int, int]],
    transform: Callable[[Statement], Statement],
    modes_ok: Callable[[FrozenSet[Mode], FrozenSet[Mode]], bool],
) -> Union[str, List[FrozenSet[str]]]:
    """Judge each statement and its transform under the variables before it,
    threading the original's variables: both must be safe, with the same
    variables after and mode sets `old`, `new` for which `modes_ok(old, new)`
    holds.  Returns the first failure, or else the variables before each
    statement."""
    vars_before: List[FrozenSet[str]] = []
    for stmt in stmts:
        vars_before.append(vars)
        new_stmt = transform(stmt)
        try:
            vm_old = check_safe_statement(stmt, vars, funs)
        except StaticError as exc:
            return f"original statement not safe: {exc}"
        try:
            vm_new = check_safe_statement(new_stmt, vars, funs)
        except StaticError as exc:
            return f"transformed statement not safe: {exc}: {to_source(new_stmt)}"
        if vm_new.vars != vm_old.vars:
            return (
                f"variable table changed: {sorted(vm_old.vars)} -> {sorted(vm_new.vars)} "
                f"for: {to_source(stmt)}"
            )
        if not modes_ok(vm_old.modes, vm_new.modes):
            return (
                f"mode sets inconsistent: {sorted(m.value for m in vm_old.modes)} -> "
                f"{sorted(m.value for m in vm_new.modes)} for: {to_source(stmt)}"
            )
        vars = vm_old.vars
    return vars_before


def _describe(outcome: Union[SOutcome, EvalError]) -> str:
    if isinstance(outcome, SOutcome):
        state = ", ".join(f"{k}={v}" for k, v in sorted(outcome.cstate.local.items()))
        return f"{outcome.mode.value} {{{state}}}"
    return f"error {outcome}"


# --- static soundness ---------------------------------------------------------------

class _SoundnessTracer(Tracer):
    """Looks up the checker's judgment of each executed node and records any
    divergence: a block's function table or a node's variables not among
    those the checker gave it, a mode outside the static modes, variables
    after other than the predicted ones, or another value count.  It takes
    its states as variable sets (`snapshots`)."""

    def __init__(self, judged: Judgments):
        self.judged = judged
        self.dialect_funs = EVM_PURE.funtable()
        self.violations: List[str] = []
        # (id(block), id(funenv)) of each block entry found judged: a compiled
        # block passes the same environment object on every entry, in every
        # run of the compiled program.
        # Holding the environment keeps its id from going to another one.
        self.judged_entries: Dict[Tuple[int, int], FunEnv] = {}

    def on_block_entry(self, block, funenv) -> None:
        key = (id(block), id(funenv))
        if key in self.judged_entries:
            return
        funs = funenv_to_funtable(funenv)
        if {**self.dialect_funs, **funs} in self.judged.blocks.get(id(block), ()):
            self.judged_entries[key] = funenv
        else:
            self.violations.append(
                f"block entered with functions {sorted(funs)} "
                f"the checker never gave it: {to_source(block)}"
            )

    def snapshots(self):
        # A state is taken as its variable set, which is all the judgments
        # depend on: no value is copied, and the set is handed out again
        # while the variables stay the same.
        last = [frozenset()]

        def snap(local):
            vars = last[0]
            if local.keys() != vars:
                vars = last[0] = frozenset(local)
            return vars

        return snap, last, frozenset

    # Each node's hook binds its key and the judgment table, so an event
    # costs one lookup by (key, variables before).

    def statement_hook(self, stmt, funenv):
        key, judgments, violations = id(stmt), self.judged.statements, self.violations

        def hook(before, after, mode) -> None:
            judgment = judgments.get((key, before))
            if judgment is None:
                violations.append(
                    f"statement reached with variables {sorted(before)} "
                    f"the checker never gave it: {to_source(stmt)}"
                )
                return
            if mode not in judgment.modes:
                violations.append(
                    f"mode {mode.value} outside static modes "
                    f"{{{', '.join(sorted(m.value for m in judgment.modes))}}} "
                    f"for: {to_source(stmt)}"
                )
            expected = judgment.vars if mode is Mode.REGULAR else before
            if after != expected:
                violations.append(
                    f"variables {sorted(after)} != predicted "
                    f"{sorted(expected)} for: {to_source(stmt)}"
                )

        return hook

    def expression_hook(self, expr, funenv):
        key, counts, violations = id(expr), self.judged.expressions, self.violations

        def hook(before, values) -> None:
            count = counts.get((key, before))
            if count is None:
                violations.append(
                    f"expression reached with variables {sorted(before)} "
                    f"the checker never gave it: {to_source(expr)}"
                )
            elif len(values) != count:
                violations.append(
                    f"{len(values)} value(s) != static count {count} "
                    f"for: {to_source(expr)}"
                )

        return hook


def check_static_soundness_program(program: Block, fuels: Sequence[int]) -> Optional[str]:
    """Run one program at each fuel under instrumentation.  Returns a failure
    description, or None.  An undecided run is legitimate at any fuel; SafetyError
    and instrumentation violations are failures (the program must be safe)."""
    judged = Judgments()
    try:
        check_safe_top(program, EVM_PURE.funtable(), judged)
    except StaticError as exc:
        return f"program is not statically safe: {exc}"
    tracer = _SoundnessTracer(judged)  # shared: judgments are fuel-independent
    compiled = compile_top(program, EVM_PURE, tracer)
    for fuel in fuels:
        out = _run(compiled.run, fuel)
        if isinstance(out, SafetyError):
            return f"SafetyError at fuel {fuel}: {out}"
        if tracer.violations:
            return f"at fuel {fuel}: " + "; ".join(tracer.violations[:3])
    return None


def _case_static_soundness(seed: int, fuels: Sequence[int]) -> Optional[SuiteFailure]:
    program = gen_program(GenConfig(seed=seed))
    return _failure(seed, program, "static-soundness", check_static_soundness_program(program, fuels))


# --- generator safety ----------------------------------------------------------------

def _case_gen_safety(seed: int, fuels: Sequence[int]) -> Optional[SuiteFailure]:
    program = gen_program(GenConfig(seed=seed))
    if program != gen_program(GenConfig(seed=seed)):
        return _failure(seed, program, "gen-determinism", "two runs differ")
    try:
        check_safe_top(program, EVM_PURE.funtable())
    except StaticError as exc:
        return _failure(seed, program, "gen-safety", str(exc))
    return None


# --- dead code ------------------------------------------------------------------------

def _helper_env(seed: int) -> FunEnv:
    """A one-scope function environment of generated helpers with nofun
    bodies, used to exercise the funenv side of the dead-code relation."""
    helper_cfg = GenConfig(
        seed=seed,
        max_depth=3,
        max_stmts_per_block=3,
        allow_fundefs=True,
        nested_fundefs=False,
        allow_loops=False,
    )
    helpers = hoisted_fundefs(gen_program(helper_cfg))
    return extend_funenv((), helpers)


def check_dead_code_program(
    program: Block,
    fuels: Sequence[int],
    rng: random.Random,
    funenv: FunEnv = (),
    require_nofun: bool = True,
) -> Optional[str]:
    """The dead-code theorems on one program: static preservation (same
    variables, modes a subset) per top-level statement, and okeq of paired
    executions — the transformed statement against the funenv_dead
    environment.  The program must be nofun; the environment's bodies must be
    nofun.  Returns a failure description or None.  require_nofun=False drops
    the hypothesis, which makes the conclusions falsifiable (a definition
    after a terminator vanishes though earlier code may call it)."""
    if require_nofun:
        if not nofun(program):
            return "hypothesis violated: program contains a function definition"
        if not funenv_nofun(funenv):
            return "hypothesis violated: an environment body contains a function definition"
    base = for_loop_init_rewrite(program)  # normalize; rewrite preserves meaning
    funtab = dict(EVM_PURE.funtable())
    funtab.update(funenv_to_funtable(funenv))
    funtab.update(fun_table_of(base))

    new_block = dead_code_eliminate(base)
    # top-level definitions (none under the nofun hypothesis) join the
    # environments, so the dropped-hypothesis run still resolves calls
    env_old, env_new = (
        extend_funenv(env, hoisted_fundefs(block)) if hoisted_fundefs(block) else env
        for env, block in ((funenv, base), (funenv_dead(funenv), new_block))
    )

    vars_before = _compare_statements(
        base.statements, frozenset(), funtab, statement_dead, lambda old, new: new <= old
    )
    if isinstance(vars_before, str):
        return vars_before

    # whole-program paired execution from the empty state (run as a statement
    # list so the final locals stay observable)
    for fuel in fuels:
        _, out_old, out_new = run_pair(
            lambda f: exec_statement_list(base.statements, CState({}), env_old, EVM_PURE, f),
            lambda f: exec_statement_list(new_block.statements, CState({}), env_new, EVM_PURE, f),
            fuel,
            retry=False,
        )
        if not okeq(out_old, out_new):
            return (
                f"okeq failed at fuel {fuel}: {_describe(out_old)} vs {_describe(out_new)}"
            )

    # statement-level paired executions from random states
    if base.statements:
        for _ in range(4):
            k = rng.randrange(len(base.statements))
            stmt = base.statements[k]
            cstate = _random_cstate(rng, vars_before[k])
            fuel = rng.choice(list(fuels))
            _, out_old, out_new = run_pair(
                lambda f: exec_statement(stmt, cstate, env_old, EVM_PURE, f),
                lambda f: exec_statement(statement_dead(stmt), cstate, env_new, EVM_PURE, f),
                fuel,
                retry=False,
            )
            if not okeq(out_old, out_new):
                return (
                    f"statement okeq failed at fuel {fuel} for: {to_source(stmt)}: "
                    f"{_describe(out_old)} vs {_describe(out_new)}"
                )
    return None


def _case_dead_code(seed: int, fuels: Sequence[int]) -> Optional[SuiteFailure]:
    funenv = _helper_env(seed ^ 0x5EED)
    cfg = GenConfig(seed=seed, allow_fundefs=False, extra_funs=funenv_to_funtable(funenv))
    program = gen_program(cfg)
    rng = random.Random(f"dead-code:{seed}")
    return _failure(seed, program, "dead-code", check_dead_code_program(program, fuels, rng, funenv))


# --- loop init -------------------------------------------------------------------------

def _modes_ok_loop_init(old: FrozenSet[Mode], new: FrozenSet[Mode]) -> bool:
    # The rewrite can only lose the regular mode (a leave-only initializer
    # makes the wrapper block non-regular); it never gains modes.
    return new <= old and (old - new) <= {Mode.REGULAR}


def check_loop_init_program(program: Block, fuels: Sequence[int]) -> Optional[str]:
    new_block = for_loop_init_rewrite(program)
    if not noloopinit(new_block):
        return "rewrite left a loop with a nonempty initializer"
    if for_loop_init_rewrite(new_block) != new_block:
        return "rewrite is not idempotent"
    funtab = EVM_PURE.funtable()
    try:
        check_safe_top(new_block, funtab)
    except StaticError as exc:
        return f"rewritten program not safe: {exc}"

    # per-statement static comparison at the top level and inside top-level
    # function bodies (where leave-bearing initializers can occur)
    top_funs = dict(funtab)
    top_funs.update(fun_table_of(program))
    judged = _compare_statements(
        program.statements, frozenset(), top_funs, statement_loop_init, _modes_ok_loop_init
    )
    if isinstance(judged, str):
        return judged
    for fd in hoisted_fundefs(program):
        params = frozenset(p.text for p in fd.inputs + fd.outputs)
        funs = dict(top_funs, **fun_table_of(fd.body))
        judged = _compare_statements(
            fd.body.statements, params, funs, statement_loop_init, _modes_ok_loop_init
        )
        if isinstance(judged, str):
            return f"in function {fd.name.text}: {judged}"

    for fuel in fuels:
        fuel, out_old, out_new = run_pair(
            lambda f: exec_top(program, limit=f),
            lambda f: exec_top(new_block, limit=f),
            fuel,
            retry=True,
        )
        if not okeq(out_old, out_new):
            return f"okeq failed at fuel {fuel}: {_describe(out_old)} vs {_describe(out_new)}"
    return None


def _case_loop_init(seed: int, fuels: Sequence[int]) -> Optional[SuiteFailure]:
    program = gen_program(GenConfig(seed=seed))
    return _failure(seed, program, "loop-init", check_loop_init_program(program, fuels))


# --- variable renaming -------------------------------------------------------------------

def check_renamevar_program(
    program: Block,
    fuels: Sequence[int],
    rng: random.Random,
    trials: int = 10,
) -> Optional[str]:
    """Rename the program's variables apart, then check the renaming relation,
    static preservation (equal mode sets, variable tables tracking the two
    renaming sides), the environment relation, and paired executions from
    related random states."""
    renamed = reference_renamevar(program)

    funtab = dict(EVM_PURE.funtable())
    funtab.update(fun_table_of(program))

    env_old = extend_funenv((), hoisted_fundefs(program))
    env_new = extend_funenv((), hoisted_fundefs(renamed))
    if not funenv_renamevar(env_old, env_new):
        return "function environments not related"

    old_stmts = program.statements
    new_stmts = renamed.statements
    if len(old_stmts) != len(new_stmts):
        return "renaming changed the statement count"

    ren = EMPTY_RENAMING
    before: List[Tuple[FrozenSet[str], Renaming]] = []
    after_ren: List[Renaming] = []
    vars_old: FrozenSet[str] = frozenset()
    for old_stmt, new_stmt in zip(old_stmts, new_stmts):
        before.append((vars_old, ren))
        try:
            ren = statement_renamevar(old_stmt, new_stmt, ren)
        except RenameError as exc:
            return f"relation rejected: {exc}: {to_source(old_stmt)}"
        after_ren.append(ren)

        vars_new = frozenset(before[-1][1].new_names())
        vm_old = check_safe_statement(old_stmt, vars_old, funtab)
        vm_new = check_safe_statement(new_stmt, vars_new, funtab)
        if vm_new.modes != vm_old.modes:
            return (
                f"mode sets differ: {sorted(m.value for m in vm_old.modes)} vs "
                f"{sorted(m.value for m in vm_new.modes)} for: {to_source(old_stmt)}"
            )
        if vm_old.vars != frozenset(ren.old_names()):
            return f"old variable table diverged from the renaming for: {to_source(old_stmt)}"
        if vm_new.vars != frozenset(ren.new_names()):
            return f"new variable table diverged from the renaming for: {to_source(old_stmt)}"
        vars_old = vm_old.vars

    # paired executions from related random states
    if old_stmts:
        for _ in range(trials):
            k = rng.randrange(len(old_stmts))
            vars_k, ren_k = before[k]
            cstate_old = _random_cstate(rng, vars_k)
            cstate_new = CState(
                {ren_k.lookup(name): value for name, value in cstate_old.local.items()}
            )
            fuel = rng.choice(list(fuels))
            _, out_old, out_new = run_pair(
                lambda f: exec_statement(old_stmts[k], cstate_old, env_old, EVM_PURE, f),
                lambda f: exec_statement(new_stmts[k], cstate_new, env_new, EVM_PURE, f),
                fuel,
                retry=False,
            )
            if not soutcome_result_renamevar(out_old, out_new, after_ren[k]):
                return (
                    f"outcomes unrelated at fuel {fuel} for: {to_source(old_stmts[k])}: "
                    f"{_describe(out_old)} vs {_describe(out_new)}"
                )
    return None


def _case_renamevar(seed: int, fuels: Sequence[int]) -> Optional[SuiteFailure]:
    program = gen_program(GenConfig(seed=seed))
    rng = random.Random(f"renamevar:{seed}")
    return _failure(seed, program, "renamevar", check_renamevar_program(program, fuels, rng))


# --- round trip and restrictions ------------------------------------------------------------

def _case_round_trip(seed: int, fuels: Sequence[int]) -> Optional[SuiteFailure]:
    program = gen_program(GenConfig(seed=seed))
    if parse_program(to_source(program)) != program:
        return _failure(seed, program, "round-trip", "parse(print(t)) != t")
    return None


def _case_restrictions(seed: int, fuels: Sequence[int]) -> Optional[SuiteFailure]:
    program = gen_program(GenConfig(seed=seed))

    rewritten = for_loop_init_rewrite(program)
    if not noloopinit(rewritten):
        return _failure(seed, program, "loop-init-establishes", "noloopinit false after rewrite")
    if for_loop_init_rewrite(rewritten) != rewritten:
        return _failure(seed, program, "loop-init-idempotent", "second application changed code")

    eliminated = dead_code_eliminate(program)
    if dead_code_eliminate(eliminated) != eliminated:
        return _failure(seed, program, "dead-code-idempotent", "second application changed code")
    if noloopinit(rewritten) and not noloopinit(dead_code_eliminate(rewritten)):
        return _failure(seed, program, "dead-code-preserves-noloopinit", "noloopinit lost")

    restricted = gen_program(GenConfig(seed=seed, allow_fundefs=False))
    if not nofun(restricted):
        return _failure(seed, restricted, "gen-nofun", "allow_fundefs=False emitted a fundef")
    if not nofun(dead_code_eliminate(restricted)):
        return _failure(seed, restricted, "dead-code-preserves-nofun", "nofun lost")
    return None


# --- fuel monotonicity ------------------------------------------------------------------

def check_fuel_monotonicity_program(
    program: Block, exponents: Sequence[int] = range(2, 15)
) -> Optional[str]:
    """Below the success threshold every run must hit the limit; above it,
    every run must return the identical successful outcome."""
    settled: Optional[SOutcome] = None
    compiled = compile_top(program, EVM_PURE, None)
    for k in exponents:
        out = _run(compiled.run, 1 << k)
        if isinstance(out, _UNDECIDED):
            if settled is not None:
                return f"LimitError at fuel 2^{k} after success at lower fuel"
        elif isinstance(out, SafetyError):
            return f"SafetyError at fuel 2^{k}: {out}"
        elif settled is None:
            settled = out
        elif out != settled:
            return (
                f"outcome changed with fuel 2^{k}: "
                f"{_describe(settled)} vs {_describe(out)}"
            )
    return None


def _case_fuel_monotonicity(seed: int, fuels: Sequence[int]) -> Optional[SuiteFailure]:
    program = gen_program(GenConfig(seed=seed))
    return _failure(seed, program, "fuel-monotonicity", check_fuel_monotonicity_program(program))


# --- the runner -------------------------------------------------------------------------

@dataclass(frozen=True)
class Suite:
    """One property suite: its name, whether its cases run at the fuels they
    are given (fuel monotonicity picks its own, and the unfueled others run
    nothing), and its case, which checks the program of one seed."""

    name: str
    fueled: bool
    case: Callable[[int, Sequence[int]], Optional[SuiteFailure]]


# In README's table order.
SUITES: Tuple[Suite, ...] = (
    Suite("gen-safety", False, _case_gen_safety),
    Suite("static-soundness", True, _case_static_soundness),
    Suite("dead-code", True, _case_dead_code),
    Suite("loop-init", True, _case_loop_init),
    Suite("renamevar", True, _case_renamevar),
    Suite("round-trip", False, _case_round_trip),
    Suite("restrictions", False, _case_restrictions),
    Suite("fuel-monotonicity", False, _case_fuel_monotonicity),
)

SUITE_NAMES = tuple(sorted(row.name for row in SUITES))


def run_suite(
    name: str,
    n: int,
    seed: int = 0,
    fuels: Optional[Sequence[int]] = None,
) -> SuiteReport:
    """Run n cases of the named suite; case i uses seed+i.  Failures come in
    seed order and each carries the failing program's text."""
    suite = next((row for row in SUITES if row.name == name), None)
    if suite is None:
        raise ValueError(f"unknown suite {name!r} (have: {', '.join(SUITE_NAMES)})")
    if fuels and not suite.fueled:
        fueled = sorted(row.name for row in SUITES if row.fueled)
        raise ValueError(f"suite {name} takes no fuels (only {', '.join(fueled)} do)")
    if fuels and min(fuels) < 1:
        raise ValueError(f"fuels must be at least 1, got {min(fuels)}")
    fuels = tuple(fuels) if fuels else DEFAULT_FUELS
    failures = []
    for i in range(n):
        failure = suite.case(seed + i, fuels)
        if failure is not None:
            failures.append(failure)
    return SuiteReport(name, n, tuple(failures))

