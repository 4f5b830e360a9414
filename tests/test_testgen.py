"""The generator, the property suites, and — crucially — evidence that the
suites can fail: a mutated interpreter and a dropped-hypothesis
counterexample both must be caught."""

import itertools
import pathlib
import random
import re
import sys
from types import SimpleNamespace

import pytest

from yulkit import dynamics, testgen
from yulkit.ast import (
    Block,
    BlockStmt,
    DecNumber,
    LiteralExpr,
    VariableSingle,
    hoisted_fundefs,
    to_source,
)
from yulkit.dynamics import (
    CState,
    DEFAULT_FUEL,
    Dialect,
    EVM_PURE,
    EvalError,
    HostLimitError,
    LimitError,
    SOutcome,
    SafetyError,
    SafetyKind,
    Tracer,
    compile_top,
    exec_top,
    extend_funenv,
)
from yulkit.generate import GenConfig, gen_program
from yulkit.renaming import RenameError, RenameKind
from yulkit.statics import ErrorKind, Judgments, Mode, StaticError, VarsModes, check_safe_top
from yulkit.syntax import parse_program
from yulkit.testgen import (
    DEFAULT_FUELS,
    SUITE_NAMES,
    SUITES,
    check_dead_code_program,
    check_fuel_monotonicity_program,
    check_loop_init_program,
    check_renamevar_program,
    check_static_soundness_program,
    run_pair,
    run_suite,
)
from yulkit.transforms import nofun

from conftest import DEEP_RECURSION, run_fresh

EVM_FUNS = EVM_PURE.funtable()


# --- generator ---


def test_generator_deterministic():
    cfg = GenConfig(seed=1234)
    assert gen_program(cfg) == gen_program(cfg)


def test_generator_different_seeds_differ():
    programs = {gen_program(GenConfig(seed=s)) for s in range(20)}
    assert len(programs) > 15  # near-certain distinctness


def test_generator_nofun_by_construction():
    for seed in range(50):
        program = gen_program(GenConfig(seed=seed, allow_fundefs=False))
        assert nofun(program)


def test_generator_output_is_safe():
    # sample of the acceptance-scale run
    for seed in range(200):
        check_safe_top(gen_program(GenConfig(seed=seed)), EVM_FUNS)


def test_generator_respects_no_loops():
    for seed in range(30):
        program = gen_program(GenConfig(seed=seed, allow_loops=False))
        assert "for" not in repr(program) or "For" not in {
            type(s).__name__ for s in program.statements
        }


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_depth=0)
    with pytest.raises(ValueError):
        GenConfig(seed=0, weights={"let": -1})
    # partial weights merge with defaults, so zeroing a few keys is fine
    GenConfig(seed=0, weights={"let": 0, "assign": 0})
    from yulkit.generate import _DEFAULT_WEIGHTS

    with pytest.raises(ValueError):
        GenConfig(seed=0, weights={k: 0 for k in _DEFAULT_WEIGHTS})
    # a misspelt kind would otherwise leave the defaults in force
    with pytest.raises(ValueError, match="unknown statement kind"):
        GenConfig(seed=0, weights={"lets": 9, "While": 4})
    # rejected at construction, not halfway through generation
    with pytest.raises(ValueError, match="max_stmts_per_block"):
        GenConfig(seed=0, max_stmts_per_block=0)
    with pytest.raises(ValueError, match="malformed identifier: 'a.b'"):
        GenConfig(seed=0, extra_funs={"a.b": (0, 1)})
    with pytest.raises(ValueError, match="keyword"):
        GenConfig(seed=0, extra_funs={"let": (0, 1)})
    # the generator's loop headers call lt with two arguments
    with pytest.raises(ValueError, match="'lt' is a builtin"):
        GenConfig(seed=0, extra_funs={"lt": (5, 1)})
    with pytest.raises(ValueError, match="negative"):
        GenConfig(seed=0, extra_funs={"x": (-1, 1)})
    GenConfig(seed=0, max_stmts_per_block=1, extra_funs={"x": (0, 0)})


def test_generator_single_kind_weights_terminate():
    # The generator draws through Random._randbelow, which loops forever on
    # 0 where choice() raises: every draw from a candidate list relies on a
    # non-empty guard.  One kind at a time leaves most statements with no
    # candidate of any other kind; a lost guard hangs, so run in a child.
    run_fresh(
        "from yulkit.generate import GenConfig, gen_program, _DEFAULT_WEIGHTS\n"
        "for kind in _DEFAULT_WEIGHTS:\n"
        "    weights = {k: int(k == kind) for k in _DEFAULT_WEIGHTS}\n"
        "    for allow_fundefs in (True, False):\n"
        "        for seed in range(50):\n"
        "            gen_program(GenConfig(seed=seed, max_depth=3, allow_fundefs=allow_fundefs, weights=weights))\n",
        timeout=60,
    )


def test_default_fuels():
    assert DEFAULT_FUELS == (4, 64, 4096)


# --- per-program checkers on known-good inputs ---


def test_checkers_pass_on_generated_corpus():
    rng = random.Random(0)
    for seed in range(25):
        program = gen_program(GenConfig(seed=seed))
        assert check_static_soundness_program(program, DEFAULT_FUELS) is None
        assert check_loop_init_program(program, DEFAULT_FUELS) is None
        assert (
            check_renamevar_program(program, DEFAULT_FUELS, rng, trials=3) is None
        )
        assert check_fuel_monotonicity_program(program, range(2, 11)) is None
    for seed in range(25):
        program = gen_program(GenConfig(seed=seed, allow_fundefs=False))
        assert check_dead_code_program(program, DEFAULT_FUELS, rng) is None


def test_dead_code_checker_requires_nofun():
    program = parse_program("{ function f() { } }")
    detail = check_dead_code_program(program, DEFAULT_FUELS, random.Random(0))
    assert detail is not None and "hypothesis" in detail
    # the hypothesis covers the environment's bodies too: dead-code drops g
    # after h's `leave`, and that is not a fault of the transformation
    env_src = "{ function h() -> r { r := g() leave function g() -> v { v := 7 } } }"
    funenv = extend_funenv((), hoisted_fundefs(parse_program(env_src)))
    program = parse_program("{ let x := h() }")
    detail = check_dead_code_program(program, DEFAULT_FUELS, random.Random(0), funenv)
    assert detail == "hypothesis violated: an environment body contains a function definition"
    detail = check_dead_code_program(
        program, DEFAULT_FUELS, random.Random(0), funenv, require_nofun=False
    )
    assert detail == "okeq failed at fuel 64: regular {x=7} vs error unknown-fun: g"


def test_dead_code_counterexample_without_hypothesis():
    # A function definition after `break` is unreachable as a statement but
    # its definition is hoisted: the call before the break depends on it.
    # Dead-code elimination deletes it, so with the nofun hypothesis dropped
    # the checker must report a failure.
    src = "{ let r for { } 1 { } { r := g() break function g() -> v { v := 42 } } }"
    program = parse_program(src)
    check_safe_top(program, EVM_FUNS)  # the counterexample is a safe program
    out = dynamics.exec_top(program, limit=1000)
    assert out.cstate.local == {"r": 42}
    detail = check_dead_code_program(
        program, DEFAULT_FUELS, random.Random(0), require_nofun=False
    )
    assert detail is not None
    assert "hypothesis" not in detail


def _outputs_not_zeroed(info, args):
    # unassigned outputs then read as missing locals
    return CState({p.text: v for p, v in zip(info.inputs, args)})


def _block_exit_keeps_declarations(local, size):
    pass


def _call_env_not_trimmed(funenv, name):
    # the callee runs in the caller's whole function environment
    for scope in reversed(funenv):
        if name in scope:
            return scope[name], funenv
    raise SafetyError(SafetyKind.UNKNOWN_FUN, name)


# name -> (attribute of yulkit.dynamics, its broken replacement)
INTERPRETER_MUTANTS = {
    "outputs-not-zeroed": ("_initial_function_state", _outputs_not_zeroed),
    "block-exit-keeps-declarations": ("_pop_to", _block_exit_keeps_declarations),
    "call-env-not-trimmed": ("find_fun", _call_env_not_trimmed),
}


@pytest.mark.parametrize("mutant", INTERPRETER_MUTANTS)
def test_static_soundness_catches_mutated_interpreter(monkeypatch, mutant):
    monkeypatch.setattr(dynamics, *INTERPRETER_MUTANTS[mutant])
    failures = 0
    for seed in range(80):
        program = gen_program(GenConfig(seed=seed))
        if check_static_soundness_program(program, DEFAULT_FUELS) is not None:
            failures += 1
    assert failures > 0


def _untraced_outcome(program):
    try:
        out = exec_top(program)
    except EvalError as exc:
        return type(exc), str(exc)
    return out.cstate.local, out.mode


@pytest.mark.parametrize("mutant", INTERPRETER_MUTANTS)
def test_interpreter_mutants_reach_the_untraced_path(monkeypatch, mutant):
    # The untraced closures must look each replaced function up when they
    # run or compile, as the traced ones do, not bind it ahead of time.
    programs = [gen_program(GenConfig(seed=seed)) for seed in range(40)]
    expected = [_untraced_outcome(program) for program in programs]
    monkeypatch.setattr(dynamics, *INTERPRETER_MUTANTS[mutant])
    assert [_untraced_outcome(program) for program in programs] != expected


def test_static_soundness_catches_untrimmed_call_environment(monkeypatch):
    # f's body must run without g in scope: only the function table at block
    # entry shows the difference, since f's body would also check with g.  In
    # the second program f's body is entered first under a judged table, then,
    # in the same run, under one with g: that entry must still be reported.
    programs = [
        parse_program("{ function f() -> r { r := 1 } { function g() { } let y := f() } }"),
        parse_program("{ function f() -> r { r := 1 } let a := f() { function g() { } let y := f() } }"),
    ]
    for program in programs:
        assert check_static_soundness_program(program, DEFAULT_FUELS) is None
    monkeypatch.setattr(dynamics, *INTERPRETER_MUTANTS["call-env-not-trimmed"])
    for program in programs:
        detail = check_static_soundness_program(program, DEFAULT_FUELS)
        assert detail is not None and "block entered with functions ['f', 'g']" in detail


def test_static_soundness_judges_each_position_of_a_shared_node():
    # One statement object and one Block object, each at two positions: the
    # block under two function tables, the statement under two variable sets.
    stmt = parse_program("{ x := g(x) }").statements[0]
    shared = BlockStmt(Block((stmt,)))
    first, second = parse_program(
        "{ { function g(a) -> b { b := a } }"
        "  { function g(a) -> b { b := add(a, 1) } function h() { } let y } }"
    ).statements
    program = Block(
        (
            parse_program("{ let x := 1 }").statements[0],
            BlockStmt(Block(first.block.statements + (shared,))),
            BlockStmt(Block(second.block.statements[:2] + (shared,) + second.block.statements[2:] + (stmt,))),
        )
    )
    check_safe_top(program, EVM_FUNS)
    assert exec_top(program).cstate.local == {"x": 3}
    assert check_static_soundness_program(program, DEFAULT_FUELS) is None


class _VariableSets(Tracer):
    """Records each event with the variable sets of its CState snapshots."""

    def __init__(self):
        self.events = []

    def on_statement(self, stmt, cstate, funenv, outcome):
        self.events.append((stmt, frozenset(cstate.local), frozenset(outcome.cstate.local), outcome.mode))

    def on_expression(self, expr, cstate, funenv, outcome):
        self.events.append((expr, frozenset(cstate.local), outcome.values))


class _SoundnessSnapshots(testgen._SoundnessTracer):
    """The soundness tracer's snapshots, recorded by its hooks as they come."""

    def __init__(self):
        super().__init__(Judgments())
        self.events = []

    def statement_hook(self, stmt, funenv):
        return lambda before, after, mode: self.events.append((stmt, before, after, mode))

    def expression_hook(self, expr, funenv):
        return lambda before, values: self.events.append((expr, before, values))


def _events_at_fuels(program, tracer):
    compiled = compile_top(program, EVM_PURE, tracer)
    for fuel in DEFAULT_FUELS:
        try:
            compiled.run(fuel)
        except LimitError:
            pass
    return tracer.events


def test_soundness_snapshots_are_the_live_variable_sets():
    events = 0
    for seed in range(40):
        program = gen_program(GenConfig(seed=seed))
        reference = _events_at_fuels(program, _VariableSets())
        taken = _events_at_fuels(program, _SoundnessSnapshots())
        assert taken == reference, seed
        for event in taken:
            snapshots = event[1:3] if len(event) == 4 else event[1:2]
            assert all(type(state) is frozenset for state in snapshots)
        events += len(taken)
    assert events > 1000


def test_soundness_snapshot_is_shared_while_the_variables_stay():
    program = parse_program("{ for { let i := 0 } lt(i, 3) { i := add(i, 1) } { } }")
    update = program.statements[0].update.statements[0]
    tracer = _SoundnessSnapshots()
    exec_top(program, tracer=tracer)
    befores = [before for node, before, *_ in tracer.events if node is update]
    assert len(befores) == 3 and befores[0] == {"i"}
    assert all(before is befores[0] for before in befores)


# --- suite runner ---


def test_suite_names_closed_set():
    assert set(SUITE_NAMES) == {
        "static-soundness",
        "dead-code",
        "loop-init",
        "renamevar",
        "round-trip",
        "restrictions",
        "fuel-monotonicity",
        "gen-safety",
    }


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_the_suite_rows():
    # README's suite table is the one place that states each property; its
    # rows and the sentence naming the fueled suites follow SUITES
    section = README.read_text().split("### Property suites\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \|", section, re.MULTILINE)
    assert rows == [suite.name for suite in SUITES]
    (sentence,) = re.findall(r"suites that run at given\s+fuels: ([^.]*)\.", section)
    assert re.findall(r"`([\w-]+)`", sentence) == [suite.name for suite in SUITES if suite.fueled]


def test_run_suite_empty():
    report = run_suite("round-trip", 0)
    assert report.passed and report.cases_run == 0
    assert "0 case(s), 0 failure(s)" in report.summary()


def test_run_suite_small_all_pass():
    for name in SUITE_NAMES:
        report = run_suite(name, 4, seed=17)
        assert report.passed, report.summary()
        assert report.cases_run == 4


def test_run_suite_from_fresh_interpreter():
    # these cases recurse deeper than CPython's default limit; they must not
    # depend on an earlier caller having raised it
    run_fresh(
        "from yulkit.testgen import run_suite\n"
        "for name, seed in (('renamevar', 7), ('dead-code', 11)):\n"
        "    report = run_suite(name, 1, seed=seed)\n"
        "    assert report.passed, report.summary()\n"
    )


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status"
)
def test_run_suite_memory_stays_bounded():
    # the loop-init cases leave reference cycles behind; with the cyclic
    # collector paused for the run this peaked at 165 MiB, with it running
    # at 32 MiB.  VmHWM is the child's own peak: its ru_maxrss also counts
    # the peak of the process that started it, here pytest's.
    out = run_fresh(
        "from yulkit.testgen import run_suite\n"
        "assert run_suite('loop-init', 200).passed\n"
        "import pathlib\n"
        "status = pathlib.Path('/proc/self/status').read_text()\n"
        "print(status.split('VmHWM:')[1].split()[0])\n"
    )
    assert int(out) < 100 * 1024


def test_restrictions_failure_carries_the_program(monkeypatch):
    # the program is printed only once a check has failed
    monkeypatch.setattr(testgen, "noloopinit", lambda block: False)
    report = run_suite("restrictions", 2, seed=40)
    assert [(f.seed, f.prop) for f in report.failures] == [
        (40, "loop-init-establishes"),
        (41, "loop-init-establishes"),
    ]
    for f in report.failures:
        assert f.program == to_source(gen_program(GenConfig(seed=f.seed)))


# --- every verdict can go red ---
#
# Each wrong version below stands in for one collaborator in testgen's
# namespace, given the right one; the suite must fail with the named
# property and text.


def _appends_empty_block(real):
    """`real`, with an empty block appended: never idempotent."""
    return lambda block: Block(real(block).statements + (BlockStmt(Block(())),))


def _always(source):
    """A transform whose output is always `source`: idempotent."""
    tree = parse_program(source)
    return lambda real: lambda block: tree


def _judging(change):
    """check_safe_top, then `change` applied to what it recorded."""
    def wrong(real):
        def check(program, funs, judged=None):
            real(program, funs, judged)
            change(judged)
        return check
    return wrong


def _rekeyed(table):
    """Each judgment in `table` moved to the variables before its node plus
    one that no generated program declares."""
    items = list(table.items())
    table.clear()
    table.update(((node, vars | {"zz"}), judgment) for (node, vars), judgment in items)


def _blocks_judged_with_function_zz(judged):
    """Every block judged under one more function than its program has."""
    for tables in judged.blocks.values():
        tables[:] = [{**table, "zz": (0, 0)} for table in tables]


def _running(run):
    """compile_top, with each compiled program run as `run(compiled, limit)`."""
    def wrong(real):
        def compile_top(block, dialect, tracer):
            compiled = real(block, dialect, tracer)
            return SimpleNamespace(run=lambda limit: run(compiled, limit))
        return compile_top
    return wrong


def _without_builtins(real):
    """compile_top, in a dialect with no builtins."""
    return lambda block, dialect, tracer: real(block, Dialect({}), tracer)


def _differs_on_alternate_calls(real):
    """gen_program, with an empty block appended on every second call."""
    calls, other = itertools.count(), _appends_empty_block(real)
    return lambda config: other(config) if next(calls) % 2 else real(config)


def _rejects_every_program(real):
    def check(program, funs, judged=None):
        raise StaticError(ErrorKind.UNKNOWN_VAR, "rejected")
    return check


def _every_second_judgment_leaves(real):
    calls = itertools.count()

    def check(stmt, vars, funs):
        vm = real(stmt, vars, funs)
        return VarsModes(vm.vars, vm.modes | {Mode.LEAVE}) if next(calls) % 2 else vm
    return check


def _rejects_every_pair(real):
    def relation(old, new, ren):
        raise RenameError(RenameKind.SHAPE_MISMATCH, "rejected")
    return relation


def _let_initialized_to_12345(real):
    return lambda stmt: (
        VariableSingle(stmt.name, LiteralExpr(DecNumber("12345")))
        if isinstance(stmt, VariableSingle)
        else real(stmt)
    )


VERDICT_MUTANTS = {
    "loop-init-idempotent": (
        "restrictions", "for_loop_init_rewrite", _appends_empty_block,
        "loop-init-idempotent", "second application changed code",
    ),
    "dead-code-idempotent": (
        "restrictions", "dead_code_eliminate", _appends_empty_block,
        "dead-code-idempotent", "second application changed code",
    ),
    "dead-code-preserves-noloopinit": (
        "restrictions", "dead_code_eliminate", _always("{ for { let i := 0 } 0 { } { } }"),
        "dead-code-preserves-noloopinit", "noloopinit lost",
    ),
    "dead-code-preserves-nofun": (
        "restrictions", "dead_code_eliminate", _always("{ function f() { } }"),
        "dead-code-preserves-nofun", "nofun lost",
    ),
    "loop-init-establishes": (
        "restrictions", "noloopinit", lambda real: lambda block: False,
        "loop-init-establishes", "noloopinit false after rewrite",
    ),
    "loop-init-nonempty-initializer": (
        "loop-init", "noloopinit", lambda real: lambda block: False,
        "loop-init", "rewrite left a loop with a nonempty initializer",
    ),
    "loop-init-not-idempotent": (
        "loop-init", "for_loop_init_rewrite", _appends_empty_block,
        "loop-init", "rewrite is not idempotent",
    ),
    "loop-init-not-safe": (
        "loop-init", "for_loop_init_rewrite", _always("{ x := 0 }"),
        "loop-init", "rewritten program not safe: unknown-var: x",
    ),
    "loop-init-okeq": (
        "loop-init", "okeq", lambda real: lambda a, b: False,
        "loop-init", "okeq failed at fuel ",
    ),
    "fuel-wraps-at-4096": (
        "fuel-monotonicity", "compile_top",
        _running(lambda compiled, limit: compiled.run(limit % 4096)),
        "fuel-monotonicity", "LimitError at fuel 2^12 after success at lower fuel",
    ),
    "fuel-no-builtins": (
        "fuel-monotonicity", "compile_top", _without_builtins,
        "fuel-monotonicity", "SafetyError at fuel 2^",
    ),
    "fuel-observable": (
        "fuel-monotonicity", "compile_top",
        _running(lambda compiled, limit: compiled.run(limit, {"fuel": limit})),
        "fuel-monotonicity", "outcome changed with fuel 2^",
    ),
    "renamevar-function-environments": (
        "renamevar", "funenv_renamevar", lambda real: lambda old, new: False,
        "renamevar", "function environments not related",
    ),
    "renamevar-rejected": (
        "renamevar", "statement_renamevar", _rejects_every_pair,
        "renamevar", "relation rejected: shape-mismatch: rejected",
    ),
    "renamevar-modes": (
        "renamevar", "check_safe_statement", _every_second_judgment_leaves,
        "renamevar", "mode sets differ: ['regular'] vs ['leave', 'regular']",
    ),
    "renamevar-outcomes": (
        "renamevar", "soutcome_result_renamevar", lambda real: lambda old, new, ren: False,
        "renamevar", "outcomes unrelated at fuel ",
    ),
    "soundness-modes": (
        "static-soundness", "check_safe_top",
        _judging(lambda judged: judged.statements.update(
            (key, VarsModes(vm.vars, frozenset())) for key, vm in list(judged.statements.items())
        )),
        "static-soundness", "outside static modes {}",
    ),
    "soundness-counts": (
        "static-soundness", "check_safe_top",
        _judging(lambda judged: judged.expressions.update(dict.fromkeys(judged.expressions, 2))),
        "static-soundness", "1 value(s) != static count 2",
    ),
    "soundness-block-functions": (
        "static-soundness", "check_safe_top",
        _judging(_blocks_judged_with_function_zz),
        "static-soundness", "block entered with functions",
    ),
    "soundness-statement-variables": (
        "static-soundness", "check_safe_top", _judging(lambda judged: _rekeyed(judged.statements)),
        "static-soundness", "statement reached with variables",
    ),
    "soundness-expression-variables": (
        "static-soundness", "check_safe_top", _judging(lambda judged: _rekeyed(judged.expressions)),
        "static-soundness", "expression reached with variables",
    ),
    "soundness-variables-after": (
        "static-soundness", "check_safe_top",
        _judging(lambda judged: judged.statements.update(
            (key, VarsModes(vm.vars | {"zz"}, vm.modes)) for key, vm in list(judged.statements.items())
        )),
        "static-soundness", "!= predicted",
    ),
    "soundness-no-builtins": (
        "static-soundness", "compile_top", _without_builtins,
        "static-soundness", "SafetyError at fuel ",
    ),
    "gen-determinism": (
        "gen-safety", "gen_program", _differs_on_alternate_calls,
        "gen-determinism", "two runs differ",
    ),
    "gen-safety": (
        "gen-safety", "check_safe_top", _rejects_every_program,
        "gen-safety", "unknown-var: rejected",
    ),
    "dead-code-hypothesis": (
        "dead-code", "nofun", lambda real: lambda block: False,
        "dead-code", "hypothesis violated",
    ),
    "dead-code-okeq": (
        "dead-code", "okeq", lambda real: lambda a, b: False,
        "dead-code", "okeq failed at fuel 4:",
    ),
    "dead-code-statement": (
        "dead-code", "statement_dead", _let_initialized_to_12345,
        "dead-code", "statement okeq failed at fuel ",
    ),
    "round-trip": (
        "round-trip", "to_source",
        lambda real: lambda node: real(Block(node.statements[:-1])),
        "round-trip", "parse(print(t)) != t",
    ),
}


@pytest.mark.parametrize("mutant", sorted(VERDICT_MUTANTS))
def test_every_suite_verdict_can_go_red(monkeypatch, mutant):
    suite, name, wrong, prop, text = VERDICT_MUTANTS[mutant]
    monkeypatch.setattr(testgen, name, wrong(getattr(testgen, name)))
    report = run_suite(suite, 4)
    assert report.failures
    for failure in report.failures:
        assert failure.prop == prop
        assert text in failure.detail, failure.detail


def test_every_suite_row_has_a_verdict_mutant():
    # and every mutant drives an existing row red
    assert {suite for suite, *_ in VERDICT_MUTANTS.values()} == {suite.name for suite in SUITES}


def test_restrictions_gen_nofun_failure_shows_the_restricted_program(monkeypatch):
    # the function-free program is the one that broke nofun, so it is the one replayed
    monkeypatch.setattr(testgen, "nofun", lambda block: False)
    (failure,) = run_suite("restrictions", 1, seed=5).failures
    assert failure.prop == "gen-nofun"
    restricted = to_source(gen_program(GenConfig(seed=5, allow_fundefs=False)))
    assert restricted != to_source(gen_program(GenConfig(seed=5)))
    assert failure.program == restricted


def test_run_suite_case_seed_offsets():
    # cases are seeded seed+i, so a one-case run at seed k replays case k
    full = run_suite("round-trip", 5, seed=100)
    single = run_suite("round-trip", 1, seed=103)
    assert full.passed and single.passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="no-such-suite"):
        run_suite("no-such-suite", 1)


# --- undecided outcomes ---


def test_suites_treat_host_limit_as_undecided(fresh_recursion_limit):
    program = parse_program(DEEP_RECURSION)
    fresh_recursion_limit()
    with pytest.raises(HostLimitError):
        exec_top(program)
    assert check_static_soundness_program(program, (4, DEFAULT_FUEL)) is None
    assert check_fuel_monotonicity_program(program, range(2, 21)) is None
    assert check_loop_init_program(program, (4, DEFAULT_FUEL)) is None
    rng = random.Random(0)
    assert check_renamevar_program(program, (DEFAULT_FUEL,), rng, trials=4) is None
    # dead code needs a function-free program: f comes from the environment
    funenv = extend_funenv((), hoisted_fundefs(program))
    call = Block(program.statements[1:])
    assert check_dead_code_program(call, (4, DEFAULT_FUEL), rng, funenv) is None


def _raising(error):
    def run(fuel):
        raise error
    return run


def _settling(fuel):
    return exec_top(parse_program("{ let x := 1 }"), limit=fuel)


def test_run_pair_retries_only_a_split_between_settled_and_undecided():
    for undecided in (LimitError(), HostLimitError()):
        fuel, old, new = run_pair(_raising(undecided), _settling, 16, retry=True)
        assert (fuel, old, type(new)) == (DEFAULT_FUEL, undecided, SOutcome)
        fuel, old, new = run_pair(_settling, _raising(undecided), 16, retry=False)
        assert (fuel, type(old), new) == (16, SOutcome, undecided)
    unsafe = SafetyError(SafetyKind.MODE_VIOLATION, "test")
    for other in (unsafe, HostLimitError()):
        fuel, old, new = run_pair(_raising(LimitError()), _raising(other), 16, retry=True)
        assert (fuel, new) == (16, other)
