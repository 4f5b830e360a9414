"""Tests of the benchmark itself: each correctness check can fail, the printed
metrics are exactly those BENCHMARK.json names, and the traced run keeps the
spans made on the cli worker thread.

    python3 -m pytest bench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return wl.library()


@pytest.fixture(scope="module")
def validate_round(lib, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("validate"))
    return wl.Validate(0, 0, directory).build_round(lib, 0, wl.Validate.drawers(lib, 500))


# --- each check can fail -------------------------------------------------------------


def test_round_has_every_kind_and_one_stdin_pair(validate_round):
    kinds = [(p.transform, p.accept, p.stdin is not None) for p in validate_round]
    assert len(kinds) == len(wl.VALIDATE_KINDS) * (wl.ACCEPTED_PER_KIND + 1) + 1
    assert sum(stdin for _, _, stdin in kinds) == 1
    for kind in wl.VALIDATE_KINDS:
        assert kinds.count((kind, True, False)) == wl.ACCEPTED_PER_KIND
        assert kinds.count((kind, False, False)) == 1


def test_cycle_holds_each_cost_class_once(lib, tmp_path):
    validate = wl.Validate(0, 0, str(tmp_path))
    drawers = validate.drawers(lib, 700)
    pairs = [p for r in range(wl.CYCLE) for p in validate.build_round(lib, r, drawers)]
    for kind in wl.VALIDATE_KINDS:
        fundefs = kind != "dead-code"
        olds = [p.old for p in pairs if p.transform == kind and p.accept and p.stdin is None]
        classes = [wl.cost_class(lib, lib.parse_program(open(old).read()), fundefs) for old in olds]
        unsettled = sorted(c for c in classes if c != wl.SETTLES)
        assert unsettled == list(range(len(wl.UNSETTLED_CUTS[fundefs]) + 1))
        assert len(classes) == wl.CYCLE * wl.ACCEPTED_PER_KIND


def test_unsettled_classes_spread_over_the_cycle():
    for fundefs, cuts in wl.UNSETTLED_CUTS.items():
        per_round = [wl.unsettled_classes(fundefs, r) for r in range(wl.CYCLE)]
        assert sorted(c for cs in per_round for c in cs) == list(range(len(cuts) + 1))
        assert max(len(cs) for cs in per_round) <= 1


def test_pairs_pass_their_checks(validate_round, lib):
    for op in validate_round:
        status = op.check(op.run(lib), lib)
        assert status == wl.OK or (status == wl.FAILED and op.stdin is not None)


def test_wrong_expected_verdict_is_caught(validate_round, lib):
    for op in validate_round:
        if op.stdin is None:
            flipped = dataclasses.replace(op, accept=not op.accept)
            with pytest.raises(wl.WrongOutput):
                flipped.check(op.run(lib), lib)


def test_corrupted_certificate_hash_is_caught(validate_round, lib):
    op = next(p for p in validate_round if p.accept and p.stdin is None)
    code, out, err = op.run(lib)
    cert = json.loads(out)
    digest = cert["inputs"][1]["sha256"]
    cert["inputs"][1]["sha256"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    with pytest.raises(wl.WrongOutput):
        op.check((code, json.dumps(cert), err), lib)
    with pytest.raises(wl.WrongOutput):
        op.check((code, "not json", err), lib)


def test_stdin_pair_is_failed_or_checked(validate_round, lib):
    op = next(p for p in validate_round if p.stdin is not None)
    code, out, err = op.run(lib)
    if code == 2:
        assert op.check((code, out, err), lib) == wl.FAILED
    else:  # once the defect is mended, the pair is checked like any other
        assert op.check((code, out, err), lib) == wl.OK
    with pytest.raises(wl.WrongOutput):
        op.check((2, "", "error: something else"), lib)


def test_mutated_tree_is_caught(lib):
    op = wl.generated_program(lib, 21)
    tree, safe, printed = op.run(lib)
    assert op.check((tree, safe, printed), lib) == wl.OK
    assert tree.statements, "seed 21 should give a non-empty program"
    mutated = dataclasses.replace(tree, statements=tree.statements[:-1])
    with pytest.raises(wl.WrongOutput):
        op.check((mutated, safe, printed), lib)
    with pytest.raises(wl.WrongOutput):
        op.check((tree, safe, printed + " "), lib)
    with pytest.raises(wl.WrongOutput):
        op.check((tree, not safe, printed), lib)


def test_fixture_verdicts(lib):
    fixtures = {op.name: op for op in wl.read_fixtures()}
    assert not fixtures["dotted.yul"].safe
    for op in fixtures.values():
        assert op.check(op.run(lib), lib) == wl.OK
    dotted = dataclasses.replace(fixtures["dotted.yul"], safe=True)
    with pytest.raises(wl.WrongOutput):
        dotted.check(dotted.run(lib), lib)


def test_failed_soundness_case_is_caught(lib):
    from yulkit.testgen import SuiteFailure, SuiteReport

    op = wl.SoundnessCase(3)
    assert op.check(op.run(lib), lib) == wl.OK
    failing = SuiteReport("static-soundness", 1, (SuiteFailure(3, "{ }", "p", "d"),))
    with pytest.raises(wl.WrongOutput):
        op.check(failing, lib)
    with pytest.raises(wl.WrongOutput):
        op.check(SuiteReport("static-soundness", 0, ()), lib)


# --- inputs ------------------------------------------------------------------------------


def _frontend_texts(lib, seed):
    frontend = wl.Frontend(seed, 0.1)
    for build in frontend.batches(lib):
        build()
    return [p.text for p in frontend.programs]


def test_same_seed_same_inputs(lib):
    assert _frontend_texts(lib, 5) == _frontend_texts(lib, 5)
    assert _frontend_texts(lib, 5) != _frontend_texts(lib, 6)


def test_frontend_corpus_has_each_size_class_equally(lib):
    frontend = wl.Frontend(5, 0.1)
    for build in frontend.batches(lib):
        build()
    generated = [p for p in frontend.programs if p.tree is not None]
    classes = [wl.size_class(p.text) for p in generated]
    assert len(generated) == wl.BATCHES * frontend.quota * (len(wl.FRONTEND_SIZE_CUTS) + 1)
    assert {classes.count(c) for c in set(classes)} == {wl.BATCHES * frontend.quota}


def test_shape_ignores_names_only():
    assert wl.shape("{ let x := add(y, 1) }") == wl.shape("{ let a1 := sub(b, 1) }")
    assert wl.shape("{ let x := 1 }") != wl.shape("{ let x := 2 }")


# --- tracing -----------------------------------------------------------------------------


def test_spans_keep_cli_worker_thread(validate_round, lib):
    op = next(p for p in validate_round if p.accept and p.transform == "dead-code")
    spans = tracing.Spans()
    traced = spans.install(lib)
    try:
        assert op.check(op.run(traced), lib) == wl.OK
    finally:
        spans.uninstall()
    names = [spans.names[n] for n in spans.name]
    main = names.index("cli.main")
    worker = [i for i, name in enumerate(names) if spans.thread_names[spans.thread[i]] != "MainThread"]
    assert {names[i] for i in worker} >= {"syntax.parse_program", "syntax.lex", "transforms.dead_code_eliminate"}
    for i in worker:
        assert spans.parent[i] == main or spans.parent[i] in worker
    own = spans.self_times()
    assert 0 < own[main] < spans.end[main] - spans.start[main]
    # uninstall put every original back
    from yulkit import cli, syntax

    assert not hasattr(cli.parse_program, "__wrapped__")
    assert not hasattr(syntax.lex, "__wrapped__")


# --- reference seconds -------------------------------------------------------------------


def test_reference_seconds_follow_the_nearby_kernel_times():
    clock = calibrate.Clock()
    slow = 2 * calibrate.REFERENCE_S
    n = 4 * calibrate.WINDOW
    clock.wall = [0.01] * n
    clock.kernel = [calibrate.REFERENCE_S] * (n // 2) + [slow] * (n // 2)
    ref = clock.reference()
    assert ref[0] == pytest.approx(0.01) and ref[-1] == pytest.approx(0.005)
    assert clock.speed() == pytest.approx(1.5)


def test_kernel_does_not_depend_on_the_program():
    import ast

    with open(calibrate.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith("yulkit") for name in imported)


# --- the command -------------------------------------------------------------------------


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["soundness", "frontend", "validate"])
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_are_exactly_those_named(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if workload == "validate":
        per_round = len(wl.VALIDATE_KINDS) * (wl.ACCEPTED_PER_KIND + 1) + 1
        assert result["attempted"] % per_round == 0
        assert result["failed"] in (0, result["attempted"] // per_round)
    else:
        assert result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "frontend", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
