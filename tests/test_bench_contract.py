"""The benchmark under bench/ wraps yulkit functions by the names its modules
look them up under.  Installing and removing its spans here makes a renamed
or deleted name fail this suite at once, rather than the benchmark later."""

import importlib
import pathlib

from yulkit import cli, testgen

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_bench_spans_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    spans = tracing.Spans()
    try:
        spans.install(workloads.library())
    finally:
        spans.uninstall()
    for owner in (cli, testgen):
        for name in ("check_safe_top", "exec_top", "to_source"):
            assert not hasattr(getattr(owner, name), "__wrapped__")
    assert not hasattr(cli.call_with_deep_stack, "__wrapped__")
