"""yulkit benchmark: one workload per run, from one process on one thread.

    python3 bench/run.py --workload soundness|frontend|validate \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop: the next operation starts when the previous
one ends.  `--trace 0` measures the end-to-end metrics for S seconds of
operations.  `--trace 1` wraps the calls into each yulkit module, does a fixed
amount of work (S times TRACED_OPS_PER_S operations) and reports the
per-module metrics; its spans are written to bench/out/.  Times are in
reference seconds: each operation's wall time is scaled by the speed of the
shared box at that moment, measured by a fixed kernel timed between
operations (calibrate.py).  The last line of standard output is the result
as one JSON object.  A wrong output makes the run exit 1.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

IMPORTS = 3  # yulkit is imported this many times; setup_s takes the median
MIN_OPS = 200  # so that at least ten operations lie beyond the 95th percentile
# Operations per second of --seconds done by the traced run: half the untraced
# rate on the reference box, so each layer's totals cover the same work on
# every commit and its counts repeat exactly for a seed.
TRACED_OPS_PER_S = {"soundness": 35, "frontend": 60, "validate": 14}
REPLAY_OPS = 64  # exec_top calls of the first operations are replayed


def import_yulkit() -> float:
    """Import yulkit afresh IMPORTS times; return the median seconds."""
    times = []
    for _ in range(IMPORTS):
        for name in [m for m in sys.modules if m == "yulkit" or m.startswith("yulkit.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("yulkit.cli")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def make_workload(name: str, seed: int, seconds: float, directory: str):
    if name == "soundness":
        return wl.Soundness(seed, seconds)
    if name == "frontend":
        return wl.Frontend(seed, seconds)
    return wl.Validate(seed, seconds, directory)


class Measurement:
    def __init__(self) -> None:
        self.busy_s = 0.0  # wall time spent inside operations
        self.clock = calibrate.Clock()  # wall time of every operation
        self.completed = []  # per operation: did it complete?
        self.attempted = 0
        self.failed = {}  # description -> count

    def times(self):
        """Reference seconds of every operation, and of those that completed."""
        every = self.clock.reference()
        return every, [t for t, ok in zip(every, self.completed) if ok]

    def ops_per_s(self) -> float:
        every, done = self.times()
        return len(done) / sum(every)

    def wall_ops_per_s(self) -> float:
        return sum(self.completed) / self.busy_s


def measure(m: Measurement, workload, lib, check_lib, seconds: float, ops=None, spans=None) -> None:
    """Run whole rounds until `seconds` of operations (and MIN_OPS completed
    ones) are done, or, given `ops`, until that many were attempted."""
    rounds = workload.rounds()

    def more() -> bool:
        if ops is not None:
            return m.attempted < ops
        return m.busy_s < seconds or sum(m.completed) < MIN_OPS

    while more():
        for op in next(rounds):
            if spans is not None:
                spans.capture = m.attempted < REPLAY_OPS
            t0 = time.perf_counter()
            outcome = op.run(lib)
            elapsed = time.perf_counter() - t0
            m.busy_s += elapsed
            m.attempted += 1
            m.clock.add(elapsed)
            failed = op.check(outcome, check_lib) == wl.FAILED
            if failed:
                what = op.describe()
                m.failed[what] = m.failed.get(what, 0) + 1
            m.completed.append(not failed)
    if spans is not None:
        spans.capture = False


def end_to_end(setup_s: float, m: Measurement) -> dict:
    every, done = m.times()
    cuts = statistics.quantiles(done, n=100)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / sum(every), "ops/s"),
        "op_ms_p50": (cuts[49] * 1e3, "ms"),
        "op_ms_p95": (cuts[94] * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(spans: tracing.Spans, replayed, import_s: float, m: Measurement) -> dict:
    totals = spans.totals()
    zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "bytes": 0}

    def t(name: str) -> dict:
        return totals.get(name, zero)

    out = {}
    for name in (
        "syntax.lex", "syntax.parse_program", "ast.to_source",
        "statics.check_safe_top", "statics.check_safe_statement", "statics.check_safe_expression",
        "testgen.gen_program", "testgen.run_suite",
        "transforms.dead_code_eliminate", "transforms.for_loop_init_rewrite",
        "renaming.check_disambiguation", "renaming.reference_disambiguate",
        tracing.TRACED, tracing.UNTRACED,
    ):
        out[name + ".s"] = (t(name)["self_s"], "s")
    for name in (
        "syntax.parse_program", "statics.check_safe_top", "statics.check_safe_statement",
        "statics.check_safe_expression", "testgen.gen_program", "transforms.okeq",
        "renaming.soutcome_result_renamevar", "cli.main",
    ):
        out[name + ".calls"] = (t(name)["calls"], "count")
    for name in ("syntax.lex", "syntax.parse_program", "ast.to_source"):
        out[name + ".mb_per_s"] = (_ratio(t(name)["bytes"] / 1e6, t(name)["incl_s"]), "MB/s")
    out["cli.main.self_s"] = (t("cli.main")["self_s"], "s")
    out["dynamics.exec_top.calls"] = (t(tracing.TRACED)["calls"] + t(tracing.UNTRACED)["calls"], "count")

    def traced(span: int) -> bool:
        return spans.names[spans.name[span]] == tracing.TRACED

    traced_s = sum(spans.end[i] - spans.start[i] for i, *_ in replayed if traced(i))
    traced_again_s = sum(s for i, _, s, _ in replayed if traced(i))
    untraced_s = sum(s for _, _, s, _ in replayed)
    statements = sum(n for *_, n in replayed)
    out["dynamics.tracer_overhead_ratio"] = (_ratio(traced_s, traced_again_s), "ratio")
    out["dynamics.exec_top.settled_ratio"] = (_ratio(sum(ok for _, ok, _, _ in replayed), len(replayed)), "ratio")
    out["dynamics.statements"] = (statements, "count")
    out["dynamics.stmts_per_s"] = (_ratio(statements, untraced_s), "stmts/s")
    out["yulkit.import_s"] = (import_s, "s")
    out["bench.traced_ops_per_s"] = (m.ops_per_s(), "ops/s")
    return out


def probe(lib, check_lib, directory: str) -> None:
    """One operation of every workload on fixed inputs, so that each wrapped
    layer is reached in every traced run."""
    ops = (
        wl.Soundness(0, 0).probe(lib)
        + wl.Frontend(0, 0).probe(lib)
        + wl.Validate(0, 0, directory).probe(lib)
    )
    for op in ops:
        op.check(op.run(lib), check_lib)


def report(correct: bool, m: Measurement, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": sum(m.failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("soundness", "frontend", "validate"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    before_import_s = time.perf_counter() - _STARTED
    import_s = import_yulkit()
    lib = wl.library()
    os.makedirs(OUT, exist_ok=True)
    spans = tracing.Spans() if args.trace else None
    m = Measurement()
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as directory:
        workload = make_workload(args.workload, args.seed, args.seconds, directory)
        try:
            run_lib = spans.install(lib) if spans else lib
            batch_s = []
            for build in workload.batches(run_lib):
                t0 = time.perf_counter()
                build()
                batch_s.append(time.perf_counter() - t0)
            setup_wall_s = before_import_s + import_s
            if batch_s:
                setup_wall_s += len(batch_s) * statistics.median(batch_s)
            # The inputs stay alive for the whole run; keep the collector from
            # rescanning them, as it would not in a process that reads one program.
            gc.collect()
            gc.freeze()
            if spans:
                spans.capture = True
                probe(run_lib, lib, directory)
                ops = int(args.seconds * TRACED_OPS_PER_S[args.workload])
                measure(m, workload, run_lib, lib, args.seconds, ops=ops, spans=spans)
                spans.uninstall()
                replayed = tracing.replay(spans.exec_calls, lib)
                metrics = per_layer(spans, replayed, import_s, m)
                spans.write(os.path.join(OUT, f"spans-{args.workload}.tsv.gz"))
            else:
                measure(m, workload, lib, lib, args.seconds)
                # set-up is scaled by the median kernel time of the whole run
                metrics = end_to_end(setup_wall_s / m.clock.speed(), m)
        except wl.WrongOutput as exc:
            print(f"wrong output: {exc}", file=sys.stderr)
            print(report(False, m, {}))
            return 1
        finally:
            if spans:
                spans.uninstall()

    for what, count in sorted(m.failed.items()):
        print(f"failed {count}x: {what} (known defect: {wl.STDIN_DEFECT})")
    print(
        f"wall clock: {m.wall_ops_per_s():.4g} ops/s, set-up {setup_wall_s:.4g} s; "
        f"kernel {statistics.median(m.clock.kernel) * 1e3:.4g} ms, "
        f"{m.clock.speed():.4g} wall s per reference s"
    )
    line = report(True, m, metrics)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
