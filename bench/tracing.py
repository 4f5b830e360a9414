"""Spans around the calls into each yulkit layer, for the traced run.

Each public function is wrapped in the namespace its callers look it up in
(`yulkit.cli.parse_program`, `yulkit.testgen.check_safe_statement`, ...), not
under the defining module's own name, so recursion inside a layer stays one
span.  Two functions are wrapped in their own module because they are not
recursive and their callers live there: `syntax.lex`, called by
`parse_program`, and `testgen.gen_program`, called by the suite cases.

A span records its name, start, end, parent span and thread.  `cli.main` runs
its work on a worker thread from `call_with_deep_stack`; the wrapper around
that call hands the caller's open span to the worker, so spans made there are
kept and are children of `cli.main`.  The caller waits while the worker runs,
so at most one thread appends spans at a time.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import threading
import time
from array import array
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name, how the span's byte count is taken)
_SIZE_OF_ARG = "arg"
_SIZE_OF_RESULT = "result"
WRAPPED = (
    ("yulkit.syntax", "lex", "syntax.lex", _SIZE_OF_ARG),
    ("yulkit.cli", "parse_program", "syntax.parse_program", _SIZE_OF_ARG),
    ("yulkit.cli", "to_source", "ast.to_source", _SIZE_OF_RESULT),
    ("yulkit.testgen", "to_source", "ast.to_source", _SIZE_OF_RESULT),
    ("yulkit.cli", "check_safe_top", "statics.check_safe_top", None),
    ("yulkit.testgen", "check_safe_top", "statics.check_safe_top", None),
    ("yulkit.testgen", "check_safe_statement", "statics.check_safe_statement", None),
    ("yulkit.testgen", "check_safe_expression", "statics.check_safe_expression", None),
    ("yulkit.cli", "okeq", "transforms.okeq", None),
    ("yulkit.cli", "check_disambiguation", "renaming.check_disambiguation", None),
    ("yulkit.cli", "soutcome_result_renamevar", "renaming.soutcome_result_renamevar", None),
    ("yulkit.testgen", "gen_program", "testgen.gen_program", None),
)
# exec_top is wrapped separately: its span name says whether it ran traced.
EXEC_TOP_CALLERS = ("yulkit.cli", "yulkit.testgen")
# cli looks the two passes up in this table, keyed by transform name.
CLI_TRANSFORMS = {
    "dead-code": "transforms.dead_code_eliminate",
    "loop-init-rewrite": "transforms.for_loop_init_rewrite",
}
# The benchmark's own calls, by attribute of workloads.library().
LIBRARY = {
    "gen_program": ("testgen.gen_program", None),
    "run_suite": ("testgen.run_suite", None),
    "parse_program": ("syntax.parse_program", _SIZE_OF_ARG),
    "to_source": ("ast.to_source", _SIZE_OF_RESULT),
    "check_safe_top": ("statics.check_safe_top", None),
    "dead_code_eliminate": ("transforms.dead_code_eliminate", None),
    "for_loop_init_rewrite": ("transforms.for_loop_init_rewrite", None),
    "reference_disambiguate": ("renaming.reference_disambiguate", None),
    "cli_main": ("cli.main", None),
}
TRACED = "dynamics.exec_top.traced"
UNTRACED = "dynamics.exec_top.untraced"


class Spans:
    """Spans kept in memory as parallel arrays; a span's index is its id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.thread_names: List[str] = []
        self._thread_ids: Dict[int, int] = {}
        self.name = array("i")
        self.thread = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._local = threading.local()
        # exec_top calls recorded for the replay pass:
        # (span, block, locals, dialect, limit, made on the cli worker thread)
        self.capture = False
        self.exec_calls: List[Tuple] = []
        self._restore: List[Tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_id(self) -> int:
        ident = threading.get_ident()
        tid = self._thread_ids.get(ident)
        if tid is None:
            tid = self._thread_ids[ident] = len(self.thread_names)
            self.thread_names.append(threading.current_thread().name)
        return tid

    def open(self, name_id: int) -> int:
        stack = self._stack()
        i = len(self.start)
        self.name.append(name_id)
        self.thread.append(self._thread_id())
        self.parent.append(stack[-1] if stack else -1)
        self.size.append(0)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn: Callable, name: str, size: Optional[str] = None) -> Callable:
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if size == _SIZE_OF_ARG:
                self.size[i] = len(args[0])
            elif size == _SIZE_OF_RESULT:
                self.size[i] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_exec_top(self, fn: Callable) -> Callable:
        traced_id, untraced_id = self.name_id(TRACED), self.name_id(UNTRACED)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            i = self.open(untraced_id if call.arguments.get("tracer") is None else traced_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
                if self.capture:
                    call.apply_defaults()
                    a = call.arguments
                    on_worker = threading.current_thread() is not threading.main_thread()
                    self.exec_calls.append(
                        (i, a["block"], dict(a["initial_locals"] or {}), a["dialect"], a["limit"], on_worker)
                    )

        traced.__wrapped__ = fn
        return traced

    def wrap_deep_stack(self, fn: Callable) -> Callable:
        """Run the worker's spans under the caller's open span."""

        def traced(work, /, *args, **kwargs):
            stack = self._stack()
            parent = stack[-1:]

            def on_worker(*a, **kw):
                self._local.stack = list(parent)
                return work(*a, **kw)

            return fn(on_worker, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # --- installing ----------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, lib: SimpleNamespace) -> SimpleNamespace:
        """Wrap yulkit's functions where its modules look them up, and return
        a copy of `lib` whose calls are wrapped too."""
        for module, attr, name, size in WRAPPED:
            owner = sys.modules[module]
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name, size))
        for module in EXEC_TOP_CALLERS:
            owner = sys.modules[module]
            self._patch(owner, "exec_top", self.wrap_exec_top(owner.exec_top))
        cli = sys.modules["yulkit.cli"]
        self._patch(cli, "call_with_deep_stack", self.wrap_deep_stack(cli.call_with_deep_stack))
        table = cli._TRANSFORMS
        for key, name in CLI_TRANSFORMS.items():
            self._restore.append((table, key, table[key]))
            table[key] = self.wrap(table[key], name)
        traced = SimpleNamespace(**vars(lib))
        for attr, (name, size) in LIBRARY.items():
            setattr(traced, attr, self.wrap(getattr(lib, attr), name, size))
        return traced

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # --- reading ---------------------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus the time its direct children cover."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds, inclusive seconds, bytes."""
        own = self.self_times()
        out = {n: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "bytes": 0} for n in self.names}
        for i, nid in enumerate(self.name):
            t = out[self.names[nid]]
            t["calls"] += 1
            t["self_s"] += own[i]
            t["incl_s"] += self.end[i] - self.start[i]
            t["bytes"] += self.size[i]
        return out

    def write(self, path: str) -> None:
        """Write every span as a line of tab-separated fields, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tthread\tparent\tstart_s\tend_s\tbytes\n")
            names, threads = self.names, self.thread_names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{threads[self.thread[i]]}\t{self.parent[i]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.size[i]}\n"
                )


def replay(calls, lib) -> List[Tuple[int, bool, float, int]]:
    """Run each recorded exec_top call again, untraced and timed, then with a
    tracer that counts statements.  Calls made on the cli worker thread are
    replayed on such a thread too, since its stack admits deeper recursion.
    Returns, per call, its span id, whether it settled (rather than ending in
    an error), the untraced seconds and the statements executed."""

    class StatementCounter(lib.Tracer):
        def __init__(self) -> None:
            self.statements = 0

        def on_statement(self, stmt, cstate, funenv, outcome) -> None:
            self.statements += 1

    def again(span, block, initial, dialect, limit, _):
        t0 = time.perf_counter()
        try:
            lib.exec_top(block, initial_locals=dict(initial), dialect=dialect, limit=limit)
            settled = True
        except lib.EvalError:
            settled = False
        untraced_s = time.perf_counter() - t0
        counter = StatementCounter()
        try:
            lib.exec_top(block, initial_locals=dict(initial), dialect=dialect, limit=limit, tracer=counter)
        except lib.EvalError:
            pass
        return span, settled, untraced_s, counter.statements

    on_worker = [c for c in calls if c[-1]]
    results = [again(*c) for c in calls if not c[-1]]
    results += lib.call_with_deep_stack(lambda: [again(*c) for c in on_worker])
    return results
