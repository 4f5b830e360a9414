"""How fast the box runs Python at the moment, from a fixed piece of work.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third within minutes, so seconds on the wall clock mix the program's cost
with the host's load.  `kernel()` is a fixed, pure-Python piece of work in
the style of an AST interpreter (objects with slots, recursion, a dict, a
short string loop); it calls no yulkit code, so no change to the program can
change its cost.  The benchmark times it between operations, and `Clock`
turns each operation's wall time into *reference seconds*: the wall time
times REFERENCE_S over the kernel's time near that operation.  A reference
second is the time in which the kernel runs REFERENCE_S / kernel-time times;
on the reference box, unloaded, it is about one wall-clock second.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

# The kernel's median time between operations on the reference box (2 cores,
# Python 3.11.7) in a quiet period; a fixed constant from here on.
REFERENCE_S = 0.00070
# Each operation is scaled by the median kernel time of the WINDOW
# calibrations before it and WINDOW after it (and its own).
WINDOW = 8


class _Node:
    __slots__ = ("kind", "left", "right")

    def __init__(self, kind: str, left, right) -> None:
        self.kind = kind
        self.left = left
        self.right = right


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("leaf", i, None)
    return _Node("pair", _build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1))


def _walk(node: _Node, env: dict) -> int:
    if node.kind == "leaf":
        env[node.left % 7] = env.get(node.left % 7, 0) + node.left
        return node.left
    return _walk(node.left, env) ^ _walk(node.right, env)


def _work() -> None:
    env: dict = {}
    _walk(_build(9, 1), env)
    text = "".join(str(i) for i in range(120))
    sum(len(text[i:i + 3]) for i in range(0, len(text), 3))


def kernel() -> float:
    """Run the fixed work twice; return the wall time of the second run in
    seconds.  The first run only warms the caches: right after an operation
    that took a quarter of a second, a single run is about 15% slower than
    the next one, which would make the program's cost leak into the scale.
    The cyclic collector is paused, so the program's garbage is not
    collected here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(samples: List[float]) -> float:
    """Wall seconds per reference second, from kernel times."""
    return statistics.median(samples) / REFERENCE_S


class Clock:
    """Wall times of operations, each followed by one kernel run."""

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.kernel: List[float] = []

    def add(self, wall_s: float) -> None:
        self.wall.append(wall_s)
        self.kernel.append(kernel())

    def reference(self) -> List[float]:
        """Each operation's time in reference seconds."""
        out = []
        n = len(self.wall)
        for i, wall_s in enumerate(self.wall):
            near = self.kernel[max(0, i - WINDOW):min(n, i + WINDOW + 1)]
            out.append(wall_s / speed(near))
        return out

    def speed(self) -> float:
        return speed(self.kernel)
