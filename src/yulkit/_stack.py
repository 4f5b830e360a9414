"""Stack headroom plumbing.

The tree walks here are recursive, and CPython's default recursion limit (and
on some platforms the main thread's C stack) is too small for the depths the
parser admits (nesting up to 1024) or for deeply recursive interpreted
programs.  Two remedies, used at different scales:

- `ensure_recursion_headroom` bumps the interpreter recursion limit to a value
  that is still safe for an ordinary 8 MiB thread stack; enough for any walk
  over a parseable tree.
- `call_with_deep_stack` runs a callable on a worker thread with a large stack
  and a very high recursion limit; used for interpretation with large fuel,
  where recursion depth is bounded by fuel rather than by tree nesting.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable

_HEADROOM_FRAMES = 15_000
_DEEP_LIMIT = 1_000_000
_DEEP_STACK_BYTES = 512 * 1024 * 1024


def ensure_recursion_headroom() -> None:
    if sys.getrecursionlimit() < _HEADROOM_FRAMES:
        sys.setrecursionlimit(_HEADROOM_FRAMES)


def call_with_deep_stack(fn: Callable[..., Any], /, *args: Any) -> Any:
    """Call `fn(*args)` on a thread with a 512 MiB stack, returning its result
    or re-raising its exception."""
    result: dict = {}

    def run() -> None:
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_DEEP_LIMIT)
        try:
            result["value"] = fn(*args)
        except BaseException as exc:  # re-raised on the calling thread
            result["error"] = exc
        finally:
            sys.setrecursionlimit(old_limit)

    old_size = threading.stack_size(_DEEP_STACK_BYTES)
    try:
        worker = threading.Thread(target=run, name="yulkit-deep-stack")
        worker.start()
    finally:
        threading.stack_size(old_size)
    worker.join()
    if "error" in result:
        raise result["error"]
    return result["value"]
