import os
import pathlib
import subprocess
import sys

import pytest

import yulkit
from yulkit.syntax import parse_program

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Nested scopes with legal reuse of names across sibling function bodies:
# y and h are each declared twice, x is visible only at the top level, z only
# in the inner block.  Statically safe; executing it just declares x.
SCOPING_SRC = (FIXTURES / "scoping.yul").read_text()

# The same program with names made globally unique.
DISAMBIGUATED_SRC = (FIXTURES / "scoping_disambiguated.yul").read_text()

# More nested calls than the library's recursion headroom admits, traced
# (about 2,140) or untraced (about 2,500): from a 1,000-frame recursion limit
# every entry point raises HostLimitError, while the CLI's deep stack settles
# it.
DEEP_CALLS = 4000
DEEP_RECURSION = f"{{ function f(n) -> r {{ if n {{ r := f(sub(n, 1)) }} }} let x := f({DEEP_CALLS}) }}"


def run_fresh(code, timeout=300):
    """Run `code` in a fresh interpreter that imports this yulkit."""
    src = str(pathlib.Path(yulkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.fixture
def fresh_recursion_limit():
    """A function that sets the recursion limit a fresh interpreter starts
    with, 1,000; the test's limit comes back after the test.  Every entry
    point raises the limit again, so a test calls it before each call that
    must start from a fresh interpreter's limit."""
    limit = sys.getrecursionlimit()
    yield lambda: sys.setrecursionlimit(1000)
    sys.setrecursionlimit(limit)


@pytest.fixture
def scoping_block():
    return parse_program(SCOPING_SRC)


@pytest.fixture
def disambiguated_block():
    return parse_program(DISAMBIGUATED_SRC)


# The acceptance tests append their verdict lines here; echoing them from the
# terminal-summary hook keeps them visible under default output capture.
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.line(line)
