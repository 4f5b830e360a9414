"""The command line of every recorded oracle, without pytest.

Each oracle module computes its cases and labels every record by a name that
says where it comes from, and names the four as its `ORACLE`: compute, label,
read the record, write the record.  `--check` compares the computed records
with the recorded ones, prints each label that differs (the first ten) and
exits 1 on any mismatch; `--write` records the computed cases again:

    PYTHONPATH=src python3 tests/test_<name>_oracle.py --check | --write

Run as a script, this module checks all seven oracles, one result line each,
and exits 1 if any mismatches:

    PYTHONPATH=src python3 tests/oracle.py --check

This module imports nothing but the standard library, and the oracles
nothing else but yulkit, so they run on Python versions that have no pytest.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from typing import Any, Callable, Dict, Tuple

# Each oracle by name, and the module that holds it.
ORACLES = {
    "lexer": "test_lex_oracle",
    "parse": "test_parse_oracle",
    "check": "test_check_oracle",
    "exec": "test_exec_oracle",
    "rename": "test_rename_oracle",
    "draw": "test_draw_oracle",
    "golden corpus": "test_golden_corpus",
}


def _indented(cases) -> str:
    return json.dumps(cases, indent=1, sort_keys=True)


def json_fixture(path, dump: Callable[[Any], str] = _indented) -> Tuple[Callable[[], Any], Callable[[Any], None]]:
    """The `read` and `write` of cases kept as JSON text in `path`, printed
    by `dump`."""
    return (lambda: json.loads(path.read_text())), (lambda cases: path.write_text(dump(cases) + "\n"))


def _check(
    name: str,
    compute: Callable[[], Any],
    labelled: Callable[[Any], Dict[str, Any]],
    read: Callable[[], Any],
) -> bool:
    """Compare the computed records with the recorded ones; print one result
    line, then each label that differs (the first ten).  True if all match."""
    recorded = labelled(read())
    computed = labelled(compute())
    mismatched = sorted(k for k in recorded.keys() | computed.keys() if recorded.get(k) != computed.get(k))
    print(f"{name}: {len(computed)} computed, {len(recorded)} recorded, {len(mismatched)} mismatch(es)")
    for label in mismatched[:10]:
        print(f"  MISMATCH {label}")
    return not mismatched


def _summary(checked: Dict[str, bool]) -> int:
    """Print how many oracles matched; 1 if any did not."""
    failed = [name for name, ok in checked.items() if not ok]
    summary = f"python {sys.version.split()[0]}: {len(checked) - len(failed)} of {len(checked)} oracle(s) match"
    print(summary + (f"; mismatched: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


def _usage(options: str) -> int:
    print(f"usage: {os.path.basename(sys.argv[0])} {options}", file=sys.stderr)
    return 2


def main(
    argv,
    compute: Callable[[], Any],
    labelled: Callable[[Any], Dict[str, Any]],
    read: Callable[[], Any],
    write: Callable[[Any], None],
) -> int:
    if argv == ["--write"]:
        write(compute())
        return 0
    if argv != ["--check"]:
        return _usage("--check | --write")
    name = os.path.basename(sys.argv[0])
    return _summary({name: _check(name, compute, labelled, read)})


def check_all() -> int:
    """Check every oracle in ORACLES; 1 if any mismatches."""
    return _summary({
        name: _check(name, *importlib.import_module(module).ORACLE[:3])
        for name, module in ORACLES.items()
    })


if __name__ == "__main__":
    sys.exit(check_all() if sys.argv[1:] == ["--check"] else _usage("--check"))
