"""The command line of every recorded oracle, without pytest.

Each oracle module computes its cases and labels every record by a name that
says where it comes from.  `--check` compares the computed records with the
recorded ones, prints each label that differs (the first ten) and exits 1 on
any mismatch; `--write` records the computed cases again:

    PYTHONPATH=src python3 tests/test_<name>_oracle.py --check | --write

This module imports nothing but the standard library, so the oracles run on
Python versions that have no pytest.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Callable, Dict, Tuple


def _indented(cases) -> str:
    return json.dumps(cases, indent=1, sort_keys=True)


def json_fixture(path, dump: Callable[[Any], str] = _indented) -> Tuple[Callable[[], Any], Callable[[Any], None]]:
    """The `read` and `write` of cases kept as JSON text in `path`, printed
    by `dump`."""
    return (lambda: json.loads(path.read_text())), (lambda cases: path.write_text(dump(cases) + "\n"))


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
        print(f"usage: {os.path.basename(sys.argv[0])} --check | --write", file=sys.stderr)
        return 2
    recorded = labelled(read())
    computed = labelled(compute())
    mismatched = sorted(k for k in recorded.keys() | computed.keys() if recorded.get(k) != computed.get(k))
    print(f"{len(computed)} computed, {len(recorded)} recorded")
    for label in mismatched[:10]:
        print(f"MISMATCH {label}")
    print(f"python {sys.version.split()[0]}: {len(mismatched)} mismatch(es)")
    return 1 if mismatched else 0
