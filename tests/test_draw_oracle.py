"""Draw oracle: the generator's random draws, pinned per configuration.

The golden corpus pins `gen_program` seeds 0-99 at two configurations.  This
file pins, for each configuration in CONFIGS, one sha256 over the printed
programs of its seeds, so a change to the generator that moves a single
random draw (an extra `random()` call, a different candidate list handed to
`choice`) changes a digest.  The configurations cover the dead-code suite's
helper environment, the knobs that remove statement kinds, non-default
weights and an extended function table whose names come from the
generator's own function-name pool; "rare-rows" is a one-level,
one-statement, function-free configuration with most kinds weighted zero,
whose statements often have no kind to choose from; "soundness" is the
benchmark's soundness seeds at the default configuration.

The generator draws through the private `random.Random._randbelow`, exactly
as `choice`, `randrange` and `randint` do, so these digests are also what
shows that it draws the same on each Python version.  To compare against
DIGESTS without pytest (exit status 1 on any mismatch):

    PYTHONPATH=src python3 tests/test_draw_oracle.py --check

To print the digests again, to paste into DIGESTS after a change that is
meant to move the draws:

    PYTHONPATH=src python3 tests/test_draw_oracle.py --write
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace

from yulkit.ast import to_source
from yulkit.generate import GenConfig, gen_program

import oracle

# name -> (configuration, seeds)
CONFIGS = {
    "helper-env": (
        GenConfig(
            seed=0,
            max_depth=3,
            max_stmts_per_block=3,
            allow_fundefs=True,
            nested_fundefs=False,
            allow_loops=False,
        ),
        range(300),
    ),
    "no-loops": (GenConfig(seed=0, allow_loops=False), range(300)),
    "flat-fundefs": (GenConfig(seed=0, nested_fundefs=False), range(300)),
    "weights": (
        GenConfig(
            seed=0,
            weights={"let-multi": 4, "assign-multi": 4, "funcall": 4, "leave": 3, "block": 0, "switch": 1},
        ),
        range(300),
    ),
    "extra-funs": (
        GenConfig(seed=0, extra_funs={"f": (2, 1), "g": (1, 0), "h": (0, 3), "u": (1, 2)}),
        range(300),
    ),
    "rare-rows": (
        GenConfig(
            seed=0,
            max_depth=1,
            max_stmts_per_block=1,
            allow_fundefs=False,
            weights={
                "let": 0,
                "let-multi": 0,
                "assign-multi": 0,
                "funcall": 0,
                "switch": 0,
                "block": 0,
                "continue": 0,
                "leave": 0,
            },
        ),
        range(300),
    ),
    "soundness": (GenConfig(seed=0), range(1_000_000, 1_000_300)),
}

DIGESTS = {
    "helper-env": "dc4650b4648748c16ab29d6be1a6698de87cedf8981874c3a7fd3a73391c8ad2",
    "no-loops": "77ecf99e77db37dc358bb3edc3fff0b72ad2d1317ad828ae30a5d85ea42b977d",
    "flat-fundefs": "03875a088ff66096d40d597a5cf1d043e77d770263890a3e517e032c3d62cd1b",
    "weights": "99699697de0bd9846ff4a517874f8d222f0b65446ff38977cbe3eb9160844598",
    "extra-funs": "42b9cdbac64742787066c97601d2f9daddff0d0d70ed7b5cb6da26b87d9d6f6a",
    "rare-rows": "6884cf500b3c592f96c8a1bbdf388d7731997caee7fc401f7aa1d06a00598e94",
    "soundness": "0b2f2c4c8b0e13ad0908da99ea976564fe320b1ea5dfc8e72cb99d649b120039",
}


def digest(cfg: GenConfig, seeds) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        h.update(to_source(gen_program(replace(cfg, seed=seed))).encode("utf-8") + b"\0")
    return h.hexdigest()


def pytest_generate_tests(metafunc):
    # a hook rather than a pytest.mark, so the module imports without pytest
    metafunc.parametrize("name", CONFIGS)


def test_generator_draws_unchanged(name):
    assert digest(*CONFIGS[name]) == DIGESTS[name]


def compute_digests() -> dict:
    return {name: digest(cfg, seeds) for name, (cfg, seeds) in CONFIGS.items()}


def _print_digests(digests: dict) -> None:
    for name, value in digests.items():
        print(f'    "{name}": "{value}",')


ORACLE = (compute_digests, dict, lambda: DIGESTS, _print_digests)

if __name__ == "__main__":
    sys.exit(oracle.main(sys.argv[1:], *ORACLE))
