"""Behaviour lock: witness digests of the path and cycle solvers on a grid.

Each case solves one random instance in auto mode with default parameters
and hashes the outcome status, notes (the route that answered) and
witness.  A change meant to keep the solvers' behaviour (a refactor or a
speed-up) keeps every digest; a change that alters witnesses on purpose
records new digests and says so.

    PYTHONPATH=src python tests/test_behaviour_lock.py

prints the digests of the current code in the form of ``EXPECTED``.
"""

import hashlib
import json

import pytest

from rainbow_tournaments import generators
from rainbow_tournaments.pipeline import (
    transversal_ham_cycle,
    transversal_ham_path,
)

GRID_N = (12, 30, 80, 200)
SEEDS = range(5)

EXPECTED = {
    "path n=12 seed=0": "105589f8f000f5d8",
    "path n=12 seed=1": "03b937ce362d1577",
    "path n=12 seed=2": "d55456e9a4b707f3",
    "path n=12 seed=3": "321c5e6990ae7f72",
    "path n=12 seed=4": "0ee004bfe20f9d50",
    "path n=30 seed=0": "bcd20656aa3aec41",
    "path n=30 seed=1": "ac3020fc0ffe6c17",
    "path n=30 seed=2": "f17b13426097bb0b",
    "path n=30 seed=3": "1ea10614ab987266",
    "path n=30 seed=4": "48132d5cb181b07d",
    "path n=80 seed=0": "4c16c8414d3b35ae",
    "path n=80 seed=1": "a1bbd1c68650ee91",
    "path n=80 seed=2": "a4fd972c7291307b",
    "path n=80 seed=3": "e9fa78df3616fb92",
    "path n=80 seed=4": "6ace8ff99ebb78bc",
    "path n=200 seed=0": "cab907c9d1385b19",
    "path n=200 seed=1": "750fc93a9247eb31",
    "path n=200 seed=2": "9fa480215297309a",
    "path n=200 seed=3": "428c4d2e8b339fbc",
    "path n=200 seed=4": "d7f4adc7d0d0fe1e",
    "cycle n=12 seed=0": "845d1aa2065818ff",
    "cycle n=12 seed=1": "9cb0dabaef787d87",
    "cycle n=12 seed=2": "73320579fabe59a4",
    "cycle n=12 seed=3": "17134f6851e93c24",
    "cycle n=12 seed=4": "5b4eaebe216c661f",
    "cycle n=30 seed=0": "d4f21bcac08e4366",
    "cycle n=30 seed=1": "2d75cb91f9a13d29",
    "cycle n=30 seed=2": "ba4334b954d1c3e8",
    "cycle n=30 seed=3": "167a6e52ee903aea",
    "cycle n=30 seed=4": "6ccccdff3a0a5c4b",
    "cycle n=80 seed=0": "0c4136e5bc9edc64",
    "cycle n=80 seed=1": "78446f70ef91bc67",
    "cycle n=80 seed=2": "5dded8c2b25ffdd1",
    "cycle n=80 seed=3": "e90039b30ee21d5c",
    "cycle n=80 seed=4": "3ee128fc2145a917",
    "cycle n=200 seed=0": "01b66bb1342a699f",
    "cycle n=200 seed=1": "6cd1a3c0256be654",
    "cycle n=200 seed=2": "6841ea0228ce176d",
    "cycle n=200 seed=3": "8f5bb46de9fe3125",
    "cycle n=200 seed=4": "fb6d55dc6258c325",
}


def solve(what: str, n: int, seed: int):
    if what == "path":
        tc = generators.random_collection(n, n - 1, seed=seed)
        return transversal_ham_path(tc)
    tc = generators.random_collection(
        n, n, seed=seed, strongly_connected_count=n - 1
    )
    return transversal_ham_cycle(tc)


def outcome_digest(out) -> str:
    w = out.witness
    item = [
        out.status,
        out.notes,
        [int(v) for v in w.vertices] if w is not None else None,
        [int(c) for c in w.colors] if w is not None else None,
    ]
    return hashlib.sha256(json.dumps(item).encode()).hexdigest()[:16]


CASES = [(what, n, s) for what in ("path", "cycle") for n in GRID_N
         for s in SEEDS]


@pytest.mark.parametrize("what,n,seed", CASES)
def test_witness_digest_unchanged(what, n, seed):
    out = solve(what, n, seed)
    assert outcome_digest(out) == EXPECTED[f"{what} n={n} seed={seed}"]


if __name__ == "__main__":
    for what, n, s in CASES:
        print(f'    "{what} n={n} seed={s}": '
              f'"{outcome_digest(solve(what, n, s))}",')
