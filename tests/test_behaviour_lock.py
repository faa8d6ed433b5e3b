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
    "path n=12 seed=0": "ea3f4b52693c3a9e",
    "path n=12 seed=1": "f72ff9f7c7e53650",
    "path n=12 seed=2": "4497812eb1f5c38e",
    "path n=12 seed=3": "1cb92574ffbac1e3",
    "path n=12 seed=4": "c8b19f2d5453fa63",
    "path n=30 seed=0": "f0148e0791401598",
    "path n=30 seed=1": "7057d4446779db54",
    "path n=30 seed=2": "37acae98115ddf1a",
    "path n=30 seed=3": "457cda8087418835",
    "path n=30 seed=4": "fa9d335f24b3ade4",
    "path n=80 seed=0": "8d9b8245d38a4107",
    "path n=80 seed=1": "4bb22b3d3c5bad9b",
    "path n=80 seed=2": "023f49b170c5440b",
    "path n=80 seed=3": "97bc8f3182a65b7b",
    "path n=80 seed=4": "ba83cbfc77c07245",
    "path n=200 seed=0": "80b236544abfd277",
    "path n=200 seed=1": "45e50e107c5c3ef1",
    "path n=200 seed=2": "7595964d2faea8e3",
    "path n=200 seed=3": "876b37d225bc35b6",
    "path n=200 seed=4": "bf6d5b504c2dd677",
    "cycle n=12 seed=0": "7b60f907932b94ec",
    "cycle n=12 seed=1": "077e73382c61af8f",
    "cycle n=12 seed=2": "a65b55790cc1ac48",
    "cycle n=12 seed=3": "ad745e25a18a613d",
    "cycle n=12 seed=4": "17e6ac51f5689178",
    "cycle n=30 seed=0": "35e7be57b9b24939",
    "cycle n=30 seed=1": "44fde09ffe106120",
    "cycle n=30 seed=2": "4c75607b49a05b93",
    "cycle n=30 seed=3": "2632b210b4f58383",
    "cycle n=30 seed=4": "1646e195c7e5c432",
    "cycle n=80 seed=0": "14b38506d265eee4",
    "cycle n=80 seed=1": "8b935e310549a890",
    "cycle n=80 seed=2": "521439fb0bba2c89",
    "cycle n=80 seed=3": "4f64b1e82be5f3d9",
    "cycle n=80 seed=4": "738f9a70a0e9051f",
    "cycle n=200 seed=0": "709930b255e5c6f4",
    "cycle n=200 seed=1": "b75d96a47e9bccad",
    "cycle n=200 seed=2": "14cfd64bf5c23aca",
    "cycle n=200 seed=3": "bdf57a9e77c8fa90",
    "cycle n=200 seed=4": "8e56d725680afa89",
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
