"""Insertion and matching lock: digests of the path builders' insertion step
and of the forced-color matching over fixed grids.

Each section hashes the outputs of one entry point:

- ``one_spare``: rainbow_ham_path_one_spare's path, colors and
  ``arc_inspections``, on the collection itself and steered: on the
  collection relabelled by shuffled vertex and color orders, the path
  mapped back (every order of every n <= 3 collection with m = n, so
  color 0 is tried as both c1 and c2);
- ``tournament_ham_path``: with and without a generator, and on vertex
  subsets;
- ``exchange_step``: every step of growing a one-vertex path to a Hamilton
  one, and the None once it is Hamilton;
- ``forced_matching``: matching_with_forced_colors on about 20,000 random
  inputs, forced lists with repeats and colors no slot offers included;
- ``rainbow_connect_all``: the paths, or the color a layering stalls at.

A refactor keeps every digest; a change that alters these outputs on
purpose records new digests and says so.

    PYTHONPATH=src python tests/test_insertion_lock.py

prints the digests of the current code in the form of ``EXPECTED``.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from conftest import all_collections
from rainbow_tournaments import generators
from rainbow_tournaments.constructive import (
    rainbow_connect_all,
    rainbow_ham_path_one_spare,
    tournament_ham_path,
)
from rainbow_tournaments.core import (
    RainbowPath,
    induced_collection,
    restrict_colors,
)
from rainbow_tournaments.errors import NoProgressError
from rainbow_tournaments.matching import matching_with_forced_colors
from rainbow_tournaments.pipeline import exchange_step


def _one_spare(tc, vo=None, co=None):
    """The builder on tc, or steered: on the collection tc induces on the
    vertex order vo and the color order co, mapped back to tc's labels."""
    stats = {}
    if vo is None:
        p = rainbow_ham_path_one_spare(tc, stats)
        return [list(p.vertices), list(p.colors), stats["arc_inspections"]]
    sub = induced_collection(restrict_colors(tc, co), vo)
    p = rainbow_ham_path_one_spare(sub, stats)
    return [[vo[x] for x in p.vertices], [co[c] for c in p.colors],
            stats["arc_inspections"]]


def one_spare_items():
    for n in (1, 2, 3):
        for k, tc in enumerate(all_collections(n, n)):
            for vo in itertools.permutations(range(n)):
                for co in itertools.permutations(range(n)):
                    yield [f"all n={n} #{k} {vo} {co}",
                           _one_spare(tc, list(vo), list(co))]
    for n in range(4, 41):
        for extra in (0, 1, 3):
            for seed in range(3):
                tc = generators.random_collection(n, n + extra, seed=seed)
                key = f"random n={n} m={n + extra} seed={seed}"
                yield [key, _one_spare(tc)]
                rng = np.random.default_rng([n, extra, seed])
                vo = rng.permutation(n).tolist()
                co = rng.permutation(n + extra).tolist()
                yield [f"{key} steered", _one_spare(tc, vo, co)]


def tournament_ham_path_items():
    for n in range(1, 41):
        for seed in range(3):
            t = generators.random_tournament(n, seed)
            key = f"n={n} seed={seed}"
            yield [key, tournament_ham_path(t)]
            rng = np.random.default_rng([n, seed])
            yield [f"{key} rng", tournament_ham_path(t, rng=rng)]
            sub = rng.choice(n, size=int(rng.integers(0, n + 1)),
                             replace=False).tolist()
            yield [f"{key} subset {sub}", tournament_ham_path(t, sub)]
            yield [f"{key} subset rng",
                   tournament_ham_path(t, sub, rng=rng)]


def exchange_step_items():
    for n in range(2, 31):
        for extra in (0, 1, 3):
            for seed in range(2):
                tc = generators.random_collection(n, n + extra, seed=seed)
                p = RainbowPath((seed % n,), ())
                steps = []
                while p is not None:
                    steps.append([list(p.vertices), list(p.colors)])
                    unused = set(range(tc.m)) - set(p.colors)
                    p = exchange_step(p, unused, tc)
                yield [f"n={n} m={n + extra} seed={seed}", steps]


def forced_matching_items():
    rng = np.random.default_rng(7)
    for case in range(20_000):
        k = int(rng.integers(0, 8))
        m = int(rng.integers(1, 9))
        density = float(rng.random())
        avail = [
            sum(1 << c for c in range(m) if rng.random() < density)
            for _ in range(k)
        ]
        forced = [int(c) for c in rng.integers(0, m + 1,
                                               size=int(rng.integers(0, 5)))]
        got = matching_with_forced_colors(avail, forced)
        yield [case, avail, forced,
               None if got is None else [int(c) for c in got]]


def rainbow_connect_all_items():
    for n in range(3, 26):
        for seed in range(3):
            for m, strong in ((n, True), (2 * n, False)):
                tc = generators.random_collection(
                    n, m, seed=seed,
                    strongly_connected_count=m if strong else 0)
                for x in (0, n - 1):
                    try:
                        paths = rainbow_connect_all(tc, x)
                        got = {y: [list(p.vertices), list(p.colors)]
                               for y, p in sorted(paths.items())}
                    except NoProgressError as exc:
                        got = ["stalled", exc.color]
                    yield [f"n={n} m={m} seed={seed} x={x}", got]


SECTIONS = {
    "one_spare": one_spare_items,
    "tournament_ham_path": tournament_ham_path_items,
    "exchange_step": exchange_step_items,
    "forced_matching": forced_matching_items,
    "rainbow_connect_all": rainbow_connect_all_items,
}

# recorded on the builders with one scan per insertion branch and the
# color-side augmenting search inside matching_with_forced_colors
EXPECTED = {
    "one_spare": (19115, "567d184d859b8519"),
    "tournament_ham_path": (480, "76203ad30f81a265"),
    "exchange_step": (174, "bf1044d95cdb3c2c"),
    "forced_matching": (20000, "5661218cd396303b"),
    "rainbow_connect_all": (276, "73902ca8416dfe9f"),
}


def section_digest(name: str) -> tuple[int, str]:
    """(number of items, digest of every item) of one section."""
    h = hashlib.sha256()
    count = 0
    for item in SECTIONS[name]():
        h.update(json.dumps(item).encode())
        count += 1
    return count, h.hexdigest()[:16]


@pytest.mark.parametrize("name", list(SECTIONS))
def test_outputs_unchanged(name):
    assert section_digest(name) == EXPECTED[name]


if __name__ == "__main__":
    for name in SECTIONS:
        print(f'    "{name}": {section_digest(name)},')
