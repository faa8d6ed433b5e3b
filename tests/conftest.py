"""Shared helpers for the test suite."""

import itertools

import numpy as np

from rainbow_tournaments import generators
from rainbow_tournaments.core import Tournament, TournamentCollection


def iter_pairs(n):
    """The unordered pairs (i, j), i < j, in lexicographic order."""
    return itertools.combinations(range(n), 2)


def from_bool_matrix(mat):
    """The tournament of a dense adjacency matrix (mat[u, v] truthy iff
    u->v), through the validating constructor."""
    tails, heads = np.nonzero(mat)
    return Tournament.from_arcs(len(mat), zip(tails.tolist(), heads.tolist()))


def is_rainbow(cd):
    """Whether the arcs of a ColoredDigraph carry distinct colors."""
    cols = [c for _, _, c in cd.arcs]
    return len(cols) == len(set(cols))


def stream_row(n, seed, index, attempt=0):
    """The packed row of member index at attempt, from numpy alone: the
    first ceil(N/8) bytes of raw words [index W, (index+1) W), W =
    ceil(N/64), of PCG64(SeedSequence([seed, attempt])) stored
    little-endian, with the pad bits of the last byte cleared."""
    size = n * (n - 1) // 2
    width = (size + 63) // 64
    stream = np.random.PCG64(np.random.SeedSequence([seed, attempt]))
    stream.advance(index * width)
    row = bytearray(stream.random_raw(width).astype("<u8").tobytes())
    del row[(size + 7) // 8:]
    if size % 8:
        row[-1] &= 0xFF << (8 - size % 8) & 0xFF
    return bytes(row)


def stream_draw(n, seed, index, attempt=0):
    """The tournament of stream_row, through the validating constructor:
    pair p orients i->j iff bit 7 - p mod 8 of byte p // 8 is set."""
    row = stream_row(n, seed, index, attempt)
    return Tournament.from_pair_bits(n, "".join(
        str(row[p >> 3] >> (7 - p % 8) & 1) for p in range(n * (n - 1) // 2)))


def all_tournaments(n):
    """Every tournament on n labeled vertices."""
    npairs = n * (n - 1) // 2
    for bits in itertools.product("01", repeat=npairs):
        yield Tournament.from_pair_bits(n, "".join(bits))


def all_collections(n, m):
    """Every collection of m tournaments on n labeled vertices."""
    ts = list(all_tournaments(n))
    for combo in itertools.product(ts, repeat=m):
        yield TournamentCollection(list(combo))


def directed_triangle(forward=True):
    """The 3-cycle 0->1->2->0, or its reverse."""
    if forward:
        return Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    return Tournament.from_arcs(3, [(1, 0), (2, 1), (0, 2)])


def source_collection(n, seed):
    """random_collection(n, n, seed) with vertex 0 beating every other
    vertex in every color.  Nothing enters vertex 0, so no Hamilton cycle
    exists, but the chain-cut bound does not see it: the exact search has
    to walk its tree."""
    others = (1 << n) - 2
    return TournamentCollection([
        Tournament(n, [others] + [out & ~1 for out in t.out[1:]])
        for t in generators.random_collection(n, n, seed=seed).tournaments
    ])
