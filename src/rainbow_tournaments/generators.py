"""Named and random instance families.

All randomness goes through numpy's PCG64 seeded from explicit
``SeedSequence`` keys, so identical (kind, n, m, seed) always produces
byte-identical JSON on every platform.  Each tournament of a random
collection draws from its own stream, keyed by (seed, index, attempt);
strong connectivity is obtained by rejection, which advances the attempt
counter deterministically.

A tournament on n vertices reads ceil(N/8) raw 64-bit words of its
stream, N = n(n-1)/2, and orients pair p (lexicographic order) by bit 7
of byte p, the bytes of each word taken little-endian.  That is draw for
draw ``Generator.integers(0, 2, N, dtype=np.uint8)`` on the same stream:
numpy serves uint8 draws from 32-bit outputs low byte first, PCG64 serves
32-bit outputs as the low then the high half of one word, and Lemire's
multiply-shift bounded draw maps a byte b to (2b) >> 8 = b >> 7 with a
rejection threshold of (256 - 2) mod 2 = 0, so no byte is ever redrawn.
Per tournament the cost is one seeding, then per 8192 words (64 KiB) one
draw, one comparison and one ``packbits`` into the tournament's packed
pair bits, which ``random_collection`` copies into its row of the
collection's array (see ``core``): about 0.2 ms at n = 800, with no
n x n matrix and no per-row ints.  A strongly connected member also pays
for its scores (the upper triangle summed by rows and columns, about
0.3 ms at n = 400), which stay cached on it for later strong-connectivity
tests.
"""

from __future__ import annotations

import numpy as np

from .core import Tournament, TournamentCollection, is_strongly_connected

__all__ = [
    "transitive_tournament",
    "rotational_tournament",
    "prop14_tprime",
    "prop14_collection",
    "fig1_counterexamples",
    "random_tournament",
    "random_collection",
    "generate",
    "KINDS",
]

KINDS = (
    "transitive",
    "random_uniform",
    "random_strongly_connected",
    "directed_cycle_tournament",
    "prop14_collection",
    "fig1_path_counterexample",
    "fig1_cycle_counterexample",
)


def transitive_tournament(n: int) -> Tournament:
    """Arc i->j iff i < j."""
    if n < 1:
        raise ValueError("n must be positive")
    full = (1 << n) - 1
    return Tournament(n, [(full >> (v + 1)) << (v + 1) for v in range(n)])


def rotational_tournament(n: int) -> Tournament:
    """The cyclic tournament on odd n: arc i->j iff (j-i) mod n <= (n-1)/2."""
    if n < 3 or n % 2 == 0:
        raise ValueError("rotational tournament needs odd n >= 3")
    half = (n - 1) // 2
    out = [0] * n
    for i in range(n):
        for d in range(1, half + 1):
            out[i] |= 1 << ((i + d) % n)
    return Tournament(n, out)


def prop14_tprime(n: int) -> Tournament:
    """The strongly connected near-transitive tournament: i->j for j >= i+2
    and the backward arcs (i+1)->i."""
    if n < 3:
        raise ValueError("n must be at least 3")
    out = [0] * n
    for i in range(n):
        for j in range(i + 2, n):
            out[i] |= 1 << j
        if i + 1 < n:
            out[i + 1] |= 1 << i
    return Tournament(n, out)


def prop14_collection(n: int) -> TournamentCollection:
    """Two transitive colors and n-2 copies of the near-transitive tournament.

    Has no transversal Hamilton cycle for any n >= 3: a rainbow path from
    vertex n-1 down to vertex 0 must walk the n-1 backward arcs, but only
    n-2 colors contain them.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    t = transitive_tournament(n)
    tp = prop14_tprime(n)
    return TournamentCollection([t, t] + [tp] * (n - 2))


def _triangle(n3_forward: bool) -> Tournament:
    if n3_forward:
        return Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    return Tournament.from_arcs(3, [(1, 0), (2, 1), (0, 2)])


def fig1_counterexamples() -> tuple[TournamentCollection, TournamentCollection]:
    """(path instance, cycle instance): the n=3 triangle counterexamples.

    Path instance: two opposite directed triangles (m=2), no transversal
    Hamilton path.  Cycle instance: two equal triangles plus the reverse
    (m=3), no transversal Hamilton cycle.
    """
    fwd = _triangle(True)
    rev = _triangle(False)
    return (
        TournamentCollection([fwd, rev]),
        TournamentCollection([fwd, fwd, rev]),
    )


# raw words drawn per step: 64 KiB temporaries come from the heap, where
# one large draw would map and fault in fresh pages for every tournament
DRAW_CHUNK_WORDS = 8192


def _draw_tournament(n: int, seed: int, index: int, attempt: int) -> Tournament:
    size = n * (n - 1) // 2
    stream = np.random.PCG64(np.random.SeedSequence([seed, index, attempt]))
    # one word orients 8 pairs, and packs into one byte
    packed = np.empty((size + 7) // 8, dtype=np.uint8)
    for at in range(0, packed.size, DRAW_CHUNK_WORDS):
        words = stream.random_raw(min(DRAW_CHUNK_WORDS, packed.size - at))
        # bit 7 of each raw byte, bytes read little-endian: draw for draw
        # the Generator.integers(0, 2, size, dtype=np.uint8) of the stream
        raw = words.astype("<u8", copy=False).view(np.uint8)[:size - 8 * at]
        packed[at:at + words.size] = np.packbits(raw >= 0x80)
    return Tournament._from_packed(n, packed)


def random_tournament(
    n: int, seed: int, *, strongly_connected: bool = False, index: int = 0
) -> Tournament:
    """A uniformly random orientation of each pair, from a seeded stream."""
    if n < 1:
        raise ValueError("n must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if strongly_connected and n < 3:
        raise ValueError("strong connectivity needs n >= 3")
    attempt = 0
    while True:
        t = _draw_tournament(n, seed, index, attempt)
        if not strongly_connected or is_strongly_connected(t):
            return t
        attempt += 1


def random_collection(
    n: int,
    m: int,
    seed: int,
    *,
    strongly_connected_count: int | None = None,
) -> TournamentCollection:
    """m independent random tournaments on n vertices.

    ``strongly_connected_count`` restricts the rejection sampling to the
    first that many members (m of them for an all-strong collection, m - 1
    for the cycle theorem's "all but one" hypothesis); a negative count
    raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if m < 1:
        raise ValueError("m must be positive")
    k = strongly_connected_count or 0
    if k < 0:
        raise ValueError("strongly_connected_count cannot be negative")
    if k > 0 and n < 3:
        raise ValueError("strong connectivity needs n >= 3")
    return TournamentCollection._assemble(n, m, (
        random_tournament(n, seed, strongly_connected=(i < k), index=i)
        for i in range(m)
    ))


def generate(kind: str, n: int, m: int = 1, seed: int = 0
             ) -> TournamentCollection:
    """The instance of one of KINDS; single tournaments come back as m=1,
    and the fixed families ignore m (and the fig1 ones n)."""
    if kind == "transitive":
        return TournamentCollection([transitive_tournament(n)])
    if kind == "directed_cycle_tournament":
        return TournamentCollection([rotational_tournament(n)])
    if kind == "random_uniform":
        return random_collection(n, m, seed)
    if kind == "random_strongly_connected":
        return random_collection(n, m, seed, strongly_connected_count=m)
    if kind == "prop14_collection":
        return prop14_collection(n)
    if kind == "fig1_path_counterexample":
        return fig1_counterexamples()[0]
    if kind == "fig1_cycle_counterexample":
        return fig1_counterexamples()[1]
    raise ValueError(f"unknown kind {kind!r}")
