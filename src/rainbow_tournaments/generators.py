"""Named and random instance families.

All randomness goes through numpy's PCG64 seeded from explicit
``SeedSequence`` keys, so identical (kind, n, m, seed) always produces
byte-identical JSON on every platform.  A tournament on n vertices reads
W = ceil(N/64) raw 64-bit words, N = n(n-1)/2: the draw of member i (the
index of ``random_tournament``) at attempt a is words [i W, (i+1) W) of
PCG64(SeedSequence([seed, a])), reached by ``PCG64.advance``.  Stored
little-endian, they are its packed row (see ``core``): pair p, in
lexicographic order, is bit 7 - p mod 8 of byte p // 8, the pad bits of
byte ceil(N/8) - 1 are cleared and the bytes after it dropped.  Strong
connectivity is obtained by rejection: attempt a + 1 redraws a member, and
MAX_REDRAWS failed redraws of one member raise RuntimeError.

A collection reads all its members' attempt-0 draws in one read of one
stream, DRAW_CHUNK_WORDS words at a time, into one (m, W) array; one
operation clears every row's pad bits, and the rows are frozen once, so
the members view read-only bytes: about 1.4 µs a member at n = 30 (m = 30;
0.6 µs at m = 300) and 16-19 µs at n = 800, with no n x n matrix and no
packing.  One pass scores and Landau-tests the strong candidates of a
block of members (about 4 µs a member at n = 30, 19 µs at n = 130,
0.12 ms at n = 400, one a block); a redraw seeds its own stream (about
15 µs) and is tested alone.  A kept member holds its scores and verdict
(see ``core``).
"""

from __future__ import annotations

import operator

import numpy as np

from .core import (Tournament, TournamentCollection, _frozen,
                   _landau_strong, _scores_from_pairs, is_strongly_connected)

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
    full = (1 << n) - 1
    ahead = full >> (n + 1) // 2 << 1  # 0 -> 1 .. (n-1)/2, rotated by i
    return Tournament(n, [(ahead << i | ahead >> (n - i)) & full
                          for i in range(n)])


def prop14_tprime(n: int) -> Tournament:
    """The strongly connected near-transitive tournament: i->j for j >= i+2
    and the backward arcs (i+1)->i."""
    if n < 3:
        raise ValueError("n must be at least 3")
    full = (1 << n) - 1
    return Tournament(n, [full >> (i + 2) << (i + 2) | 1 << i >> 1
                          for i in range(n)])


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


def fig1_counterexamples() -> tuple[TournamentCollection, TournamentCollection]:
    """(path instance, cycle instance): the n=3 triangle counterexamples.

    Path instance: two opposite directed triangles (m=2), no transversal
    Hamilton path.  Cycle instance: two equal triangles plus the reverse
    (m=3), no transversal Hamilton cycle.
    """
    fwd = rotational_tournament(3)
    rev = Tournament.from_arcs(3, [(1, 0), (2, 1), (0, 2)])
    return (
        TournamentCollection([fwd, rev]),
        TournamentCollection([fwd, fwd, rev]),
    )


# raw words drawn per step (64 KiB temporaries come from the heap, where one
# large draw would map and fault in fresh pages every time), and row bytes
# per block of members, whose strong candidates are scored at once
DRAW_CHUNK_WORDS = 8192
# redraws of one strong member before RuntimeError: a draw is strong with
# probability 1/4 at n = 3 and more above, so (3/4)**1000 < 1e-124 bounds
# the chance that well-formed input reaches the cap
MAX_REDRAWS = 1000


def _stream(seed: int, attempt: int, word: int) -> np.random.PCG64:
    """The stream of (seed, attempt), advanced to its raw word number word."""
    stream = np.random.PCG64(np.random.SeedSequence([seed, attempt]))
    return stream.advance(word)


def _draw_tournament(stream: np.random.PCG64, words: np.ndarray) -> None:
    """Fill words (uint64) with the next raw words of stream."""
    for at in range(0, words.size, DRAW_CHUNK_WORDS):
        words[at:at + DRAW_CHUNK_WORDS] = stream.random_raw(
            min(DRAW_CHUNK_WORDS, words.size - at))


def _collection(n: int, seed: int, indices: range,
                strong: int) -> TournamentCollection:
    """The tournaments of indices, read from their stream at once (see the
    module docstring); the first strong are tested a block at a time and
    redrawn until strongly connected."""
    n = operator.index(n)  # a bool n is an int here, a float a TypeError
    seed = operator.index(seed)  # a float seed is a TypeError too
    if n < 1:
        raise ValueError("n must be positive")
    if not indices:
        raise ValueError("m must be positive")
    strong = operator.index(strong)  # a float count is a TypeError
    if not 0 <= strong <= len(indices):
        raise ValueError("strongly_connected_count cannot be negative or above m")
    if strong and n < 3:
        raise ValueError("strong connectivity needs n >= 3")
    if seed < 0 or indices.start < 0:
        raise ValueError("seed and index must be non-negative")
    m, size = len(indices), n * (n - 1) // 2
    width = (size + 63) // 64
    words = np.empty((m, width), "<u8")
    raw = words.view(np.uint8)[:, :(size + 7) // 8]
    pad = 0xFF << (-size % 8) & 0xFF  # the pair bits of the last byte
    _draw_tournament(_stream(seed, 0, indices.start * width),
                     words.reshape(-1))  # every member, one after another
    raw[:, -1:] &= pad
    rows = _frozen(raw.view())  # the members' rows; a redraw writes raw
    block = max(1, DRAW_CHUNK_WORDS // max(rows.shape[1], 1))
    members = []
    for lo in range(0, strong, block):  # a block's candidates, tested at once
        scores = _scores_from_pairs(n, rows[lo:strong][:block])
        for pos, s, verdict in zip(range(lo, strong), scores,
                                   _landau_strong(scores).tolist()):
            t, attempt = Tournament._from_packed(n, rows[pos]), 0
            t._scores, t._strong = s, verdict  # a redraw is a fresh one
            while not is_strongly_connected(t):
                attempt += 1
                if attempt > MAX_REDRAWS:  # a verdict fault, not bad luck
                    raise RuntimeError(
                        f"no strongly connected draw of member {indices[pos]}"
                        f" (n={n}, seed={seed}) in {MAX_REDRAWS} redraws")
                _draw_tournament(_stream(seed, attempt, indices[pos] * width),
                                 words[pos])
                raw[pos, -1:] &= pad
                t = Tournament._from_packed(n, rows[pos])
            members.append(t)  # the object tested, with its scores cached
    members += [Tournament._from_packed(n, r) for r in rows[strong:]]
    return TournamentCollection._from_rows(n, rows, members)


def random_tournament(
    n: int, seed: int, *, strongly_connected: bool = False, index: int = 0
) -> Tournament:
    """A uniformly random orientation of each pair, from a seeded stream."""
    return _collection(n, seed, range(index, index + 1),
                       int(strongly_connected)).tournaments[0]


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
    return _collection(n, seed, range(m), strongly_connected_count or 0)


# each kind's instance for (n, m, seed): single tournaments come back as
# m=1, and the fixed families ignore m (and the fig1 ones n)
_BUILDERS = {
    "transitive": lambda n, m, seed: TournamentCollection(
        [transitive_tournament(n)]),
    "random_uniform": random_collection,
    "random_strongly_connected": lambda n, m, seed: random_collection(
        n, m, seed, strongly_connected_count=m),
    "directed_cycle_tournament": lambda n, m, seed: TournamentCollection(
        [rotational_tournament(n)]),
    "prop14_collection": lambda n, m, seed: prop14_collection(n),
    "fig1_path_counterexample": lambda n, m, seed: fig1_counterexamples()[0],
    "fig1_cycle_counterexample": lambda n, m, seed: fig1_counterexamples()[1],
}
KINDS = tuple(_BUILDERS)


def generate(kind: str, n: int, m: int = 1, seed: int = 0
             ) -> TournamentCollection:
    """The instance of one of KINDS (see _BUILDERS)."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown kind {kind!r}")
    return _BUILDERS[kind](operator.index(n), m, seed)
