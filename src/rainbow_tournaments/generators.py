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
A call of SEED_BATCH or more members seeds them in one array pass (about
0.07 ms, plus 1.5 µs a member, against 18 µs a member seeded alone).
Members are drawn in blocks of up to DRAW_CHUNK_WORDS raw words: each
sets a PCG64 to its start and fills its row of the block's uint64 array,
then one comparison and one ``packbits`` write the block's pair bits into
the collection's rows, which the members view (see ``core``): about 6 µs
a member at n = 30 and 0.2 ms at n = 800, with no n x n matrix.  One
pass scores and Landau-tests a block's strong candidates (about 4 µs a
member at n = 30, 20 µs at n = 130, 0.15 ms at n = 400, one a block), a
redraw alone; a kept member holds its scores and verdict (see ``core``).
"""

from __future__ import annotations

import functools
import operator
from itertools import repeat

import numpy as np

from .core import (Tournament, TournamentCollection, _frozen, _landau_strong,
                   _scores_from_pairs, is_strongly_connected)

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


# raw words drawn per step and per block: 64 KiB temporaries come from the
# heap, where one large draw would map and fault in fresh pages every time
DRAW_CHUNK_WORDS = 8192
# members from which a call seeds them in one array pass: the pass costs
# about as much as seeding 10 members one at a time
SEED_BATCH = 10
_BATCH_STREAM = np.random.PCG64(0)  # set to a batch's starts in turn

# SeedSequence's hash constants and multipliers, pcg64's LCG multiplier
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _words(value: int) -> list[int]:
    """value as SeedSequence reads it: 32-bit words, lowest first."""
    value = operator.index(value)  # a float seed is a TypeError, as in numpy
    return [value >> s & 0xFFFFFFFF
            for s in range(0, max(value.bit_length(), 1), 32)]


@functools.lru_cache(maxsize=16)
def _chain(h: int, mult: int, links: int) -> np.ndarray:
    """h and its next links values (h *= mult), as a read-only column."""
    chain = np.full(links + 1, mult, np.uint32)
    chain[0] = h
    return _frozen(np.cumprod(chain, dtype=np.uint32)[:, None])


def _hashmix(v: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """hashmix of row r of v (or of v for every r) with links r, r + 1."""
    v = (v ^ chain[:-1]) * chain[1:]
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> 16


# mixing step s hashes pool row s into row d != s with link 4 + 3s + d -
# (d > s): one update with these links (a spare one for row s, which is
# then restored) mixes the whole pool
_s, _d = np.ogrid[:4, :4]
_MIX_STEPS = list(zip(_chain(*_HASH_A, 17)[4 + 3 * _s + _d - (_d > _s)],
                      _chain(*_HASH_A, 17)[5 + 3 * _s + _d - (_d > _s)]))


def _starts(seed: int, indices: range, attempt: int):
    """Yield the state of PCG64(SeedSequence([seed, i, attempt])) for each
    i of indices (of equally many 32-bit words): numpy's SeedSequence, one
    array operation per step on a uint32 column per member, then pcg64's
    srandom_r on words 0-3 (state) and 4-7 (stream) of its output."""
    m = len(indices)
    if indices.stop > 1 << 32:
        rows = list(np.array([_words(i) for i in indices], np.uint32).T)
    else:
        rows = [np.arange(indices.start, indices.stop, dtype=np.uint32)]
    entropy = [*map(np.uint32, _words(seed)), *rows,
               *map(np.uint32, _words(attempt))]
    chain = _chain(*_HASH_A, 4 * max(4, len(entropy)))
    pool = np.zeros((4, m), np.uint32)  # hashmix fills it from 4 words
    for i, word in enumerate(entropy[:4]):
        pool[i] = word
    pool = _hashmix(pool, chain[:5])
    for src, (head, tail) in enumerate(_MIX_STEPS):  # row src into the rest
        row = pool[src].copy()
        hashed = (row ^ head) * tail
        pool = _mix(pool, hashed ^ hashed >> 16)
        pool[src] = row
    for k, word in enumerate(entropy[4:], 4):  # each later word into all
        pool = _mix(pool, _hashmix(word, chain[4 * k:4 * k + 5]))
    out = _hashmix(np.concatenate((pool, pool)), _chain(*_HASH_B, 8))
    out = out[0::2] | out[1::2].astype(np.uint64) << 32
    for s_hi, s_lo, i_hi, i_lo in out.T.tolist():
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def _draw_tournament(seed: int, index: int, attempt: int, start,
                     words: np.ndarray) -> None:
    """Fill words (uint64) with the raw words of stream (seed, index,
    attempt): a PCG64 set to state start, or numpy's if start is None."""
    if start is None:
        stream = np.random.PCG64(np.random.SeedSequence([seed, index, attempt]))
    else:
        stream = _BATCH_STREAM
        stream.state = start
    for at in range(0, words.size, DRAW_CHUNK_WORDS):
        words[at:at + DRAW_CHUNK_WORDS] = stream.random_raw(
            min(DRAW_CHUNK_WORDS, words.size - at))


def _pair_bits(words: np.ndarray, size: int) -> np.ndarray:
    """Packed pair bits of the raw words in each row of words: bit 7 of
    each byte, bytes read little-endian (see the module docstring)."""
    raw = words.view(np.uint8)[:, :size]  # flags overwrite their bytes
    return np.packbits(np.greater_equal(raw, 0x80, out=raw.view(bool)), axis=1)


def _collection(n: int, seed: int, indices: range,
                strong: int) -> TournamentCollection:
    """The tournaments of indices, drawn a block at a time (see the module
    docstring); the first strong are redrawn until strongly connected."""
    n = operator.index(n)  # a bool n is an int here, a float a TypeError
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
    rows = np.empty((m, (size + 7) // 8), np.uint8)  # one word packs to a byte
    block = max(1, DRAW_CHUNK_WORDS // max(rows.shape[1], 1))
    words = np.empty((min(block, m), rows.shape[1]), "<u8")
    starts = _starts(seed, indices, 0) if m >= SEED_BATCH else repeat(None)
    members = []
    for lo in range(0, m, block):
        # starts comes last, so zip takes none past the block's members
        for row, i, start in zip(words, indices[lo:lo + block], starts):
            _draw_tournament(seed, i, 0, start, row)
        rows[lo:lo + block] = _pair_bits(words[:m - lo], size)
        if lo < strong:  # the block's strong candidates, tested at once
            scores = _scores_from_pairs(n, rows[lo:strong][:block])
            verdicts = _landau_strong(scores).tolist()
        for pos in range(lo, min(lo + block, m)):
            t, attempt = Tournament._from_packed(n, rows[pos]), 0
            if pos < strong:  # a redraw below is a fresh tournament
                t._scores, t._strong = scores[pos - lo], verdicts[pos - lo]
            while pos < strong and not is_strongly_connected(t):
                attempt += 1
                _draw_tournament(seed, indices[pos], attempt, None, words[0])
                rows[pos] = _pair_bits(words[:1], size)[0]
                t = Tournament._from_packed(n, rows[pos])
            members.append(t)  # the object tested, with its scores cached
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
