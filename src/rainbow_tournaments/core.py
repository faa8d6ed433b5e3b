"""Data model for tournaments, collections and colored subdigraphs.

Vertices are ``0..n-1``.  A color is the index of a tournament inside a
collection.

The canonical interchange format for a collection is JSON::

    {"n": <int>, "m": <int>, "tournaments": ["010...", ...]}

where each string has length N = n(n-1)/2 over {"0","1"}; position p runs
over the pairs (i,j), i<j, in lexicographic order and "1" means the arc
i->j.

A tournament is stored as exactly these N pair bits, packed MSB-first
into ceil(N/8) read-only bytes (``Tournament.packed``; the pad bits of the
last byte are 0).  A collection built by the generator, by ``from_json``
or by unpickling keeps its m rows in one (m, ceil(N/8)) uint8 array
(``TournamentCollection.packed``), and each member's row is a view of it.
Per-vertex out-neighbour bitmasks (``Tournament.out``, arbitrary-precision
ints) are a cache, built on first read.  The constructions read them only
on small or derived tournaments: the majority tournament, restricted
blocks, the exact oracle and the one-spare builder.

Costs, for k colors on n vertices:

- Generation and ``from_json``: one ``packbits`` per tournament over its N
  pair bytes, copied into the collection's row.  No n x n matrix.
- ``has_arc(u, v)`` reads bit ``pair_index(min, max)`` and flips it when
  u > v (or reads ``out`` when it is cached); ``arc_color_mask`` gathers
  the pair's byte column of the collection array and packs the m bits.
- ``restrict`` to b vertices gathers their b(b-1)/2 pair bits and packs
  them.
- ``majority_subtournament`` counts the colors of every pair at once:
  each color's packed row is added into a bit-sliced counter (one array
  per bit of the count) by carry-save full adders, about five
  word-parallel operations on ceil(N/8) bytes per color.  One MSB-first
  comparison of the planes against ceil(k/2) gives the majority
  tournament's pair bits directly.
- ``Tournament.out``: the pair bits are placed into an n x n matrix by two
  masked writes, packed into rows, and each row becomes an int in one
  ``map(int.from_bytes, ...)``.  O(n^2) bytes, no Python step per pair.
- ``Tournament.scores`` (out-degrees, cached) sums the rows and columns of
  the upper triangle, or counts the bits of ``out`` when it is cached;
  ``is_strongly_connected`` sorts them and compares their prefix sums with
  Landau's floor C(k,2): O(n log n), with no search.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import eq, index
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Tournament",
    "TournamentCollection",
    "ColoredDigraph",
    "RainbowPath",
    "RainbowCycle",
    "majority_subtournament",
    "induced_collection",
    "is_strongly_connected",
    "validate_transversal",
    "transversal_violations",
    "pair_index",
    "iter_pairs",
]


def iter_pairs(n: int):
    """Yield the unordered pairs (i, j), i < j, in lexicographic order."""
    for i in range(n - 1):
        for j in range(i + 1, n):
            yield i, j


def pair_index(n: int, i: int, j: int) -> int:
    """Position of the pair (i, j), i < j, in the lexicographic enumeration."""
    if not 0 <= i < j < n:
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    # pairs with first coordinate < i, plus offset within row i
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Tournament:
    """A complete antisymmetric orientation on ``n`` labeled vertices."""

    __slots__ = ("n", "_packed", "_out", "_scores", "_hash")

    def __init__(self, n: int, out: Sequence[int]):
        if n < 1:
            raise ValueError("tournament needs at least one vertex")
        if len(out) != n:
            raise ValueError("out-mask count must equal n")
        out = tuple(out)
        mat = _check_rows(n, out)
        self.n = n
        self._packed = _frozen(np.packbits(mat[_upper_mask(n)]))
        self._out = out
        self._scores = None
        self._hash = None

    @classmethod
    def _from_packed(cls, n: int, packed: np.ndarray) -> "Tournament":
        """From packed pair bits known to be canonical (pad bits 0),
        skipping the validating constructor; packed becomes read-only."""
        t = object.__new__(cls)
        t.n = n
        t._packed = _frozen(packed)
        t._out = None
        t._scores = None
        t._hash = None
        return t

    def __reduce__(self):
        return Tournament._from_packed, (self.n, self._packed)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Tournament":
        out = [0] * n
        for u, v in arcs:
            out[u] |= 1 << v
        return cls(n, out)

    @classmethod
    def from_pair_bits(cls, n: int, bits: str) -> "Tournament":
        """From the JSON pair-bit string (see the module docstring)."""
        n = index(n)
        if n < 1:
            raise ValueError("tournament needs at least one vertex")
        want = _pair_count(n)
        bad = ValueError(f"need a {{0,1}} string of length {want}")
        if not isinstance(bits, str) or len(bits) != want:
            raise bad
        try:
            raw = np.frombuffer(bits.encode("ascii"), dtype=np.uint8)
        except UnicodeEncodeError:
            raise bad from None
        if ((raw | 1) != ord("1")).any():
            raise bad
        return cls._from_packed(n, np.packbits(raw & 1))

    @classmethod
    def from_bool_matrix(cls, mat: np.ndarray) -> "Tournament":
        """Build from a dense adjacency matrix (mat[u, v] truthy iff u->v)."""
        return cls(mat.shape[0], _pack_rows(mat.astype(np.uint8)))

    # -- representations ----------------------------------------------

    @property
    def packed(self) -> np.ndarray:
        """The pair bits, packed MSB-first (read-only uint8 array)."""
        return self._packed

    @property
    def out(self) -> tuple[int, ...]:
        """out[u] has bit v set iff u->v; built on first read, then cached."""
        out = self._out
        if out is None:
            out = self._out = _out_rows(self.n, self._packed)
        return out

    @property
    def scores(self) -> np.ndarray:
        """The out-degree of every vertex (a read-only int array);
        computed once, then cached."""
        scores = self._scores
        if scores is None:
            if self._out is not None:
                scores = np.fromiter(map(int.bit_count, self._out), np.intp)
            else:
                scores = _scores_from_pairs(self.n, self._packed)
            self._scores = scores = _frozen(scores)
        return scores

    # -- queries ------------------------------------------------------

    def has_arc(self, u: int, v: int) -> bool:
        out = self._out
        if out is not None:
            return bool((out[u] >> v) & 1)
        if u == v:
            return False
        lo, hi = (u, v) if u < v else (v, u)
        p = lo * (2 * self.n - lo - 3) // 2 + hi - 1  # pair_index(n, lo, hi)
        return bool(self._packed[p >> 3] & (0x80 >> (p & 7))) != (u > v)

    def out_degree(self, v: int) -> int:
        return int(self.scores[v])

    def in_degree(self, v: int) -> int:
        return self.n - 1 - int(self.scores[v])

    def in_mask(self, v: int) -> int:
        full = (1 << self.n) - 1
        return full & ~self.out[v] & ~(1 << v)

    def arcs(self):
        for u, mask in enumerate(self.out):
            for v in _bits(mask):
                yield u, v

    def pair_bits(self) -> str:
        bits = np.unpackbits(self._packed, count=_pair_count(self.n))
        return (bits | ord("0")).tobytes().decode("ascii")

    def restrict(self, vertices: Sequence[int]) -> "Tournament":
        """Induced subtournament; vertex k of the result is vertices[k]."""
        idx = np.asarray(vertices, dtype=np.intp)
        a, b = _pair_coords(len(idx))
        u, v = idx[a], idx[b]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        p = lo * (2 * self.n - lo - 3) // 2 + hi - 1  # as in has_arc
        bits = (self._packed[p >> 3] & (0x80 >> (p & 7))) != 0
        # restriction of a valid tournament cannot break the invariants
        return Tournament._from_packed(len(idx), np.packbits(bits != (u > v)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tournament)
            and self.n == other.n
            and np.array_equal(self._packed, other._packed)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._packed.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Tournament(n={self.n}, bits={self.pair_bits()!r})"


class TournamentCollection:
    """An ordered family of tournaments on a shared vertex set.

    Colors are the family indices ``0..m-1``.
    """

    __slots__ = ("n", "m", "tournaments", "_packed")

    def __init__(self, tournaments: Sequence[Tournament]):
        if not tournaments:
            raise ValueError("collection must contain at least one tournament")
        n = tournaments[0].n
        for t in tournaments:
            if t.n != n:
                raise ValueError("all tournaments must share the vertex set")
        self.n = n
        self.m = len(tournaments)
        self.tournaments = tuple(tournaments)
        self._packed = None

    @classmethod
    def _assemble(
        cls, n: int, m: int, members: Iterable[Tournament]
    ) -> "TournamentCollection":
        """From m new tournaments on n vertices: each one's pair bits are
        copied into its row of one (m, ceil(N/8)) array as it arrives, and
        the member then reads that row, so its own copy can go at once."""
        rows = view = None
        ts = []
        for i, t in enumerate(members):
            if rows is None:  # allocated once the first member is valid
                rows = np.empty((m, t._packed.size), dtype=np.uint8)
                view = _frozen(rows.view())
            rows[i] = t._packed
            t._packed = view[i]
            ts.append(t)
        tc = cls(ts)
        tc._packed = view
        return tc

    @classmethod
    def _from_rows(cls, n: int, rows: np.ndarray) -> "TournamentCollection":
        """Members read the rows of a canonical (m, ceil(N/8)) array."""
        rows = _frozen(rows)
        tc = cls([Tournament._from_packed(n, row) for row in rows])
        tc._packed = rows
        return tc

    def __reduce__(self):
        return TournamentCollection._from_rows, (self.n, self.packed)

    def _select(self, colors: Sequence[int]) -> "TournamentCollection":
        """The members of the listed colors, in that order.  A run of
        consecutive colors keeps reading this collection's rows."""
        colors = list(colors)
        sub = TournamentCollection([self.tournaments[c] for c in colors])
        if self._packed is not None and colors == list(
                range(colors[0], colors[0] + len(colors))):
            sub._packed = self._packed[colors[0]:colors[0] + len(colors)]
        return sub

    @property
    def packed(self) -> np.ndarray:
        """The members' packed pair bits as the rows of one read-only
        (m, ceil(N/8)) uint8 array.  A collection assembled from its own
        rows returns that array; any other stacks the rows on first use."""
        if self._packed is None:
            self._packed = _frozen(
                np.stack([t._packed for t in self.tournaments])
            )
        return self._packed

    def arc_color_mask(self, u: int, v: int) -> int:
        """Bitmask over colors i with the arc u->v in tournament i."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"invalid arc ({u},{v}) for n={self.n}")
        lo, hi = (u, v) if u < v else (v, u)
        p = pair_index(self.n, lo, hi)
        hit = (self.packed[:, p >> 3] & (0x80 >> (p & 7))) != 0
        if u > v:
            hit = ~hit
        return int.from_bytes(np.packbits(hit, bitorder="little"), "little")

    # -- JSON (canonical, bit-exact) ----------------------------------

    def to_json(self) -> str:
        obj = {
            "n": self.n,
            "m": self.m,
            "tournaments": [t.pair_bits() for t in self.tournaments],
        }
        return json.dumps(obj, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "TournamentCollection":
        obj = json.loads(text)
        n, m = obj["n"], obj["m"]
        bits = obj["tournaments"]
        if len(bits) != m:
            raise ValueError("tournament count does not match m")
        return cls._assemble(
            n, len(bits), (Tournament.from_pair_bits(n, b) for b in bits)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TournamentCollection)
            and self.tournaments == other.tournaments
        )

    def __hash__(self) -> int:
        return hash(self.tournaments)

    def __repr__(self) -> str:
        return f"TournamentCollection(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class ColoredDigraph:
    """A set of arcs, each carrying a color (tail, head, color)."""

    arcs: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for t, h, _ in self.arcs:
            if t == h:
                raise ValueError("self-loops are not allowed")
            if (t, h) in seen:
                raise ValueError(f"duplicate arc ({t},{h})")
            seen.add((t, h))

    def is_rainbow(self) -> bool:
        cols = [c for _, _, c in self.arcs]
        return len(cols) == len(set(cols))


@dataclass(frozen=True)
class _RainbowWalk:
    """Distinct vertices, and one color per arc with colors distinct;
    arc t runs from vertices[t] to the next vertex, cyclically."""

    vertices: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError(f"{self._kind} vertices must be distinct")
        if len(set(self.colors)) != len(self.colors):
            raise ValueError(f"{self._kind} colors must be distinct")

    def __len__(self) -> int:
        return len(self.vertices)

    def arcs(self) -> ColoredDigraph:
        k = len(self.vertices)
        trip = tuple(
            (self.vertices[t], self.vertices[(t + 1) % k], c)
            for t, c in enumerate(self.colors)
        )
        return ColoredDigraph(trip)

    def valid(self, coll: TournamentCollection) -> bool:
        return validate_transversal(coll, self.arcs())

    def is_hamilton(self, coll: TournamentCollection) -> bool:
        return len(self.vertices) == coll.n and self.valid(coll)


@dataclass(frozen=True)
class RainbowPath(_RainbowWalk):
    """A vertex sequence with one color per step; vertices and colors distinct."""

    _kind = "path"

    def __post_init__(self):
        if len(self.vertices) != len(self.colors) + 1:
            raise ValueError("a path on k vertices has k-1 colored arcs")
        super().__post_init__()


@dataclass(frozen=True)
class RainbowCycle(_RainbowWalk):
    """A cyclic vertex sequence; colors[k-1] colors the closing arc."""

    _kind = "cycle"

    def __post_init__(self):
        if len(self.vertices) != len(self.colors):
            raise ValueError("a cycle on k vertices has k colored arcs")
        super().__post_init__()
        if len(self.vertices) < 3:
            raise ValueError("directed cycles need at least three vertices")


# ---------------------------------------------------------------------------
# operations


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_rows(n: int, out: tuple[int, ...]) -> np.ndarray:
    """The out-masks as an n x n 0/1 matrix, after checking that they
    orient every pair exactly once."""
    full = (1 << n) - 1
    for v, mask in enumerate(out):
        if mask & ~full:
            raise ValueError(f"out-mask of vertex {v} out of range")
    nb = (n + 7) // 8
    buf = b"".join(map(int.to_bytes, out, repeat(nb), repeat("little")))
    mat = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8).reshape(n, nb),
        axis=1, count=n, bitorder="little",
    ).view(bool)
    if mat.diagonal().any():
        raise ValueError("self-loop present")
    both = mat & mat.T
    if both.any():
        v, u = map(int, np.argwhere(both)[0])
        raise ValueError(f"pair ({v},{u}) not oriented exactly once")
    missing = ~(mat | mat.T)
    np.fill_diagonal(missing, False)
    if missing.any():
        v, u = map(int, np.argwhere(missing)[0])
        raise ValueError(f"pair ({v},{u}) not oriented exactly once")
    return mat


def _out_rows(n: int, packed: np.ndarray) -> tuple[int, ...]:
    """The out-masks of the tournament with these pair bits."""
    up = _upper_mask(n)
    bits = np.unpackbits(packed, count=_pair_count(n))
    mat = np.zeros((n, n), dtype=np.uint8)
    mat[up] = bits
    # mat.T[up] is cell (j, i) of pair (i, j), in the same pair order
    mat.T[up] = bits ^ 1
    return _pack_rows(mat)


def _scores_from_pairs(n: int, packed: np.ndarray) -> np.ndarray:
    """Out-degrees: u beats the later vertices of its upper-triangle row
    and the earlier ones whose pair bit in column u is 0."""
    up = np.zeros((n, n), dtype=np.uint8)
    up[_upper_mask(n)] = np.unpackbits(packed, count=_pair_count(n))
    acc = np.uint16 if n < 1 << 16 else np.uint32  # narrow sums are faster
    later = up.sum(axis=1, dtype=acc).astype(np.intp)
    return later + np.arange(n) - up.sum(axis=0, dtype=acc)


def _pack_rows(mat: np.ndarray) -> tuple[int, ...]:
    """Each 0/1 row of mat as an int bitmask (column v is bit v)."""
    buf = np.packbits(mat, axis=1, bitorder="little").tobytes()
    rows = map(buf.__getitem__, _row_slices(*mat.shape))
    return tuple(map(int.from_bytes, rows, repeat("little")))


@functools.lru_cache(maxsize=32)
def _row_slices(n: int, width: int) -> tuple[slice, ...]:
    """The n rows of a packed n x width bit matrix as byte slices."""
    nb = (width + 7) // 8
    return tuple(slice(i * nb, (i + 1) * nb) for i in range(n))


@functools.lru_cache(maxsize=32)
def _upper_mask(n: int) -> np.ndarray:
    """The strict upper triangle of an n x n matrix as a read-only bool
    mask; its cells in row-major order are the pairs (i, j), i < j, in
    lexicographic order."""
    return _frozen(np.triu(np.ones((n, n), dtype=bool), 1))


@functools.lru_cache(maxsize=32)
def _pair_coords(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of every pair i < j, in lexicographic order."""
    i, j = np.nonzero(_upper_mask(n))
    return _frozen(i), _frozen(j)


def _index_list(
    items: Optional[Iterable[int]], size: int, what: str
) -> list[int]:
    """Sorted distinct items, all inside range(size); None means all of it.

    what names the items in error messages ("color" or "vertex").
    """
    if items is None:
        return list(range(size))
    out = sorted(set(items))
    if not out:
        raise ValueError(f"{what} set must be nonempty")
    if out[0] < 0 or out[-1] >= size:
        raise ValueError(f"{what} indices out of range")
    return out


def _full_add(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bitwise sum of three bits: (sum bits, carry bits)."""
    d = a ^ b
    return d ^ c, (a & b) | (d & c)


def _vote_planes(
    coll: TournamentCollection, color_list: Sequence[int]
) -> list[np.ndarray]:
    """Bit-sliced count of the listed colors' pair bits: bit p of planes[b]
    (packed as a pair row) is bit b of the number of colors with the arc
    i->j, for pair p = (i, j), i < j.  The colors with j->i are the rest.

    A carry-save counter: addends wait, at most two per weight, and a
    third one of the same weight triggers a full adder that keeps the sum
    at that weight and moves the carry up, about five word-parallel
    operations per color.  (A ripple carry would pass through every plane
    for every color: on N pairs a carry is almost never 0.)
    """
    pending: list[list[np.ndarray]] = []  # addends of weight 2**b
    for c in color_list:
        x = coll.tournaments[c].packed
        for waiting in pending:
            if len(waiting) < 2:
                waiting.append(x)
                break
            total, x = _full_add(*waiting, x)
            waiting[:] = [total]
        else:
            pending.append([x])
    planes = []
    carry = np.zeros_like(pending[0][0])
    for waiting in pending:
        if len(waiting) == 2:
            total, carry = _full_add(*waiting, carry)
        else:
            total, carry = waiting[0] ^ carry, waiting[0] & carry
        planes.append(total)
    if carry.any():
        planes.append(carry)
    return planes


def _at_least(planes: Sequence[np.ndarray], t: int) -> np.ndarray:
    """Positions whose bit-sliced count is >= t (one MSB-first comparison
    over the planes)."""
    above = np.zeros_like(planes[0])
    if t.bit_length() > len(planes):
        return above
    level = ~above  # count and t agree on the bits seen so far
    for b in reversed(range(len(planes))):
        if (t >> b) & 1:
            level = level & planes[b]
        else:
            above = above | (level & planes[b])
            level = level & ~planes[b]
    return above | level


def majority_subtournament(
    coll: TournamentCollection,
    colors: Optional[Iterable[int]] = None,
) -> Tournament:
    """A majority tournament of the colors: each arc lies in at least half
    of them.

    Tie-breaking: the direction with the strictly larger count wins; on
    equal counts the arc u->v with u < v is chosen.
    """
    color_list = _index_list(colors, coll.m, "color")
    k = len(color_list)
    # for i < j: c(i,j) >= c(j,i) iff c(i,j) >= ceil(k/2), since
    # c(i,j) + c(j,i) = k; those are the pair bits of the result (its pad
    # bits count 0 colors, so they stay 0)
    wins = _at_least(_vote_planes(coll, color_list), (k + 1) // 2)
    return Tournament._from_packed(coll.n, wins)


def induced_collection(
    coll: TournamentCollection,
    vertices: Optional[Iterable[int]] = None,
    colors: Optional[Iterable[int]] = None,
) -> tuple[TournamentCollection, dict[int, int]]:
    """Vertex- and/or color-induced collection, with the old->new vertex map."""
    vert_list = _index_list(vertices, coll.n, "vertex")
    sub = [
        coll.tournaments[c].restrict(vert_list)
        for c in _index_list(colors, coll.m, "color")
    ]
    vmap = {old: new for new, old in enumerate(vert_list)}
    return TournamentCollection(sub), vmap


def is_strongly_connected(t: Tournament) -> bool:
    """True iff the tournament has a single strongly connected component.

    Landau's score test: the k lowest scores sum to at least C(k,2), the
    sum of 0..k-1, with equality exactly when those k vertices lose to
    all others; so the tournament is strong iff no proper prefix of its
    sorted scores meets that floor.
    """
    scores = sorted(t.scores.tolist())
    floor = accumulate(range(t.n - 1))
    return not any(map(eq, accumulate(scores[:-1]), floor))


def transversal_violations(
    coll: TournamentCollection, d: ColoredDigraph
) -> list[str]:
    """Diagnostics for a failed transversal check; empty list means valid."""
    problems = []
    seen_colors: dict[int, tuple[int, int]] = {}
    for t, h, c in d.arcs:
        if not (0 <= c < coll.m):
            problems.append(f"arc ({t},{h}): color {c} out of range")
            continue
        if c in seen_colors:
            problems.append(
                f"color {c} repeated on ({t},{h}) and {seen_colors[c]}"
            )
        else:
            seen_colors[c] = (t, h)
        if not (0 <= t < coll.n and 0 <= h < coll.n):
            problems.append(f"arc ({t},{h}) out of vertex range")
            continue
        if not coll.tournaments[c].has_arc(t, h):
            problems.append(f"arc ({t},{h}) is not in tournament {c}")
    return problems


def validate_transversal(coll: TournamentCollection, d: ColoredDigraph) -> bool:
    """True iff colors are pairwise distinct and each arc lies in its tournament."""
    return not transversal_violations(coll, d)
