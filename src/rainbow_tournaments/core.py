"""Data model for tournaments, collections and colored subdigraphs.

Vertices are ``0..n-1``.  A color is the index of a tournament inside a
collection.

The canonical interchange format for a collection is JSON::

    {"n": <int>, "m": <int>, "tournaments": ["010...", ...]}

where n and m are integers (not booleans) and each string has length
N = n(n-1)/2 over {"0","1"}; position p runs over the pairs (i,j), i<j,
in lexicographic order and "1" means the arc i->j.

A tournament is stored as exactly these N pair bits, packed MSB-first
into ceil(N/8) read-only bytes (``Tournament.packed``; the pad bits of the
last byte are 0).  A collection made by the generator, ``from_json``,
``induced_collection`` or unpickling holds its m rows in one (m, ceil(N/8))
uint8 array (``TournamentCollection.packed``), frozen once, and each
member's row is a read-only view of it (the generator draws, and
``induced_collection`` packs, straight into it; the generator's rows are
byte views of rows of raw words).
Per-vertex out-neighbour bitmasks (``Tournament.out``, arbitrary-precision
ints) are a cache, built on first read.  The constructions read them only
on small or derived tournaments such as the majority tournament (the
one-spare builder's two-color step reads single pair bits, and the exact
oracle the packed rows).

Sub-collections keep the listed order and check the list once:
``restrict_colors`` picks colors (a run of them reads coll's rows) and
``induced_collection`` vertices (``restrict`` of its first member checks).
``majority_subtournament`` votes over all members.

Costs, for k colors on n vertices:

- Generation: a seeded stream's raw words are the members' rows, read in
  one call straight into the collection's array, frozen once (about
  1.4 µs a member at n = 30, 16-19 µs at n = 800; see ``generators``);
  ``from_json``: one ``packbits`` per tournament, stacked once.  No n x n
  matrix.
- ``has_arc(u, v)`` checks u and v against range(n), reads the pair bit
  of (min, max) and flips it when u > v (or reads ``out`` when it is
  cached).  ``arc_color_masks`` gathers the byte columns of k arcs
  as one masked, flipped (m, k) block and packs its columns (about 9 µs
  plus 0.7 µs an arc at m = 60); ``arc_color_mask`` is its one-arc case.
- ``restrict`` to b vertices finds the byte, bit mask and flip of the
  b(b-1)/2 pairs, then gathers, masks, packs and flips the pair bits;
  ``induced_collection`` restricts its first member (the check), then
  does that for all k members, row by row, in one (k, b(b-1)/2) array.
- ``majority_subtournament`` counts the colors of every pair at once in
  a bit-sliced counter (one array per bit of the count) fed by carry-save
  full adders, about five word-parallel operations per addend.  An
  addend holds g consecutive rows as the lanes of one row, so where numpy
  calls cost more than bytes five operations cover g colors (lanes, g and
  the fold: see ``_vote_planes``; g = 1 for k < 16 and for n >= 725).
  One MSB-first comparison of the planes against ceil(k/2) gives the
  majority tournament's pair bits directly.
- ``Tournament.out``: the pair bits are placed into an n x n matrix by two
  masked writes, and ``_pack_rows`` packs its rows into ints, one
  ``int.from_bytes`` a row.  O(n^2) bytes, no Python step per pair.
- ``Tournament.scores`` (out-degrees, cached) sums the rows and columns of
  the upper triangle of the pair bits placed into an n x n buffer,
  whether or not ``out`` is cached (with Landau, 1.8 ms at n = 1600);
  ``is_strongly_connected`` compares their sorted prefix sums with
  Landau's floor C(k,2): O(n log n), no search.  Both routines take a
  block of rows, so the generator tests a draw block's strong candidates
  at once below n = 257 (see ``generators``).  From n = 257 a certificate
  on the first 32 pair rows goes first (32 n bytes, two closures of at
  most 32 int ORs: 40 µs at n = 400, 75 µs at n = 1600); what it cannot
  prove goes to Landau.  The verdict is cached on the tournament.
- ``validate_transversal`` makes one ``has_arc`` per arc.  A rainbow path
  or cycle (``valid``, ``is_hamilton``) is read in place: no
  ``ColoredDigraph``, no arc triples and no second distinct-color set.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import repeat
from operator import index
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tournament",
    "TournamentCollection",
    "ColoredDigraph",
    "RainbowPath",
    "RainbowCycle",
    "majority_subtournament",
    "restrict_colors",
    "induced_collection",
    "is_strongly_connected",
    "validate_transversal",
]


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, read-only: a view of a frozen array already is, and keeps it."""
    if a.flags.writeable:
        a.flags.writeable = False
    return a


class Tournament:
    """A complete antisymmetric orientation on ``n`` labeled vertices."""

    __slots__ = ("n", "_packed", "_out", "_scores", "_strong")

    def __init__(self, n: int, out: Sequence[int]):
        if n < 1:
            raise ValueError("tournament needs at least one vertex")
        if len(out) != n:
            raise ValueError("out-mask count must equal n")
        out = tuple(out)
        if any(mask >> n for mask in out):
            raise ValueError("out-mask out of range")
        nb = (n + 7) // 8
        buf = b"".join(map(int.to_bytes, out, repeat(nb), repeat("little")))
        mat = np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(n, nb),
                            axis=1, count=n, bitorder="little")
        # every pair oriented exactly once (i->j or j->i), no self-loop
        if (mat + mat.T != 1 - np.eye(n, dtype=np.uint8)).any():
            raise ValueError("out-masks must orient every pair exactly once")
        self.n = n
        self._packed = _frozen(np.packbits(mat[_upper_mask(n)]))
        self._out = out
        self._scores = self._strong = None

    @classmethod
    def _from_packed(cls, n: int, packed: np.ndarray) -> "Tournament":
        """From packed pair bits known to be canonical (pad bits 0),
        skipping the validating constructor; packed becomes read-only.
        Rows are frozen once per array, so a member's row, a view of its
        frozen array, is read-only already and costs no flag write."""
        t = object.__new__(cls)
        t.n = n
        t._packed = _frozen(packed)
        t._out = None
        t._scores = t._strong = None
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
        """The out-degree of every vertex (a read-only int array), from the
        pair bits; computed once, then cached."""
        if self._scores is None:
            self._scores = _scores_from_pairs(self.n, self._packed[None])[0]
        return self._scores

    # -- queries ------------------------------------------------------

    def has_arc(self, u: int, v: int) -> bool:
        """Whether u->v; a vertex outside range(n) raises ValueError."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"invalid arc ({u},{v}) for n={self.n}")
        out = self._out
        if out is not None:
            return bool((out[u] >> v) & 1)
        if u == v:
            return False
        lo, hi = (u, v) if u < v else (v, u)
        p = lo * (2 * self.n - lo - 3) // 2 + hi - 1  # (lo, hi) in pair order
        return bool(self._packed[p >> 3] & (0x80 >> (p & 7))) != (u > v)

    def _vertex(self, v: int) -> int:
        """v, checked: a vertex outside range(n) raises ValueError."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} is outside range({self.n})")
        return v

    def out_degree(self, v: int) -> int:
        return int(self.scores[self._vertex(v)])

    def in_degree(self, v: int) -> int:
        return self.n - 1 - int(self.scores[self._vertex(v)])

    def in_mask(self, v: int) -> int:
        full = (1 << self.n) - 1
        return full & ~self.out[self._vertex(v)] & ~(1 << v)

    def arcs(self):
        for u, mask in enumerate(self.out):
            for v in _bits(mask):
                yield u, v

    def pair_bits(self) -> str:
        bits = np.unpackbits(self._packed, count=_pair_count(self.n))
        return (bits | ord("0")).tobytes().decode("ascii")

    def restrict(self, vertices: Sequence[int]) -> "Tournament":
        """Induced subtournament; vertex k of the result is vertices[k].
        A vertex that is not an int raises TypeError; no vertices,
        repeated ones or ones outside range(n) raise ValueError."""
        vs = _vertex_list(self.n, vertices)
        if not vs:
            raise ValueError(f"need one or more vertices in range({self.n})")
        byte, bit, flip = _pair_locations(self.n, vs)
        # restriction of a valid tournament cannot break the invariants
        return Tournament._from_packed(
            len(vs), np.packbits(self._packed[byte] & bit) ^ flip)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tournament)
            and self.n == other.n
            and np.array_equal(self._packed, other._packed)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._packed.tobytes()))

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
        if any(t.n != n for t in tournaments):
            raise ValueError("all tournaments must share the vertex set")
        self.n = n
        self.m = len(tournaments)
        self.tournaments = tuple(tournaments)
        self._packed = None

    @classmethod
    def _from_rows(
        cls, n: int, rows: np.ndarray, members: Sequence[Tournament] = ()
    ) -> "TournamentCollection":
        """From canonical pair bits on n vertices, one member per row of
        rows (frozen as packed), read by the given or by new members."""
        rows = _frozen(rows)  # first: a member's row is then a frozen view
        tc = cls(members or [Tournament._from_packed(n, r) for r in rows])
        tc._packed = rows
        return tc

    def __reduce__(self):
        return TournamentCollection._from_rows, (
            self.n, np.array([t._packed for t in self.tournaments]))

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
        return self.arc_color_masks([(u, v)])[0]

    def arc_color_masks(self, arcs: Iterable[tuple[int, int]]) -> list[int]:
        """arc_color_mask of each arc u->v of arcs (see _arc_bits)."""
        return list(_pack_rows(self._arc_bits(arcs).T))

    def _arc_bits(self, arcs: Iterable[tuple[int, int]]) -> np.ndarray:
        """The (m, k) uint8 block, nonzero where color c has arc i, from one
        gather; an arc u->u or one off range(n) raises ValueError."""
        n = self.n
        at, bit, flip = [], [], []
        for u, v in arcs:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"invalid arc ({u},{v}) for n={n}")
            lo, hi = (u, v) if u < v else (v, u)
            p = lo * (2 * n - lo - 3) // 2 + hi - 1  # (lo, hi) in pair order
            at.append(p >> 3)
            bit.append(0x80 >> (p & 7))
            flip.append(bit[-1] if u > v else 0)
        bit, flip = np.array((bit, flip), np.uint8)
        # the pair bit of an arc u < v, or its complement
        return (self.packed[:, at] ^ flip) & bit

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
        """From canonical JSON; ValueError for any defect of the document."""
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        if not isinstance(obj, dict):
            raise ValueError("need a JSON object")
        try:
            n, m, bits = obj["n"], obj["m"], obj["tournaments"]
        except KeyError as exc:
            raise ValueError(f"missing key {exc}") from None
        if type(n) is not int or type(m) is not int:
            raise ValueError("n and m must be integers")
        if not isinstance(bits, list) or len(bits) != m:
            raise ValueError("tournaments must be a list of m bit strings")
        return cls._from_rows(n, np.array(
            [Tournament.from_pair_bits(n, b)._packed for b in bits], np.uint8))

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
        return validate_transversal(coll, self)

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
    """Out-degrees (read-only, b x n) of b pair rows: u beats the later
    vertices in its row and the earlier ones whose column-u bit is 0."""
    up = np.zeros((len(packed), n, n), dtype=np.uint8)
    # the mask repeated b times as a view (np.broadcast_to costs 3 µs),
    # copied if b > 1: a contiguous mask places 2x faster than a strided
    mask = np.ndarray(up.shape, bool, _upper_mask(n), strides=(0, n, 1))
    up[np.ascontiguousarray(mask)] = np.unpackbits(
        packed, axis=1, count=_pair_count(n)).ravel()
    acc = np.uint16 if n < 1 << 16 else np.uint32  # narrow sums are faster
    return _frozen(up.sum(axis=2, dtype=acc) + np.arange(n)
                   - up.sum(axis=1, dtype=acc))


def _pack_rows(bits: np.ndarray) -> tuple[int, ...]:
    """Each row of a 0/nonzero uint8 block, of any strides, as an int
    bitmask (column v is bit v); a block with no columns gives 0s."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    if not packed.shape[1]:
        return (0,) * len(packed)
    rows = np.ascontiguousarray(packed).view(f"V{packed.shape[1]}")
    return tuple(map(int.from_bytes, rows.ravel().tolist(), repeat("little")))


@functools.lru_cache(maxsize=128)
def _upper_mask(n: int) -> np.ndarray:
    """The strict upper triangle of an n x n matrix as a read-only bool
    mask; its cells in row-major order are the pairs (i, j), i < j, in
    lexicographic order.  128 sizes are cached: a second sweep over n =
    10, 13, ..., 130 (50 sizes) misses none, and they hold 0.26 MB."""
    return _frozen(np.triu(np.ones((n, n), dtype=bool), 1))


def _vertex_list(n: int, vertices: Iterable[int]) -> list[int]:
    """vertices as distinct ints in range(n), else TypeError or ValueError."""
    vs = list(map(index, vertices))
    if len(set(vs)) < len(vs) or vs and not 0 <= min(vs) <= max(vs) < n:
        raise ValueError(f"need distinct vertices in range({n})")
    return vs


def _pair_locations(n: int, vertices: Sequence[int]):
    """Byte, bit mask and packed flips (first listed vertex the larger)
    of the pairs induced on the listed vertices (checked Python ints) in
    a pair row on n vertices; packbits counts a nonzero masked byte as 1."""
    u, v = np.take(vertices, np.nonzero(_upper_mask(len(vertices))))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    p = lo * (2 * n - lo - 3) // 2 + hi - 1  # as in has_arc
    return p >> 3, (0x80 >> (p & 7)).astype(np.uint8), np.packbits(u > v)


def _full_add(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bitwise sum of three bits: (sum bits, carry bits); the carry is
    built in place in a ^ b, which saves two of five allocations."""
    d = a ^ b
    total = d ^ c
    d &= c
    d |= a & b
    return total, d


def _carry_save(pending: list[list[np.ndarray]], weight: int,
                x: np.ndarray) -> None:
    """Add x at weight 2**weight to a carry-save counter: addends wait, at
    most two per weight (pending[b] holds those of weight 2**b), and a
    third one of the same weight triggers a full adder that keeps the sum
    at that weight and moves the carry up.  (A ripple carry would pass
    through every plane for every addend: a carry is almost never 0.)
    Addends come in order of weight, so weight <= len(pending)."""
    for waiting in pending[weight:]:
        if len(waiting) < 2:
            waiting.append(x)
            return
        total, x = _full_add(*waiting, x)
        waiting[:] = [total]
    pending.append([x])


def _vote_planes(coll: TournamentCollection) -> list[np.ndarray]:
    """Bit-sliced count of the members' pair bits: bit p of planes[b]
    (packed as a pair row) is bit b of the number of colors with the arc
    i->j, for pair p = (i, j), i < j.  The colors with j->i are the rest.

    Small rows cost numpy calls, not bytes, so the counter's addends are
    wide: g consecutive rows of width = ceil(N/8) bytes, copied side by
    side as the g lanes of one 1-D row of at most 64 KiB, with g = max(1,
    min(isqrt(m) // 2, 65536 // width)); about five operations per g
    colors.  The fold adds each lane of every wide addend left pending, at
    that addend's weight, into a second counter, with the m mod g rows left
    over, and resolves it into the planes.  At g = 1 (m < 16, or rows over
    32 KiB) there are no wide addends: each row is added as it stands.
    """
    width = coll.tournaments[0].packed.size
    g = max(1, min(math.isqrt(coll.m) // 2, 65536 // max(width, 1)))
    wide = coll.m - coll.m % g if g > 1 else 0
    lanes: list[list[np.ndarray]] = []  # the wide addends, by weight
    for at in range(0, wide, g):
        _carry_save(lanes, 0, coll.packed[at:at + g].reshape(-1))
    pending: list[list[np.ndarray]] = []
    for weight, waiting in enumerate(lanes):
        for x in waiting:
            for lane in x.reshape(g, width):
                _carry_save(pending, weight, lane)
    for t in coll.tournaments[wide:]:
        _carry_save(pending, 0, t.packed)
    planes = []
    carry = np.zeros_like(pending[0][0])
    for waiting in pending:  # every weight holds one or two addends
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


def majority_subtournament(coll: TournamentCollection) -> Tournament:
    """A majority tournament of the collection: each arc lies in at least
    half of its members.

    Tie-breaking: the direction with the strictly larger count wins; on
    equal counts the arc u->v with u < v is chosen.
    """
    # for i < j: c(i,j) >= c(j,i) iff c(i,j) >= ceil(m/2), since
    # c(i,j) + c(j,i) = m; those are the pair bits of the result (its pad
    # bits count 0 colors, so they stay 0)
    wins = _at_least(_vote_planes(coll), (coll.m + 1) // 2)
    return Tournament._from_packed(coll.n, wins)


def restrict_colors(
    coll: TournamentCollection, colors: Sequence[int]
) -> TournamentCollection:
    """The members of the listed colors, in that order: color k of the
    result is colors[k].  A run of consecutive colors keeps reading coll's
    rows.  No colors, or one outside range(m), raise ValueError."""
    colors = list(colors)
    for c in colors:
        if not 0 <= c < coll.m:
            raise ValueError(f"color {c} is outside 0..{coll.m - 1}")
    sub = TournamentCollection([coll.tournaments[c] for c in colors])
    if coll._packed is not None and colors == list(
            range(colors[0], colors[0] + len(colors))):
        sub._packed = coll._packed[colors[0]:colors[0] + len(colors)]
    return sub


def induced_collection(
    coll: TournamentCollection, vertices: Sequence[int]
) -> TournamentCollection:
    """Every member restricted to the listed vertices: vertex k of the
    result is vertices[k].  Tournament.restrict on the first member checks
    the list; the members' pair bytes are gathered into one row array."""
    vertices = list(map(index, vertices))
    coll.tournaments[0].restrict(vertices)
    byte, bit, flip = _pair_locations(coll.n, vertices)
    rows = np.empty((coll.m, len(byte)), np.uint8)
    for t, row in zip(coll.tournaments, rows):
        np.take(t._packed, byte, out=row)
    rows &= bit
    return TournamentCollection._from_rows(
        len(vertices), np.packbits(rows, axis=1) ^ flip)


def _landau_strong(scores: np.ndarray) -> np.ndarray:
    """Landau's test on each row of a (b, n) block of scores: the k lowest
    scores sum to at least C(k,2), with equality exactly when those k
    vertices lose to all others; so a tournament is strong iff no proper
    prefix of its sorted scores meets that floor."""
    excess = np.sort(scores, axis=1) - np.arange(scores.shape[1])
    return excess[:, :-1].cumsum(axis=1).all(axis=1)  # sums less C(k,2)


# the pair rows the certificate reads, and the least n it runs at: there a
# generator draw block holds one member (below, its block pass costs less)
_CERT_ROWS, _CERT_FROM = 32, 257


def _certified_strong(n: int, packed: np.ndarray) -> bool:
    """True if the pairs (u, j), u < _CERT_ROWS (a prefix of the row, placed
    as those vertices' out-rows, their corner completed), prove it strong:
    closures from vertex 0 by those rows' out-arcs and in-arcs both reach
    every vertex.  They follow real arcs only, so True is exact; False
    proves nothing.  Needs n > _CERT_ROWS."""
    r = _CERT_ROWS
    bits = r * n - r * (r + 1) // 2
    known = np.zeros((r, n), np.uint8)
    known[_upper_mask(n)[:r]] = np.unpackbits(packed[:(bits + 7) // 8],
                                              count=bits)
    corner = known[:, :r]
    corner.T[_upper_mask(r)] = corner[_upper_mask(r)] ^ 1
    out, full = _pack_rows(known), (1 << n) - 1
    return _closure_is_full(out, full) and _closure_is_full(
        [full ^ o ^ 1 << v for v, o in enumerate(out)], full)


def _closure_is_full(rows: Sequence[int], full: int) -> bool:
    """Whether vertex 0 reaches the vertices of full through arcs from the
    vertices that have a row (v -> w for w in rows[v]), stopping as soon as
    every vertex is reached."""
    reached, done, known = 1, 0, (1 << len(rows)) - 1
    while reached != full:
        todo = reached & known & ~done
        if not todo:
            return False
        done |= todo
        for v in _bits(todo):
            reached |= rows[v]
    return True


def is_strongly_connected(t: Tournament) -> bool:
    """True iff t has one strongly connected component: from n = _CERT_FROM
    by the prefix certificate if it proves it (see _certified_strong), else
    by Landau's test (see _landau_strong); computed once, then cached on t."""
    if t._strong is None:
        t._strong = (t.n >= _CERT_FROM and _certified_strong(t.n, t._packed)
                     or bool(_landau_strong(t.scores[None])[0]))
    return t._strong


def validate_transversal(
    coll: TournamentCollection, d: ColoredDigraph | RainbowPath | RainbowCycle
) -> bool:
    """True iff every color is one of coll's m and used once, and every arc
    joins two of its n vertices and lies in its color's tournament.  A path
    or cycle is read in place (its colors are distinct by construction)."""
    if isinstance(d, ColoredDigraph):
        arcs = d.arcs
        if len({c for _, _, c in arcs}) < len(arcs):
            return False
    else:
        vs = d.vertices
        arcs = zip(vs, vs[1:] + vs[:1], d.colors)
    m, ts = coll.m, coll.tournaments
    try:
        for t, h, c in arcs:  # a loop: a generator costs more on short walks
            if not (0 <= c < m and ts[c].has_arc(t, h)):
                return False
    except (TypeError, ValueError):  # an end off range(n), or a non-int
        return False
    return True
