"""Data model for tournaments, collections and colored subdigraphs.

Vertices are ``0..n-1``.  A color is the index of a tournament inside a
collection.  Orientation bits for one tournament are stored as per-vertex
out-neighbour bitmasks (arbitrary-precision ints), which makes arc queries,
degree counts and induced restrictions cheap even for a few thousand
vertices.

The canonical interchange format for a collection is JSON::

    {"n": <int>, "m": <int>, "tournaments": ["010...", ...]}

where each string has length n(n-1)/2 over {"0","1"}; position p runs over
the pairs (i,j), i<j, in lexicographic order and "1" means the arc i->j.

Costs of the operations on whole matrices, for k colors on n vertices:

- Placement: a 0/1 array in pair order (a generator draw, or a JSON
  string read as ASCII bytes) becomes a tournament by two masked writes
  into an n x n uint8 matrix through a cached strict-upper bool mask,
  ``mat[up] = bits`` and ``mat.T[up] = bits ^ 1``; ``pair_bits`` reads
  ``mat[up]`` back from the unpacked rows.  O(n^2) bytes, no Python step
  per pair.
- Packing (every trusted construction, including ``restrict`` and
  ``majority_subtournament``): one ``packbits`` and one ``tobytes`` over
  the whole matrix, then one ``int.from_bytes`` per row on a slice of
  that buffer.
- ``threshold_digraph`` and ``majority_subtournament`` count the colors
  of every ordered pair at once.  Each color's rows are laid out as one
  uint8 array of n*ceil(n/8) bytes and added into a bit-sliced counter
  (one array per bit of the count) by carry-save full adders: about five
  word-parallel operations per color, O(k n^2 / 8) bytes of work in
  total, plus one Python call per row to lay the rows out.  One MSB-first
  comparison of the planes against the threshold gives the result, and
  only that n x n matrix is unpacked.
- ``is_strongly_connected`` sorts the n out-degrees and compares their
  prefix sums with Landau's floor C(k,2): O(n log n), with no search.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import eq
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Tournament",
    "TournamentCollection",
    "ColoredDigraph",
    "RainbowPath",
    "RainbowCycle",
    "MajorityDigraph",
    "color_set_of_arc",
    "threshold_digraph",
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


class Tournament:
    """A complete antisymmetric orientation on ``n`` labeled vertices."""

    __slots__ = ("n", "out", "_hash")

    def __init__(self, n: int, out: Sequence[int]):
        if n < 1:
            raise ValueError("tournament needs at least one vertex")
        if len(out) != n:
            raise ValueError("out-mask count must equal n")
        self.n = n
        self.out = tuple(out)
        self._hash = None
        self._check()

    def _check(self) -> None:
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.out):
            if mask & ~full:
                raise ValueError(f"out-mask of vertex {v} out of range")
        mat = self._bool_rows(range(self.n)).astype(bool)
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

    def _bool_rows(self, rows: Sequence[int]) -> np.ndarray:
        """Out-masks of the given vertices as 0/1 rows of length n."""
        masks = [self.out[v] for v in rows]
        return _unpack_rows(_row_array(masks, self.n), self.n)

    @classmethod
    def _unchecked(cls, mat: np.ndarray) -> "Tournament":
        """From 0/1 rows (mat[u, v] = 1 iff u->v) known to form a
        tournament, skipping the validating constructor."""
        t = object.__new__(cls)
        t.n = mat.shape[0]
        t.out = _pack_rows(mat)
        t._hash = None
        return t

    # -- constructors -------------------------------------------------

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Tournament":
        out = [0] * n
        for u, v in arcs:
            out[u] |= 1 << v
        return cls(n, out)

    @classmethod
    def _from_pair_array(cls, n: int, bits: np.ndarray) -> "Tournament":
        """From one 0/1 uint8 per pair (i, j), i < j, in lexicographic
        order; 1 means the arc i->j.  Every pair is oriented exactly once
        by construction, so the validating constructor is skipped."""
        up = _upper_mask(n)
        mat = np.zeros((n, n), dtype=np.uint8)
        mat[up] = bits
        # mat.T[up] is cell (j, i) of pair (i, j), in the same pair order
        mat.T[up] = bits ^ 1
        return cls._unchecked(mat)

    @classmethod
    def from_pair_bits(cls, n: int, bits: str) -> "Tournament":
        """From the JSON pair-bit string (see the module docstring)."""
        if n < 1:
            raise ValueError("tournament needs at least one vertex")
        want = n * (n - 1) // 2
        if (not isinstance(bits, str) or len(bits) != want
                or set(bits) - {"0", "1"}):
            raise ValueError(f"need a {{0,1}} string of length {want}")
        raw = np.frombuffer(bits.encode("ascii"), dtype=np.uint8)
        return cls._from_pair_array(n, raw - ord("0"))

    @classmethod
    def from_bool_matrix(cls, mat: np.ndarray) -> "Tournament":
        """Build from a dense adjacency matrix (mat[u, v] truthy iff u->v)."""
        return cls(mat.shape[0], _pack_rows(mat.astype(np.uint8)))

    # -- queries ------------------------------------------------------

    def has_arc(self, u: int, v: int) -> bool:
        return bool((self.out[u] >> v) & 1)

    def out_degree(self, v: int) -> int:
        return self.out[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.n - 1 - self.out[v].bit_count()

    def in_mask(self, v: int) -> int:
        full = (1 << self.n) - 1
        return full & ~self.out[v] & ~(1 << v)

    def arcs(self):
        for u in range(self.n):
            for v in _bits(self.out[u]):
                yield u, v

    def pair_bits(self) -> str:
        bits = self._bool_rows(range(self.n))[_upper_mask(self.n)]
        return (bits + ord("0")).tobytes().decode("ascii")

    def restrict(self, vertices: Sequence[int]) -> "Tournament":
        """Induced subtournament; vertex k of the result is vertices[k]."""
        idx = np.asarray(vertices, dtype=np.intp)
        # only the k selected rows are unpacked, not the full n x n matrix;
        # restriction of a valid tournament cannot break the invariants
        return Tournament._unchecked(self._bool_rows(vertices)[:, idx])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tournament)
            and self.n == other.n
            and self.out == other.out
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.out))
        return self._hash

    def __repr__(self) -> str:
        return f"Tournament(n={self.n}, bits={self.pair_bits()!r})"


class TournamentCollection:
    """An ordered family of tournaments on a shared vertex set.

    Colors are the family indices ``0..m-1``.
    """

    __slots__ = ("n", "m", "tournaments")

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

    def arc_color_mask(self, u: int, v: int) -> int:
        """Bitmask over colors i with the arc u->v in tournament i."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"invalid arc ({u},{v}) for n={self.n}")
        mask = 0
        for i, t in enumerate(self.tournaments):
            if (t.out[u] >> v) & 1:
                mask |= 1 << i
        return mask

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
        return cls([Tournament.from_pair_bits(n, b) for b in bits])

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


@dataclass(frozen=True)
class MajorityDigraph:
    """Arcs present in at least ceil(gamma * |colors|) member tournaments."""

    n: int
    gamma: Fraction
    arcs: frozenset[tuple[int, int]]

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs


# ---------------------------------------------------------------------------
# operations


def color_set_of_arc(coll: TournamentCollection, u: int, v: int) -> set[int]:
    """Colors whose tournament contains the arc u->v."""
    return set(_bits(coll.arc_color_mask(u, v)))


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_array(masks: Iterable[int], n: int) -> np.ndarray:
    """The n-bit masks as consecutive little-endian rows of ceil(n/8)
    bytes, in one uint8 array."""
    nb = (n + 7) // 8
    buf = b"".join(map(int.to_bytes, masks, repeat(nb), repeat("little")))
    return np.frombuffer(buf, dtype=np.uint8)


def _unpack_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The rows of a _row_array as 0/1 rows of length n."""
    return np.unpackbits(
        rows.reshape(-1, (n + 7) // 8), axis=1, count=n, bitorder="little"
    )


def _pack_rows(mat: np.ndarray) -> tuple[int, ...]:
    """Each 0/1 row of mat as an int bitmask (column v is bit v)."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    nb = packed.shape[1]
    buf = packed.tobytes()
    return tuple(
        int.from_bytes(buf[i:i + nb], "little") for i in range(0, len(buf), nb)
    )


@functools.lru_cache(maxsize=16)
def _upper_mask(n: int) -> np.ndarray:
    """The strict upper triangle of an n x n matrix as a read-only bool
    mask; its cells in row-major order are the pairs (i, j), i < j, in
    lexicographic order."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


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
    """Bit-sliced count of the listed colors' arcs: bit v of row u of
    planes[b] (laid out as by _row_array) is bit b of the number of colors
    with the arc u->v.

    A carry-save counter: addends wait, at most two per weight, and a
    third one of the same weight triggers a full adder that keeps the sum
    at that weight and moves the carry up, about five word-parallel
    operations per color.  (A ripple carry would pass through every plane
    for every color: on n^2 pairs a carry is almost never 0.)
    """
    pending: list[list[np.ndarray]] = []  # addends of weight 2**b
    for c in color_list:
        x = _row_array(coll.tournaments[c].out, coll.n)
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


def threshold_digraph(
    coll: TournamentCollection,
    colors: Optional[Iterable[int]] = None,
    gamma: Fraction | float = Fraction(1, 2),
) -> MajorityDigraph:
    """The digraph of arcs present in at least ceil(gamma*|colors|) colors."""
    gamma = Fraction(gamma).limit_denominator(10**9) if not isinstance(gamma, Fraction) else gamma
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    color_list = _index_list(colors, coll.m, "color")
    need = max(math.ceil(gamma * len(color_list)), 1)
    hits = _at_least(_vote_planes(coll, color_list), need)
    us, vs = np.nonzero(_unpack_rows(hits, coll.n))
    return MajorityDigraph(
        coll.n, gamma, frozenset(zip(us.tolist(), vs.tolist()))
    )


def majority_subtournament(
    coll: TournamentCollection,
    colors: Optional[Iterable[int]] = None,
    gamma: Fraction | float = Fraction(1, 2),
) -> Tournament:
    """A tournament inside the gamma-threshold digraph (gamma <= 1/2).

    Tie-breaking: the direction with the strictly larger count wins; on
    equal counts the arc u->v with u < v is chosen.
    """
    gamma = Fraction(gamma) if not isinstance(gamma, Fraction) else gamma
    if gamma > Fraction(1, 2):
        raise ValueError("majority subtournament needs gamma <= 1/2")
    color_list = _index_list(colors, coll.m, "color")
    k = len(color_list)
    # c(u,v) >= c(v,u) iff c(u,v) >= ceil(k/2), since c(u,v) + c(v,u) = k
    wins = _at_least(_vote_planes(coll, color_list), (k + 1) // 2)
    up = np.triu(_unpack_rows(wins, coll.n), 1)
    # below the diagonal u->v iff v->u lost above it: the complement of
    # the transpose
    return Tournament._unchecked(up | np.tril(1 - up.T, -1))


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
    scores = sorted(map(int.bit_count, t.out))
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
