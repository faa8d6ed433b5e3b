"""Polynomial-time constructions behind the rainbow Hamilton path machinery.

Everything here is deterministic given (inputs, seed).  The module covers
degree splitting, H-partitions, the one-spare-color rainbow Hamilton path,
forced-color and forced-set embeddings, rainbow connectivity via color
layering, and the randomized color absorber.

Rédei's insertion step (before the first path vertex the new one beats, or
at the end) is written once, in _insertion_point, and in two-color form,
for the one-spare builder and pipeline.exchange_step, in _spare_insert.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    ColoredDigraph,
    RainbowPath,
    Tournament,
    TournamentCollection,
    _bits,
    induced_collection,
    majority_subtournament,
)
from .errors import (
    AbsorberConstructionError,
    AbsorptionFailedError,
    ExceptionalConfigurationError,
    InsufficientColorsError,
    NoProgressError,
    StageFailure,
)
from .matching import (
    IncrementalMatcher,
    matching_with_forced_colors,
    max_matching,
    perfect_matching,
)
from .oracle import _arc_masks, _order_masks

__all__ = [
    "HPartition",
    "Absorber",
    "low_degree_count_bound_check",
    "split_block",
    "h_partition",
    "tournament_ham_path",
    "rainbow_ham_path_one_spare",
    "rainbow_ham_path_forcing_color",
    "rainbow_ham_path_forcing_set",
    "rainbow_connect",
    "rainbow_connect_all",
    "build_absorber",
    "absorb",
    "restrict_colors",
]


# absorber candidates drawn per build_absorber call
ABSORBER_RETRIES = 20


def restrict_colors(
    tc: TournamentCollection, colors: Sequence[int]
) -> TournamentCollection:
    """Sub-collection keeping only the given colors, in the given order.

    Color k of the result is original color colors[k]."""
    return tc._select(colors)


def _solve_block(tc, colors, vertices, solve, *args, **kwargs):
    """solve(sub, *args, **kwargs), where sub is the collection tc induces
    on vertices (in ascending order) and colors (color k of sub is
    colors[k]); the path comes back in tc's vertex and color labels."""
    verts = sorted(vertices)
    sub, _ = induced_collection(restrict_colors(tc, colors), verts)
    p = solve(sub, *args, **kwargs)
    return RainbowPath(
        vertices=tuple(verts[x] for x in p.vertices),
        colors=tuple(colors[c] for c in p.colors),
    )


# ---------------------------------------------------------------------------
# degree counting and block splitting


def low_degree_count_bound_check(t: Tournament, d: int) -> bool:
    """True iff at most 2d+1 vertices have in-degree <= d and likewise for
    out-degree.  Always true for tournaments; exposed as a test predicate."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    lo_in = sum(1 for v in range(t.n) if t.in_degree(v) <= d)
    lo_out = sum(1 for v in range(t.n) if t.out_degree(v) <= d)
    return lo_in <= 2 * d + 1 and lo_out <= 2 * d + 1


def split_block(
    t: Tournament, block: Sequence[int]
) -> tuple[list[int], int, list[int]]:
    """Split a vertex set around a vertex seeing >= |W|/6 of it on each side.

    Returns (in-neighbors, v, out-neighbors) within the block; the chosen v
    maximizes min(in-degree, out-degree) inside the block.
    """
    block = sorted(block)
    if len(block) < 3:
        raise ValueError("blocks of size < 3 cannot be split")
    mask = 0
    for u in block:
        mask |= 1 << u
    best_v = -1
    best_min = -1
    out = t.out
    for v in block:
        dout = (out[v] & mask).bit_count()
        # v meets the other len(block) - 1 vertices, losing to the rest
        lo = min(len(block) - 1 - dout, dout)
        if lo > best_min:
            best_min = lo
            best_v = v
    v = best_v
    beats = out[v]
    wminus = [u for u in block if u != v and not (beats >> u) & 1]
    wplus = [u for u in block if (beats >> u) & 1]
    return wminus, v, wplus


@dataclass(frozen=True)
class HPartition:
    """Blocks W_1..W_r with separators w_1..w_{r-1}, W_i => {w_i} => W_{i+1}."""

    blocks: tuple[tuple[int, ...], ...]
    separators: tuple[int, ...]
    ell: int

    @property
    def r(self) -> int:
        return len(self.blocks)

    def vertices(self) -> set[int]:
        out = set(self.separators)
        for b in self.blocks:
            out.update(b)
        return out

    def validate(self, t: Tournament) -> bool:
        parts = [set(b) for b in self.blocks]
        seen: set[int] = set()
        for p in parts + [set(self.separators)]:
            if p & seen:
                return False
            seen |= p
        if len(set(self.separators)) != len(self.separators):
            return False
        for b in self.blocks:
            if not (self.ell <= 6 * len(b) <= 6 * self.ell):
                return False
        for i, w in enumerate(self.separators):
            if any(not t.has_arc(u, w) for u in self.blocks[i]):
                return False
            if any(not t.has_arc(w, u) for u in self.blocks[i + 1]):
                return False
        return True


def h_partition(
    t: Tournament,
    ell: int,
    vertices: Optional[Sequence[int]] = None,
) -> HPartition:
    """Refine the trivial one-block partition until every block fits under
    ell, splitting a largest oversized block each round.

    Every block then has between ceil(ell/6) and ell vertices (ell capped
    at the vertex count): split_block leaves at least a sixth of a block
    on each side of its separator.
    """
    verts = list(vertices) if vertices is not None else list(range(t.n))
    if not (3 <= ell):
        raise ValueError("ell must be at least 3")
    # a cap beyond the vertex count means the trivial one-block partition;
    # record the attainable cap so the block-size bounds refer to it
    ell = min(ell, len(verts))
    blocks: list[list[int]] = [verts]
    seps: list[int] = []
    while True:
        idx = max(range(len(blocks)), key=lambda i: len(blocks[i]))
        if len(blocks[idx]) <= ell:
            break
        wminus, v, wplus = split_block(t, blocks[idx])
        blocks[idx:idx + 1] = [wminus, wplus]
        seps.insert(idx, v)
    return HPartition(tuple(tuple(b) for b in blocks), tuple(seps), ell)


# ---------------------------------------------------------------------------
# one-spare-color rainbow Hamilton path


def _insertion_point(path: Sequence[int], beaten: int) -> int:
    """First k with path[k] in the vertex mask beaten, else len(path)."""
    for k, u in enumerate(path):
        if (beaten >> u) & 1:
            return k
    return len(path)


def _spare_insert(
    tc: TournamentCollection,
    path: list[int],
    colors: list[int],
    used: set[int],
    v: int,
    c1: int,
    c2: int,
) -> int:
    """Insert v into the rainbow path (in place, used kept up to date) with
    the unused colors c1, c2 before path[k], the first path vertex it beats
    in either, or at the end with c1; returns k.  The arc v -> path[k] takes
    c1 if it can, else c2.  For k > 0, path[k-1] beats v in both (k is
    minimal): the arc into v takes the other color, freeing the old one."""
    out1 = tc.tournaments[c1].out[v]
    k = _insertion_point(path, out1 | tc.tournaments[c2].out[v])
    if k == len(path):
        path.append(v)
        colors.append(c1)
        used.add(c1)
        return k
    hit, other = (c1, c2) if (out1 >> path[k]) & 1 else (c2, c1)
    path.insert(k, v)
    if k:
        used.discard(colors[k - 1])
        colors[k - 1] = other
        used.add(other)
    colors.insert(k, hit)
    used.add(hit)
    return k


def tournament_ham_path(
    t: Tournament,
    vertices: Optional[Sequence[int]] = None,
    rng: Optional[np.random.Generator] = None,
) -> list[int]:
    """Hamilton path of a tournament by repeated insertion (Rédei).

    Every tournament has one; each new vertex goes before the first path
    vertex it beats, or at the end.  A generator shuffles the insertion
    order, which is how callers get varied endpoints.
    """
    verts = list(vertices) if vertices is not None else list(range(t.n))
    if rng is not None:
        verts = [verts[i] for i in rng.permutation(len(verts))]
    path: list[int] = []
    out = t.out
    for v in verts:
        path.insert(_insertion_point(path, out[v]), v)
    return path


def rainbow_ham_path_one_spare(
    tc: TournamentCollection,
    stats: Optional[dict] = None,
    vertex_order: Optional[Sequence[int]] = None,
    color_order: Optional[Sequence[int]] = None,
) -> RainbowPath:
    """Rainbow Hamilton path when there is at least one spare color (m >= n).

    Grows the path one vertex at a time with _spare_insert and the first
    two unused colors c1, c2 of the color order.  stats["arc_inspections"]
    counts the arc checks of a scan testing c1, then c2, at each path
    vertex: two per vertex passed and one or two at the hit.
    """
    n, m = tc.n, tc.m
    if m < n:
        raise InsufficientColorsError(
            f"need at least {n} colors, got {m}"
        )
    vorder = list(vertex_order) if vertex_order is not None else list(range(n))
    corder = list(color_order) if color_order is not None else list(range(m))
    inspections = 0
    path = [vorder[0]]
    colors: list[int] = []
    used: set[int] = set()
    for v in vorder[1:]:
        c1, c2 = [c for c in corder if c not in used][:2]
        k = _spare_insert(tc, path, colors, used, v, c1, c2)
        inspections += 2 * k
        if k < len(path) - 1:
            inspections += 1 if colors[k] == c1 else 2
    if stats is not None:
        stats["arc_inspections"] = stats.get("arc_inspections", 0) + inspections
    return RainbowPath(vertices=tuple(path), colors=tuple(colors))


# ---------------------------------------------------------------------------
# forced-color embedding


def _is_exceptional(tc: TournamentCollection, i: int) -> bool:
    """One directed triangle against uniformly opposite triangles, n=3."""
    if tc.n != 3:
        return False
    ti = tc.tournaments[i]
    if not _is_directed_triangle(ti):
        return False
    rev = _reverse_tournament(ti)
    return all(
        t == rev for c, t in enumerate(tc.tournaments) if c != i
    )


def _is_directed_triangle(t: Tournament) -> bool:
    return t.n == 3 and all(t.out_degree(v) == 1 for v in range(3))


def _reverse_tournament(t: Tournament) -> Tournament:
    return Tournament.from_arcs(
        t.n, [(v, u) for (u, v) in t.arcs()]
    )


def _forcing_color_base(
    tc: TournamentCollection, i: int
) -> Optional[RainbowPath]:
    """Exhaustive search for a rainbow Hamilton path using color i (n <= 7)."""
    masks = _arc_masks(tc)
    for perm in itertools.permutations(range(tc.n)):
        avail = _order_masks(masks, perm, cyclic=False)
        if avail is None or not any((a >> i) & 1 for a in avail):
            continue
        got = matching_with_forced_colors(avail, [i])
        if got is not None:
            return RainbowPath(vertices=tuple(perm), colors=tuple(got))
    return None


def _fresh_color_for_arc(
    tc: TournamentCollection, u: int, v: int, used: set[int]
) -> int:
    for c in range(tc.m):
        if c not in used and tc.tournaments[c].has_arc(u, v):
            return c
    raise StageFailure(
        "greedy-color", f"no unused color contains arc {u}->{v}"
    )


def rainbow_ham_path_forcing_color(
    tc: TournamentCollection, i: int
) -> RainbowPath:
    """Rainbow Hamilton path guaranteed to use an arc of color i (m >= 2n).

    The one excluded configuration (a directed triangle against opposite
    triangles on three vertices) raises ExceptionalConfigurationError.
    """
    n, m = tc.n, tc.m
    if n < 2:
        raise ValueError("forcing a color needs at least 2 vertices")
    if m < 2 * n:
        raise InsufficientColorsError(f"need at least {2 * n} colors, got {m}")
    if not (0 <= i < m):
        raise ValueError("color index out of range")
    if n <= 7:
        got = _forcing_color_base(tc, i)
        if got is not None:
            return got
        if _is_exceptional(tc, i):
            raise ExceptionalConfigurationError(
                "a directed triangle against opposite triangles has no "
                "rainbow Hamilton path through the odd color"
            )
        raise StageFailure("forcing-color", "exhaustive base case found no path")
    tmaj = majority_subtournament(tc)
    v = max(range(n), key=tmaj.out_degree)
    outs = sorted(_bits(tmaj.out[v]))
    ins = sorted(_bits(tmaj.in_mask(v)))
    assert len(outs) >= 4
    p = _solve_block(tc, range(m), outs, rainbow_ham_path_forcing_color, i)
    path = list(p.vertices)
    colors = list(p.colors)
    used = set(colors)
    c = _fresh_color_for_arc(tc, v, path[0], used)
    path.insert(0, v)
    colors.insert(0, c)
    used.add(c)
    if ins:
        free = [c for c in range(m) if c not in used]
        q = _solve_block(tc, free, ins, rainbow_ham_path_one_spare)
        used.update(q.colors)
        c2 = _fresh_color_for_arc(tc, q.vertices[-1], path[0], used)
        path = list(q.vertices) + path
        colors = list(q.colors) + [c2] + colors
    return RainbowPath(vertices=tuple(path), colors=tuple(colors))


# ---------------------------------------------------------------------------
# forced-set embedding


def rainbow_ham_path_forcing_set(
    tc: TournamentCollection, forced: Sequence[int], u: int, v: int
) -> RainbowPath:
    """Rainbow Hamilton path from u to v using every forced color.

    Preconditions: n >= 25, m >= 4n, |forced| <= n/25, and each arc u->w and
    w->v lies in tournaments of at least two forced colors.
    """
    n, m = tc.n, tc.m
    forced = list(dict.fromkeys(forced))
    if n < 25:
        raise ValueError("forcing a color set needs n >= 25")
    if m < 4 * n:
        raise InsufficientColorsError(f"need at least {4 * n} colors, got {m}")
    if len(forced) > n / 25:
        raise ValueError("at most n/25 forced colors are allowed")
    if u == v:
        raise ValueError("endpoints must differ")
    if len(forced) >= 2:
        for w in range(n):
            if w in (u, v):
                continue
            into = sum(1 for b in forced if tc.tournaments[b].has_arc(u, w))
            outof = sum(1 for b in forced if tc.tournaments[b].has_arc(w, v))
            if into < 2:
                raise ValueError(
                    f"arc {u}->{w} has fewer than two forced choices"
                )
            if outof < 2:
                raise ValueError(
                    f"arc {w}->{v} has fewer than two forced choices"
                )

    middle = [w for w in range(n) if w not in (u, v)]
    tmaj = majority_subtournament(tc)
    hp = h_partition(tmaj, 24, vertices=middle)
    blocks = [list(b) for b in hp.blocks]
    seps = list(hp.separators)
    r = len(blocks)

    used: set[int] = set(forced)
    free_pool = [c for c in range(m) if c not in used]
    pool_at = 0

    def take(k: int) -> list[int]:
        nonlocal pool_at
        got = free_pool[pool_at:pool_at + k]
        if len(got) < k:
            raise StageFailure("forcing-set", "free color pool exhausted")
        pool_at += k
        return got

    def block_path(bverts: list[int], force: Optional[int]) -> RainbowPath:
        if force is None:
            return _solve_block(tc, take(len(bverts) + 1), bverts,
                                rainbow_ham_path_one_spare)
        budget = take(2 * len(bverts) - 1) + [force]
        return _solve_block(tc, budget, bverts,
                            rainbow_ham_path_forcing_color, len(budget) - 1)

    # each forced color is embedded inside its own block; the u and v arcs
    # are colored last, preferring leftover forced colors when they fit
    if len(forced) > r:
        raise StageFailure(
            "forcing-set", "more forced colors than blocks to host them"
        )
    paths: list[RainbowPath] = []
    for k in range(r):
        force = forced[k] if k < len(forced) else None
        p = block_path(blocks[k], force)
        used.update(p.colors)
        paths.append(p)

    verts = [u]
    c_start = _fresh_color_for_arc(tc, u, paths[0].vertices[0], used)
    used.add(c_start)
    cols = [c_start]
    for k, p in enumerate(paths):
        verts.extend(p.vertices)
        cols.extend(p.colors)
        if k < r - 1:
            w = seps[k]
            c1 = _fresh_color_for_arc(tc, p.vertices[-1], w, used)
            used.add(c1)
            c2 = _fresh_color_for_arc(tc, w, paths[k + 1].vertices[0], used)
            used.add(c2)
            verts.append(w)
            cols.extend((c1, c2))
    c_end = _fresh_color_for_arc(tc, paths[-1].vertices[-1], v, used)
    used.add(c_end)
    verts.append(v)
    cols.append(c_end)
    return RainbowPath(vertices=tuple(verts), colors=tuple(cols))


# ---------------------------------------------------------------------------
# rainbow connectivity via color layering


def _layering(tc: TournamentCollection, x: int):
    """Grow L_c by the T_c-out-neighbors of L_{c-1}; record first entries."""
    n = tc.n
    reached = 1 << x
    entry: dict[int, tuple[int, int]] = {}
    for c in range(tc.m):
        t = tc.tournaments[c]
        out = t.out
        grow = 0
        for uu in _bits(reached):
            grow |= out[uu] & ~reached
        if grow == 0:
            if reached == (1 << n) - 1:
                break
            raise NoProgressError(c)
        for vv in _bits(grow):
            first = t.in_mask(vv) & reached
            entry[vv] = ((first & -first).bit_length() - 1, c)
        reached |= grow
        if reached == (1 << n) - 1:
            break
    if reached != (1 << n) - 1:
        raise NoProgressError(tc.m - 1)
    return entry


def _walk_back(entry: dict[int, tuple[int, int]], x: int, y: int) -> RainbowPath:
    verts = [y]
    cols: list[int] = []
    cur = y
    while cur != x:
        prev, c = entry[cur]
        cols.append(c)
        verts.append(prev)
        cur = prev
    verts.reverse()
    cols.reverse()
    return RainbowPath(vertices=tuple(verts), colors=tuple(cols))


def rainbow_connect(tc: TournamentCollection, x: int, y: int) -> RainbowPath:
    """Rainbow path from x to y with strictly increasing colors.

    Layer L_c adds the T_c-out-neighbors of the previous layer; with every
    color strongly connected the layers strictly grow, and walking back
    through first-entry records gives ascending colors.
    """
    if x == y:
        raise ValueError("endpoints must differ")
    entry = _layering(tc, x)
    return _walk_back(entry, x, y)


def rainbow_connect_all(
    tc: TournamentCollection, x: int
) -> dict[int, RainbowPath]:
    """Rainbow paths from x to every other vertex, one layering pass."""
    entry = _layering(tc, x)
    return {
        y: _walk_back(entry, x, y) for y in range(tc.n) if y != x
    }


# ---------------------------------------------------------------------------
# color absorber


@dataclass(frozen=True)
class Absorber:
    """Color reservoir: target arcs match perfectly against A plus any
    ell-subset of C."""

    A: tuple[int, ...]
    C: tuple[int, ...]
    target_arcs: tuple[tuple[int, int], ...]
    ell: int
    avail: tuple[int, ...]  # availability bitmask per target arc


def build_absorber(
    tc: TournamentCollection,
    target_arcs: Sequence[tuple[int, int]],
    avail_colors: Sequence[int],
    ell: int,
    c_size: int,
    seed: int = 0,
) -> Absorber:
    """Randomized absorber construction with a verification schedule.

    Up to ABSORBER_RETRIES candidate pairs A and C are drawn at random;
    acceptance checks perfect matchings for ell-subsets C' of C.  When
    there are at most 10^4 of them, all are checked in one depth-first
    walk of the ell-subset combination tree on an IncrementalMatcher with
    colors as slots: one augmentation per tree node, and a rejected prefix
    rejects at once.
    Otherwise random plus adversarial (minimum-degree) probes are checked,
    so acceptance is probabilistic; absorb() re-verifies.  The probes are
    warm-started from one matching of A into the target arcs (augmenting
    paths keep matched arcs matched).  A perfect matching with A plus C'
    uses all of A, so if A alone cannot be matched the candidate is
    rejected without probes.
    """
    target_arcs = tuple(target_arcs)
    if len(target_arcs) < ell:
        raise ValueError("need at least ell target arcs")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if c_size < ell:
        raise ValueError("C needs at least ell colors")
    avail_colors = list(dict.fromkeys(avail_colors))
    a_size = len(target_arcs) - ell
    if a_size + c_size > len(avail_colors):
        raise AbsorberConstructionError(
            "not enough available colors for the requested A and C sizes"
        )
    avail = tuple(
        tc.arc_color_mask(u, v) for (u, v) in target_arcs
    )
    for attempt in range(ABSORBER_RETRIES):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, attempt]))
        )
        picked = rng.permutation(len(avail_colors))
        acand = tuple(
            sorted(avail_colors[i] for i in picked[:a_size])
        )
        ccand = tuple(
            sorted(avail_colors[i] for i in picked[a_size:a_size + c_size])
        )
        a_mask = sum(1 << c for c in acand)
        if _verify_absorber(avail, a_mask, ccand, ell, rng):
            return Absorber(acand, ccand, target_arcs, ell, avail)
    raise AbsorberConstructionError(
        f"no candidate survived verification after {ABSORBER_RETRIES} "
        "attempts"
    )


def _verify_absorber(avail, a_mask, ccand, ell, rng) -> bool:
    base = max_matching([av & a_mask for av in avail])
    if len(base) - base.count(-1) < a_mask.bit_count():
        return False
    if math.comb(len(ccand), ell) <= 10_000:
        return _every_topup_matches(avail, a_mask, ccand, ell)

    def matching_ok(cset: Iterable[int]) -> bool:
        allow = a_mask | sum(1 << c for c in cset)
        masks = [av & allow for av in avail]
        return perfect_matching(masks, start=base) is not None

    # degree of a color = number of target arcs it can serve; the colors of
    # minimum degree make the hardest top-up set
    degs = sorted(
        ccand, key=lambda c: sum(1 for av in avail if (av >> c) & 1)
    )
    if not matching_ok(degs[:ell]):
        return False
    for _ in range(200):
        cs = rng.choice(len(ccand), size=ell, replace=False)
        if not matching_ok([ccand[i] for i in cs]):
            return False
    return True


def _every_topup_matches(avail, a_mask, ccand, ell) -> bool:
    """Whether A plus every ell-subset of C matches the target arcs.

    Colors are the matcher's slots, each masking the arcs it can serve;
    with |A| + ell target arcs a color-saturating matching is a perfect
    one.  A is pushed once, then the ell-subsets of C are walked depth
    first as a combination tree, C in ascending order: one push per tree
    node and a pop on backtrack.  Every node extends to an ell-subset, so
    a rejected push fails the whole check.
    """
    def arcs_of(c: int) -> int:
        return sum(1 << k for k, av in enumerate(avail) if (av >> c) & 1)

    matcher = IncrementalMatcher()
    for c in _bits(a_mask):
        if not matcher.push(arcs_of(c)):
            return False
    cmasks = [arcs_of(c) for c in ccand]
    spare = len(ccand) - ell  # a node at depth d picks an index <= spare + d
    picked: list[int] = []
    i = 0
    while True:
        depth = len(picked)
        if depth < ell and i <= spare + depth:
            if not matcher.push(cmasks[i]):
                return False
            picked.append(i)
            i += 1
        elif picked:
            matcher.pop()
            i = picked.pop() + 1
        else:
            return True


def absorb(absorber: Absorber, cprime: Iterable[int]) -> ColoredDigraph:
    """Rainbow coloring of the target arcs using exactly A plus C'."""
    cprime = sorted(set(cprime))
    if len(cprime) != absorber.ell or not set(cprime) <= set(absorber.C):
        raise AbsorptionFailedError(
            "C' must be an ell-subset of the absorber's C"
        )
    if len(absorber.A) != len(absorber.target_arcs) - absorber.ell:
        raise AbsorptionFailedError("absorber cardinalities are inconsistent")
    allow = 0
    for c in list(absorber.A) + cprime:
        allow |= 1 << c
    masks = [av & allow for av in absorber.avail]
    got = perfect_matching(masks)
    if got is None:
        raise AbsorptionFailedError(
            "no rainbow coloring with this top-up set"
        )
    return ColoredDigraph(
        tuple(
            (u, v, got[k])
            for k, (u, v) in enumerate(absorber.target_arcs)
        )
    )
