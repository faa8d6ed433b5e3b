"""Polynomial-time constructions behind the rainbow Hamilton path machinery.

Everything here is deterministic given (inputs, seed).  The module covers
degree splitting, H-partitions, the one-spare-color rainbow Hamilton path,
forced-color and forced-set embeddings, rainbow connectivity via color
layering, and the randomized color absorber.

Rédei's insertion step (before the first path vertex the new one beats, or
at the end) is written once, in _insertion_point, and in two-color form,
for the one-spare builder and pipeline.exchange_step, in _spare_insert,
which reads single arcs from the pair bits and builds no out-rows.
"""

from __future__ import annotations

import heapq
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
    _pack_rows,
    _vertex_list,
    induced_collection,
    is_strongly_connected,
    majority_subtournament,
    restrict_colors,
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
    perfect_matching,
)
from .oracle import _arc_masks, _order_masks

__all__ = [
    "HPartition",
    "Absorber",
    "low_degree_count_bound_check",
    "h_partition",
    "tournament_ham_path",
    "rainbow_ham_path_one_spare",
    "rainbow_ham_path_forcing_color",
    "rainbow_ham_path_forcing_set",
    "rainbow_connect_all",
    "build_absorber",
    "absorb",
]


# absorber candidates drawn per build_absorber call
ABSORBER_RETRIES = 20


def _solve_block(tc, colors, vertices, solve, *args):
    """solve(sub, *args), where sub is the collection tc induces on
    vertices and colors, in the order given (vertex k of sub is
    vertices[k], color k is colors[k]); the path comes back in tc's vertex
    and color labels."""
    sub = induced_collection(restrict_colors(tc, colors), vertices)
    p = solve(sub, *args)
    return RainbowPath(
        vertices=tuple(vertices[x] for x in p.vertices),
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


def _split(out: Sequence[int], mask: int, size: int) -> tuple:
    """((in-mask, size), v, (out-mask, size)) of the block mask of size >= 3
    vertices, v the first (lowest) vertex maximizing min(in, out) inside
    it; the scan stops at the bound (size - 1) // 2 (see h_partition)."""
    bound, best, v = (size - 1) // 2, -1, -1
    for u in _bits(mask):
        dout = (out[u] & mask).bit_count()
        score = min(size - 1 - dout, dout)
        if score > best:
            best, v = score, u
            if score == bound:
                break
    beats = mask & out[v]
    k = beats.bit_count()
    return (mask ^ beats ^ 1 << v, size - 1 - k), v, (beats, k)


@dataclass(frozen=True)
class HPartition:
    """Blocks W_1..W_r with separators w_1..w_{r-1}, W_i => {w_i} => W_{i+1}."""

    blocks: tuple[tuple[int, ...], ...]
    separators: tuple[int, ...]
    ell: int

    def vertices(self) -> set[int]:
        return set(self.separators).union(*self.blocks)

    def validate(self, t: Tournament) -> bool:
        """Whether the blocks and separators are disjoint vertices of t, the
        r blocks have r - 1 separators and between ell/6 and ell vertices
        each, and W_i => {w_i} => W_{i+1}: two mask tests on t.out a
        separator."""
        verts = [*self.separators, *itertools.chain(*self.blocks)]
        if (len(set(verts)) < len(verts) or not verts
                or not 0 <= min(verts) <= max(verts) < t.n
                or len(self.separators) != len(self.blocks) - 1):
            return False
        if not all(self.ell <= 6 * len(b) <= 6 * self.ell for b in self.blocks):
            return False
        masks = [sum(1 << u for u in b) for b in self.blocks]
        out = t.out
        return not any(out[w] & masks[i] or masks[i + 1] & ~out[w]
                       for i, w in enumerate(self.separators))


def h_partition(
    t: Tournament,
    ell: int,
    vertices: Optional[Sequence[int]] = None,
) -> HPartition:
    """Refine the trivial one-block partition until every block fits under
    ell, splitting oversized blocks in order (left part, separator, right
    part) with a work stack; a split depends only on its own block.  Every
    block then has between ceil(ell/6) and ell vertices (ell capped at the
    vertex count): a split leaves a sixth of its block or more on each
    side.  vertices, if given, must be one or more distinct vertices of t
    (ints: TypeError, else ValueError).

    Blocks are (vertex mask, size) pairs until final, then ascending
    tuples.  A separator comes from a scan, lowest vertex first, that stops
    at the first vertex whose min(in, out) inside the block reaches
    (size - 1) // 2, which none exceeds: the pick (the first of the most
    balanced) is a full scan's.
    """
    if not (3 <= ell):
        raise ValueError("ell must be at least 3")
    verts = _vertex_list(t.n, range(t.n) if vertices is None else vertices)
    if not verts:
        raise ValueError("need one or more distinct vertices of t")
    ell = min(ell, len(verts))  # the attainable cap the bounds refer to
    blocks, seps = [], []
    stack: list = [(sum(1 << u for u in verts), len(verts))]
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            seps.append(item)
        elif item[1] <= ell:
            blocks.append(tuple(_bits(item[0])))
        else:
            stack += reversed(_split(t.out, *item))
    return HPartition(tuple(blocks), tuple(seps), ell)


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
    v: int,
    c1: int,
    c2: int,
) -> tuple[int, int]:
    """Insert v into the rainbow path (in place) with the unused colors c1,
    c2 before path[k], the first path vertex it beats in either, or at the
    end with c1; returns k and the one color of c1, c2 and the color it
    replaces that the path leaves unused.  The arc v -> path[k] takes c1 if
    it can, else c2.  For k > 0, path[k-1] beats v in both (k is minimal):
    the arc into v takes the other color, freeing the old one.  The scan
    reads c1's arc, then c2's, with has_arc and builds no out-rows."""
    t1, t2 = tc.tournaments[c1], tc.tournaments[c2]
    for k, u in enumerate(path):
        hit = c1 if t1.has_arc(v, u) else c2 if t2.has_arc(v, u) else None
        if hit is not None:
            break
    else:
        path.append(v)
        colors.append(c1)
        return len(path) - 1, c2
    path.insert(k, v)
    colors.insert(k, hit)
    other = c2 if hit == c1 else c1
    if not k:
        return k, other
    colors[k - 1], freed = other, colors[k - 1]
    return k, freed


def tournament_ham_path(
    t: Tournament,
    vertices: Optional[Sequence[int]] = None,
    rng: Optional[np.random.Generator] = None,
) -> list[int]:
    """Hamilton path of a tournament by repeated insertion (Rédei).

    Every tournament has one; each new vertex goes before the first path
    vertex it beats, or at the end.  A generator shuffles the insertion
    order, which is how callers get varied endpoints.  vertices, if
    given, must be distinct vertices of t (ints), else ValueError/TypeError.
    """
    verts = _vertex_list(t.n, range(t.n) if vertices is None else vertices)
    if rng is not None:
        verts = [verts[i] for i in rng.permutation(len(verts))]
    path: list[int] = []
    out = t.out
    for v in verts:
        path.insert(_insertion_point(path, out[v]), v)
    return path


def rainbow_ham_path_one_spare(
    tc: TournamentCollection, stats: Optional[dict] = None
) -> RainbowPath:
    """Rainbow Hamilton path when there is at least one spare color (m >= n).

    Grows the path from vertex 0, inserting vertices 1..n-1 in turn with
    _spare_insert and the two lowest unused colors c1, c2, popped from a
    heap of the unused colors; the color _spare_insert leaves unused goes
    back, so a step costs O(log m) besides its scan.  Callers steer the
    construction by relabelling (_solve_block).
    stats["arc_inspections"] counts the arc reads of _spare_insert's scan,
    which tests c1, then c2, at each path vertex: two per vertex passed and
    one or two at the hit.
    """
    n, m = tc.n, tc.m
    if m < n:
        raise InsufficientColorsError(f"need at least {n} colors, got {m}")
    unused = list(range(m))  # sorted, so already a heap
    inspections = 0
    path = [0]
    colors: list[int] = []
    for v in range(1, n):
        c1, c2 = heapq.heappop(unused), heapq.heappop(unused)
        k, spare = _spare_insert(tc, path, colors, v, c1, c2)
        heapq.heappush(unused, spare)
        inspections += 2 * k
        if k < len(path) - 1:
            inspections += 1 if colors[k] == c1 else 2
    if stats is not None:
        stats["arc_inspections"] = stats.get("arc_inspections", 0) + inspections
    return RainbowPath(vertices=tuple(path), colors=tuple(colors))


# ---------------------------------------------------------------------------
# forced-color embedding


def _is_exceptional(tc: TournamentCollection, i: int) -> bool:
    """One directed triangle against uniformly opposite triangles, n=3:
    every color is one of the two directed triangles (the strongly
    connected tournaments on 3 vertices), and only color i is color i's."""
    ti = tc.tournaments[i]
    return tc.n == 3 and all(is_strongly_connected(t) and (t == ti) == (c == i)
                             for c, t in enumerate(tc.tournaments))


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


def _greedy_colors(
    tc: TournamentCollection, arcs: Sequence[tuple[int, int]], used: set[int]
) -> list[int]:
    """For each arc in turn the lowest color not in used whose tournament
    has it, then added to used; the arcs' color masks come from one
    arc_color_masks call."""
    free = ~sum(1 << c for c in used)
    cols = []
    for (u, v), mask in zip(arcs, tc.arc_color_masks(arcs)):
        mask &= free
        if not mask:
            raise StageFailure(
                "greedy-color", f"no unused color contains arc {u}->{v}"
            )
        c = (mask & -mask).bit_length() - 1
        free ^= 1 << c
        used.add(c)
        cols.append(c)
    return cols


def rainbow_ham_path_forcing_color(
    tc: TournamentCollection, i: int
) -> RainbowPath:
    """Rainbow Hamilton path guaranteed to use an arc of color i (m >= 2n).

    The one excluded configuration (a directed triangle against opposite
    triangles on three vertices) raises ExceptionalConfigurationError.

    Above 7 vertices the majority's top vertex is peeled off, one level per
    loop pass (no recursion, so no recursion limit caps n).
    """
    n, m = tc.n, tc.m
    if n < 2:
        raise ValueError("forcing a color needs at least 2 vertices")
    if m < 2 * n:
        raise InsufficientColorsError(f"need at least {2 * n} colors, got {m}")
    if not (0 <= i < m):
        raise ValueError("color index out of range")
    levels = []  # (collection, v, in-neighbors, out-neighbors) in its labels
    while tc.n > 7:
        tmaj = majority_subtournament(tc)
        v = max(range(tc.n), key=tmaj.out_degree)
        outs = sorted(_bits(tmaj.out[v]))
        assert len(outs) >= 4
        levels.append((tc, v, sorted(_bits(tmaj.in_mask(v))), outs))
        tc = induced_collection(tc, outs)
    p = _forcing_color_base(tc, i)
    if p is None and _is_exceptional(tc, i):
        raise ExceptionalConfigurationError(
            "a directed triangle against opposite triangles has no "
            "rainbow Hamilton path through the odd color"
        )
    if p is None:
        raise StageFailure("forcing-color", "exhaustive base case found no path")
    for tc, v, ins, outs in reversed(levels):
        used = set(p.colors)
        path = (v, *(outs[x] for x in p.vertices))
        colors = (*_greedy_colors(tc, [(v, path[1])], used), *p.colors)
        if ins:
            free = [c for c in range(m) if c not in used]
            q = _solve_block(tc, free, ins, rainbow_ham_path_one_spare)
            used.update(q.colors)
            link = _greedy_colors(tc, [(q.vertices[-1], v)], used)
            path = (*q.vertices, *path)
            colors = (*q.colors, *link, *colors)
        p = RainbowPath(vertices=path, colors=colors)
    return p


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
    for w in range(n) if len(forced) >= 2 else ():
        for x, y in ((u, w), (w, v)) if w not in (u, v) else ():
            if sum(tc.tournaments[b].has_arc(x, y) for b in forced) < 2:
                raise ValueError(
                    f"arc {x}->{y} has fewer than two forced choices")

    middle = [w for w in range(n) if w not in (u, v)]
    hp = h_partition(majority_subtournament(tc), 24, vertices=middle)
    # each forced color is embedded inside its own block
    if len(forced) > len(hp.blocks):
        raise StageFailure(
            "forcing-set", "more forced colors than blocks to host them"
        )
    used: set[int] = set(forced)
    free = iter([c for c in range(m) if c not in used])
    paths: list[RainbowPath] = []
    for k, block in enumerate(hp.blocks):
        size = 2 * len(block) - 1 if k < len(forced) else len(block) + 1
        budget = list(itertools.islice(free, size))
        if len(budget) < size:
            raise StageFailure("forcing-set", "free color pool exhausted")
        if k < len(forced):  # the forced color goes last in the budget
            p = _solve_block(tc, budget + [forced[k]], block,
                             rainbow_ham_path_forcing_color, size)
        else:
            p = _solve_block(tc, budget, block, rainbow_ham_path_one_spare)
        used.update(p.colors)
        paths.append(p)

    # u, block 0, separator 0, ..., v: every forced color is in used from
    # the start, so the arcs between blocks take fresh colors in path order
    verts = [u]
    for k, p in enumerate(paths):
        verts += [*p.vertices, *hp.separators[k:k + 1]]
    verts.append(v)
    inner = {a: c for p in paths
             for a, c in zip(zip(p.vertices, p.vertices[1:]), p.colors)}
    arcs = list(zip(verts, verts[1:]))
    links = iter(_greedy_colors(tc, [a for a in arcs if a not in inner], used))
    cols = [inner[a] if a in inner else next(links) for a in arcs]
    return RainbowPath(vertices=tuple(verts), colors=tuple(cols))


# ---------------------------------------------------------------------------
# rainbow connectivity via color layering


def _layering(tc: TournamentCollection, x: int):
    """Grow L_c by the T_c-out-neighbors of L_{c-1}; record first entries."""
    full = (1 << tc.n) - 1
    reached = 1 << x
    entry: dict[int, tuple[int, int]] = {}
    for c, t in enumerate(tc.tournaments):
        if reached == full:
            break
        out = t.out
        grow = 0
        for uu in _bits(reached):
            grow |= out[uu] & ~reached
        if grow == 0:
            raise NoProgressError(c)
        for vv in _bits(grow):
            first = reached & ~out[vv]  # vv, unreached, is no in-neighbour
            entry[vv] = ((first & -first).bit_length() - 1, c)
        reached |= grow
    if reached != full:
        raise NoProgressError(tc.m - 1)
    return entry


def _walk_back(entry: dict[int, tuple[int, int]], x: int, y: int) -> RainbowPath:
    verts, cols = [y], []
    while verts[-1] != x:
        prev, c = entry[verts[-1]]
        verts.append(prev)
        cols.append(c)
    return RainbowPath(vertices=tuple(reversed(verts)),
                       colors=tuple(reversed(cols)))


def rainbow_connect_all(
    tc: TournamentCollection, x: int
) -> dict[int, RainbowPath]:
    """Ascending-color rainbow paths from x to every other vertex, one pass."""
    if not 0 <= x < tc.n:
        raise ValueError(f"vertex {x} is outside 0..{tc.n - 1}")
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

    Up to ABSORBER_RETRIES candidate pairs A and C are drawn at random from
    avail_colors (colors of tc; a repeated target arc or another color is a
    ValueError); acceptance checks that A plus ell-subsets C' of C match the
    target arcs perfectly.  The arcs' color masks and the colors' arc masks
    are packed from one gather of the arcs' pair bits.  Only existence is
    asked, so free colors are taken before any augmenting path is searched.
    A's colors are pushed first into an IncrementalMatcher with colors as
    slots; a perfect matching with A plus C' uses all of A, so a rejected
    push rejects the candidate with no probe.  If C has at most 10^4 subsets
    and there are fewer arc sets, Hall's condition over the arc sets checks
    them all at once.  Otherwise one perfect_matching per top-up set,
    started from A's matching with the ell top-up slots open, checks every
    subset (at most 10^4) or only C's ell lowest-degree colors (fewest
    target arcs served; ties in C's order), and the first set that fails
    rejects the candidate; absorb() checks the top-up set it is given.
    """
    target_arcs = tuple(target_arcs)
    if len(set(target_arcs)) < len(target_arcs):
        arc = next(a for a in target_arcs if target_arcs.count(a) > 1)
        raise ValueError(f"target arc {arc} is repeated")
    if len(target_arcs) < ell:
        raise ValueError("need at least ell target arcs")
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if c_size < ell:
        raise ValueError("C needs at least ell colors")
    avail_colors = list(dict.fromkeys(avail_colors))
    for c in avail_colors:
        if not 0 <= c < tc.m:
            raise ValueError(f"color {c} is outside 0..{tc.m - 1}")
    a_size = len(target_arcs) - ell
    if a_size + c_size > len(avail_colors):
        raise AbsorberConstructionError(
            "not enough available colors for the requested A and C sizes"
        )
    block = tc._arc_bits(target_arcs)
    avail, serves = _pack_rows(block.T), _pack_rows(block)
    for attempt in range(ABSORBER_RETRIES):
        rng = np.random.default_rng([seed, attempt])
        picked = rng.permutation(len(avail_colors))
        acand = tuple(
            sorted(avail_colors[i] for i in picked[:a_size])
        )
        ccand = tuple(
            sorted(avail_colors[i] for i in picked[a_size:a_size + c_size])
        )
        if _verify_absorber(len(avail), serves, acand, ccand, ell):
            return Absorber(acand, ccand, target_arcs, ell, avail)
    raise AbsorberConstructionError(
        f"no candidate survived verification after {ABSORBER_RETRIES} "
        "attempts"
    )


def _verify_absorber(k, serves, acand, ccand, ell) -> bool:
    """build_absorber's check: serves[c] masks the k target arcs of c."""
    matcher = IncrementalMatcher()  # colors are its slots, arcs its colors
    amasks = [serves[c] for c in acand]
    for mask in amasks:
        if not matcher.push(mask):
            return False
    cmasks = [serves[c] for c in ccand]
    subsets = math.comb(len(ccand), ell)
    if 1 << k < subsets <= 10_000:
        return _hall_every_topup(k, amasks, cmasks, ell)
    # past 10^4 subsets only the hardest top-up set is tried: the ell colors
    # of minimum degree (the number of target arcs a color can serve)
    tops = (itertools.combinations(cmasks, ell) if subsets <= 10_000
            else [sorted(cmasks, key=int.bit_count)[:ell]])
    start = matcher.match_of_slot + [-1] * ell
    return all(perfect_matching(matcher.avail + list(top), start=start)
               is not None for top in tops)


def _hall_every_topup(k, amasks, cmasks, ell) -> bool:
    """Whether A plus every ell-subset of C matches the k target arcs,
    by Hall's condition over the 2^k arc sets X, with no matching.

    amasks and cmasks mask the arcs each color of A and C serves, and
    |A| + ell = k.  For a fixed C', a perfect matching exists iff every X
    has |N(X)| >= |X|; the C' that is worst for X first takes the colors
    of C serving no arc of X.  So every C' matches iff, for every X,
    |N_A(X)| + max(0, ell - #{c in C serving no arc of X}) >= |X|.
    Callers keep k <= 13, so int16 holds every arc set and count.
    """
    xs = np.arange(1 << k, dtype=np.int16)
    need = np.zeros(len(xs), np.int16)  # |X| - |N_A(X)|
    for b in range(k):
        need += (xs >> b) & 1
    for mask in amasks:
        need -= (xs & mask) != 0
    idle = np.zeros(len(xs), np.int16)  # colors of C serving no arc of X
    for mask in cmasks:
        idle += (xs & mask) == 0
    return bool(np.all(need <= np.maximum(ell - idle, 0)))


def absorb(absorber: Absorber, cprime: Iterable[int]) -> ColoredDigraph:
    """Rainbow coloring of the target arcs using exactly A plus C'."""
    cprime = sorted(set(cprime))
    if len(cprime) != absorber.ell or not set(cprime) <= set(absorber.C):
        raise AbsorptionFailedError(
            "C' must be an ell-subset of the absorber's C"
        )
    if len(absorber.A) != len(absorber.target_arcs) - absorber.ell:
        raise AbsorptionFailedError("absorber cardinalities are inconsistent")
    allow = sum(1 << c for c in {*absorber.A, *cprime})
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
