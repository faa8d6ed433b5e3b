"""Exact search for transversal Hamilton paths and cycles.

Two independent engines share one entry, ``_exact``, which starts the
budget and answers NotExists when too few colors or vertices
(``_too_few``) rule the witness out.  Both read masks[u][v], the colors
with the arc u->v, which ``_arc_masks`` builds from the packed pair rows
at most ``_CHUNK_BYTES`` unpacked pair bits at a time: each pair's color
bits are packed into the mask of its forward arc, and the reverse arc
takes the other colors.  The fast one, ``_backtrack``, runs
both the path and the cycle search depth first on an explicit stack (no
recursion limit caps the instance size), pruning with an incremental
arcs-vs-colors matching; one perfect_matching colors the witness it
accepts.  ``nodes_expanded`` counts the vertex sequences it enters.  A
cycle search on n >= 4 vertices first tries the chain-cut bound
(``_cuts_unmet``) in index and in score order, which can answer NotExists
at the root with no node expanded; at n = 3 the two anchored orders left
cost less than the check.  The slow one enumerates vertex permutations
outright and asks for one matching per permutation, with no bound, so that
agreement between the two on small instances, which the test suite leans
on, stays a check of the bound too.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    RainbowCycle,
    RainbowPath,
    TournamentCollection,
    _bits,
    _pack_rows,
)
from .matching import IncrementalMatcher, perfect_matching

__all__ = [
    "SearchBudget",
    "OracleOutcome",
    "exact_transversal_ham_path",
    "exact_transversal_ham_cycle",
    "exact_transversal_ham_path_perm",
    "exact_transversal_ham_cycle_perm",
    "count_transversal_ham_paths",
]

FOUND = "Found"
NOT_EXISTS = "NotExists"
BUDGET_EXHAUSTED = "BudgetExhausted"

_CHUNK_BYTES = 1 << 20  # or one pair byte's 8 * m bits, when more


class _BudgetExceeded(Exception):
    pass


@dataclass
class SearchBudget:
    """Node / wall-clock limits for exact search.  None means unlimited; a
    negative or NaN limit raises ValueError."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None
    nodes: int = field(default=0, init=False)
    _deadline: Optional[float] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        for limit in (self.max_nodes, self.max_seconds):
            if limit is not None and not limit >= 0:  # NaN compares False
                raise ValueError(
                    f"a search budget cannot be negative or NaN: {limit}")

    def start(self) -> None:
        self.nodes = 0
        if self.max_seconds is not None:
            self._deadline = time.monotonic() + self.max_seconds

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExceeded
        if self._deadline is not None and (self.nodes & 0x3FF) == 0:
            if time.monotonic() > self._deadline:
                raise _BudgetExceeded


@dataclass
class OracleOutcome:
    """Result of an exact search.

    status is one of ``Found``, ``NotExists``, ``BudgetExhausted``.
    witness carries the path or cycle when status is Found.  notes is free
    text (e.g. which precondition was unmet).
    """

    status: str
    witness: Optional[RainbowPath | RainbowCycle] = None
    nodes_expanded: int = 0
    millis: float = 0.0
    notes: str = ""

    @property
    def found(self) -> bool:
        return self.status == FOUND

    def to_json(self) -> dict:
        wit = None
        if self.witness is not None:
            w = self.witness
            wit = {
                "vertices": list(w.vertices),
                "colors": list(w.colors),
                "kind": "cycle" if isinstance(w, RainbowCycle) else "path",
            }
        return {
            "status": self.status,
            "witness": wit,
            "nodes_expanded": self.nodes_expanded,
            "millis": round(self.millis, 3),
            "notes": self.notes,
        }


def _outcome(
    t0: float,
    status: str,
    witness: Optional[RainbowPath | RainbowCycle] = None,
    nodes: int = 0,
    notes: str = "",
) -> OracleOutcome:
    """An outcome timed from t0 (a time.perf_counter() reading)."""
    return OracleOutcome(
        status, witness, nodes, (time.perf_counter() - t0) * 1e3, notes
    )


def _arc_masks(tc: TournamentCollection) -> list[list[int]]:
    """masks[u][v] = bitmask of colors whose tournament has the arc u->v."""
    step = max(1, _CHUNK_BYTES // (8 * tc.m))  # pair bytes per chunk
    fwd = []  # the colors of i->j for each pair i < j, then the pad bits
    for b in range(0, tc.packed.shape[1], step):
        bits = np.unpackbits(tc.packed[:, b:b + step], axis=1)
        if tc.m <= 8:
            fwd += np.packbits(bits, axis=0, bitorder="little")[0].tolist()
        else:  # packbits runs about twice as fast on bits.T made contiguous
            fwd += _pack_rows(bits.T.copy())
    full = (1 << tc.m) - 1
    masks = [[0] * tc.n for _ in range(tc.n)]
    for (i, j), f in zip(itertools.combinations(range(tc.n), 2), fwd):
        masks[i][j] = f
        masks[j][i] = full ^ f
    return masks


def _order_masks(
    masks: list[list[int]], order: Sequence[int], cyclic: bool
) -> Optional[list[int]]:
    """Color masks of the arcs along order, with the closing arc when
    cyclic; None as soon as an arc has no color."""
    avail = []
    u = order[0]
    for v in (*order[1:], u) if cyclic else order[1:]:
        mask = masks[u][v]
        if not mask:
            return None
        avail.append(mask)
        u = v
    return avail


def _backtrack(
    masks: list[list[int]], cyclic: bool, budget: SearchBudget
) -> Optional[tuple[int, ...]]:
    """The first vertex order found, from every root in turn for a path
    and from vertex 0 for a cycle, whose arcs (and the arc closing it when
    cyclic) can take distinct colors.

    Depth first on an explicit stack, children lowest vertex first, each
    kept only when IncrementalMatcher.push accepts its arc.  A node is an
    order the search enters and costs one budget tick, except that a path
    root is ticked twice (by the root loop and as a node) and a path leaf,
    a Hamilton path, none; a cycle leaf is ticked before its closing arc.
    """
    n = len(masks)
    matcher = IncrementalMatcher()
    push, pop, tick = matcher.push, matcher.pop, budget.tick
    full = (1 << n) - 1
    for root in [0] if cyclic else range(n):
        if not cyclic:
            tick()
        if n == 1:
            return (root,)
        tick()
        order = [root]
        used = 1 << root
        # todo[d]: the children of order[d] not yet tried, as a vertex mask
        todo = [full ^ used]
        while todo:
            rest = todo[-1]
            row = masks[order[-1]]
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                mask = row[v]
                if mask and push(mask):
                    break
            else:
                # every child tried: back up to the parent
                todo.pop()
                if todo:
                    used ^= 1 << order.pop()
                    pop()
                continue
            todo[-1] = rest
            depth = len(order) + 1
            if depth == n and not cyclic:
                return (*order, v)
            tick()
            if depth < n:
                order.append(v)
                used |= low
                todo.append(full ^ used)
            elif masks[v][root] and push(masks[v][root]):  # closes it
                return (*order, v)
            else:
                pop()
    return None


def _cuts_unmet(masks: list[list[int]], order: Sequence[int]) -> bool:
    """True when the chain-cut bound rules out a rainbow Hamilton cycle.

    Lemma.  Let order be σ_1..σ_n and span_c the largest j - i over the
    backward arcs σ_j->σ_i (j > i) of color c, or 0.  If the sum of span_c
    over all colors is below n - 1, no rainbow Hamilton cycle exists.
    Proof.  A Hamilton cycle enters each prefix {σ_1..σ_i}, i < n, so it
    has an arc into each of these n - 1 cuts.  Only a backward arc σ_j->σ_i
    enters a prefix, and it enters the j - i prefixes i..j-1.  A rainbow
    cycle has at most one arc of color c, which enters at most span_c of
    them, so at most sum(span_c) cuts are entered.

    acc gathers the colors with a backward arc of span >= d, for d from
    n - 1 down, so the running total of |acc| ends at sum(span_c)."""
    n = len(masks)
    total = acc = 0
    for d in range(n - 1, 0, -1):
        for i in range(n - d):
            acc |= masks[order[i + d]][order[i]]
        total += acc.bit_count()
        if total >= n - 1:
            return False
    return True


def _too_few(tc: TournamentCollection, cyclic: bool) -> Optional[str]:
    """Why tc has no transversal Hamilton path (or cycle) for want of
    colors or vertices alone, or None."""
    if tc.m < (tc.n if cyclic else tc.n - 1):
        return "fewer colors than arcs needed"
    if cyclic and tc.n < 3:
        return "cycles need at least 3 vertices"
    return None


def _exact(tc, budget, cyclic: bool, engine) -> OracleOutcome:
    """The outcome of engine(masks, cyclic, budget) on a started budget,
    unless _too_few answers first.  The engine returns (order, colors,
    notes): a colored vertex order, or None, None and why none exists."""
    budget = budget or SearchBudget()
    budget.start()
    t0 = time.perf_counter()
    if why := _too_few(tc, cyclic):
        return _outcome(t0, NOT_EXISTS, notes=why)
    masks = _arc_masks(tc)
    try:
        order, colors, notes = engine(masks, cyclic, budget)
    except _BudgetExceeded:
        return _outcome(t0, BUDGET_EXHAUSTED, nodes=budget.nodes)
    if order is None:
        return _outcome(t0, NOT_EXISTS, nodes=budget.nodes, notes=notes)
    kind = RainbowCycle if cyclic else RainbowPath
    return _outcome(t0, FOUND, kind(order, tuple(colors)), budget.nodes)


def _search(masks, cyclic, budget):
    """_backtrack's order, colored by one perfect_matching, unless the
    chain-cut bound refutes a cycle first.  Score order (total out-degree
    descending) catches relabelled instances."""
    n = len(masks)
    if cyclic and n >= 4:
        score = [sum(mask.bit_count() for mask in row) for row in masks]
        by_score = sorted(range(n), key=lambda u: -score[u])
        for name, order in (("index", range(n)), ("score", by_score)):
            if _cuts_unmet(masks, order):
                return None, None, f"chain-cut bound, {name} order"
    order = _backtrack(masks, cyclic, budget)
    if order is None:
        return None, None, ""
    return order, perfect_matching(_order_masks(masks, order, cyclic)), ""


def _perm_search(masks, cyclic, budget):
    """The first of every vertex order (cycles anchored at vertex 0) whose
    arcs can take distinct colors, with one matching each."""
    anchor = (0,) if cyclic else ()
    for rest in itertools.permutations(range(len(anchor), len(masks))):
        budget.tick()
        avail = _order_masks(masks, anchor + rest, cyclic)
        colors = perfect_matching(avail) if avail is not None else None
        if colors is not None:
            return anchor + rest, colors, ""
    return None, None, ""


def exact_transversal_ham_path(
    tc: TournamentCollection, budget: Optional[SearchBudget] = None
) -> OracleOutcome:
    """Backtracking search for a transversal Hamilton path.

    NotExists is only reported when the search space was exhausted within
    budget.
    """
    return _exact(tc, budget, False, _search)


def exact_transversal_ham_cycle(
    tc: TournamentCollection, budget: Optional[SearchBudget] = None
) -> OracleOutcome:
    """Backtracking search for a transversal Hamilton cycle.

    The cycle is anchored at vertex 0, which removes rotational symmetry.
    """
    return _exact(tc, budget, True, _search)


def exact_transversal_ham_path_perm(tc: TournamentCollection) -> OracleOutcome:
    """Permutation-enumeration oracle; independent of the fast search."""
    return _exact(tc, None, False, _perm_search)


def exact_transversal_ham_cycle_perm(tc: TournamentCollection) -> OracleOutcome:
    """Permutation-enumeration cycle oracle, anchored at vertex 0."""
    return _exact(tc, None, True, _perm_search)


def count_transversal_ham_paths(tc: TournamentCollection) -> int:
    """Number of (vertex sequence, color assignment) Hamilton path pairs.

    Debug helper; capped at n <= 7 because the count is over all
    permutations times all matchings.
    """
    n = tc.n
    if n > 7:
        raise ValueError("counting is capped at n <= 7")
    masks = _arc_masks(tc)
    total = 0
    for perm in itertools.permutations(range(n)):
        avail = _order_masks(masks, perm, cyclic=False)
        if avail is not None:
            total += _count_matchings(avail, 0, 0)
    return total


def _count_matchings(avail: list[int], i: int, used: int) -> int:
    if i == len(avail):
        return 1
    total = 0
    for c in _bits(avail[i] & ~used):
        total += _count_matchings(avail, i + 1, used | 1 << c)
    return total

