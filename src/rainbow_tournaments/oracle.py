"""Exact search for transversal Hamilton paths and cycles.

Two independent engines are provided.  The fast one, ``_backtrack``, runs
both the path and the cycle search depth first on an explicit stack (no
recursion limit caps the instance size), pruning with an incremental
arcs-vs-colors matching; ``nodes_expanded`` counts the vertex sequences it
enters.  The slow one enumerates vertex permutations outright and asks for
one matching per permutation.  Agreement between the two on small
instances is what the test suite leans on.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (
    RainbowCycle,
    RainbowPath,
    TournamentCollection,
    _bits,
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


class _BudgetExceeded(Exception):
    pass


@dataclass
class SearchBudget:
    """Node / wall-clock limits for exact search.  None means unlimited."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None
    nodes: int = 0
    _deadline: Optional[float] = field(default=None, repr=False)

    def start(self) -> None:
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
    n = tc.n
    masks = [[0] * n for _ in range(n)]
    for c, t in enumerate(tc.tournaments):
        for u, out in enumerate(t.out):
            # inline, not _bits: hot in every oracle-exhaustive solve
            while out:
                low = out & -out
                v = low.bit_length() - 1
                out ^= low
                masks[u][v] |= 1 << c
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


def _witness(
    masks: list[list[int]], order: Sequence[int], cyclic: bool
) -> Optional[RainbowPath | RainbowCycle]:
    """order colored by a perfect matching of its arcs, or None."""
    avail = _order_masks(masks, order, cyclic)
    colors = perfect_matching(avail) if avail is not None else None
    if colors is None:
        return None
    kind = RainbowCycle if cyclic else RainbowPath
    return kind(vertices=tuple(order), colors=tuple(colors))


def _backtrack(
    masks: list[list[int]],
    roots: Sequence[int],
    end: Optional[int],
    cyclic: bool,
    budget: SearchBudget,
) -> Optional[list[int]]:
    """The first vertex order found, roots in turn, whose arcs (and the
    arc closing it when cyclic) take distinct colors; a path has end last.

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
    not_end = full & ~(1 << end) if end is not None else full
    for root in roots:
        if root == end and n > 1:
            continue
        if not cyclic:
            tick()
        if n == 1:
            return [root]
        tick()
        order = [root]
        used = 1 << root
        # todo[d]: the children of order[d] not yet tried, as a vertex mask
        todo = [~used & (not_end if n > 2 else full)]
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
                return order + [v]
            tick()
            if depth < n:
                order.append(v)
                used |= low
                todo.append(~used & (not_end if depth < n - 1 else full))
            elif masks[v][root] and push(masks[v][root]):
                return order + [v]  # the arc closing the cycle fits
            else:
                pop()
    return None


def _search(tc, budget, roots, end, cyclic, t0) -> OracleOutcome:
    """The outcome of _backtrack on tc, its order colored by _witness."""
    masks = _arc_masks(tc)
    try:
        got = _backtrack(masks, roots, end, cyclic, budget)
    except _BudgetExceeded:
        return _outcome(t0, BUDGET_EXHAUSTED, nodes=budget.nodes)
    if got is None:
        return _outcome(t0, NOT_EXISTS, nodes=budget.nodes)
    wit = _witness(masks, got, cyclic)
    assert wit is not None
    return _outcome(t0, FOUND, wit, budget.nodes)


def exact_transversal_ham_path(
    tc: TournamentCollection,
    budget: Optional[SearchBudget] = None,
    start: Optional[int] = None,
    end: Optional[int] = None,
) -> OracleOutcome:
    """Backtracking search for a transversal Hamilton path.

    NotExists is only reported when the search space was exhausted within
    budget.
    """
    budget = budget or SearchBudget()
    budget.start()
    t0 = time.perf_counter()
    if tc.m < tc.n - 1:
        return _outcome(t0, NOT_EXISTS, notes="fewer colors than arcs needed")
    roots = [start] if start is not None else range(tc.n)
    return _search(tc, budget, roots, end, False, t0)


def exact_transversal_ham_cycle(
    tc: TournamentCollection,
    budget: Optional[SearchBudget] = None,
) -> OracleOutcome:
    """Backtracking search for a transversal Hamilton cycle.

    The cycle is anchored at vertex 0, which removes rotational symmetry.
    """
    budget = budget or SearchBudget()
    budget.start()
    t0 = time.perf_counter()
    if tc.m < tc.n:
        return _outcome(t0, NOT_EXISTS, notes="fewer colors than arcs needed")
    if tc.n < 3:
        return _outcome(t0, NOT_EXISTS, notes="cycles need at least 3 vertices")
    return _search(tc, budget, [0], None, True, t0)


def _perm_search(
    tc: TournamentCollection, budget: Optional[SearchBudget], cyclic: bool
) -> OracleOutcome:
    """Try every vertex order (cycles anchored at vertex 0) with one
    matching each."""
    budget = budget or SearchBudget()
    budget.start()
    t0 = time.perf_counter()
    n = tc.n
    if cyclic and (n < 3 or tc.m < n):
        return _outcome(t0, NOT_EXISTS, notes="too few vertices or colors")
    if not cyclic and tc.m < n - 1:
        return _outcome(t0, NOT_EXISTS, notes="fewer colors than arcs needed")
    masks = _arc_masks(tc)
    if cyclic:
        orders = ((0,) + rest for rest in itertools.permutations(range(1, n)))
    else:
        orders = itertools.permutations(range(n))
    try:
        for perm in orders:
            budget.tick()
            wit = _witness(masks, perm, cyclic)
            if wit is not None:
                return _outcome(t0, FOUND, wit, budget.nodes)
    except _BudgetExceeded:
        return _outcome(t0, BUDGET_EXHAUSTED, nodes=budget.nodes)
    return _outcome(t0, NOT_EXISTS, nodes=budget.nodes)


def exact_transversal_ham_path_perm(
    tc: TournamentCollection, budget: Optional[SearchBudget] = None
) -> OracleOutcome:
    """Permutation-enumeration oracle; independent of the fast search."""
    return _perm_search(tc, budget, cyclic=False)


def exact_transversal_ham_cycle_perm(
    tc: TournamentCollection, budget: Optional[SearchBudget] = None
) -> OracleOutcome:
    """Permutation-enumeration cycle oracle, anchored at vertex 0."""
    return _perm_search(tc, budget, cyclic=True)


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

