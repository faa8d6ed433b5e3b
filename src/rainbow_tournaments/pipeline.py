"""End-to-end transversal Hamilton path and cycle solvers.

The constructive branch mirrors the four-step assembly (separator colors
D, absorber colors A and C, block budgets B, the leftovers forced through
the top-up block), each color spent once by _spend.  One builder serves
both solvers: a cycle is the path assembly plus a closing arc whose color
is reserved before the others are spent.  A dead end falls back to the
exact oracle under a node budget in auto mode; constructive mode answers
BudgetExhausted.  Deterministic given (instance, seed).
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import oracle
from .constructive import (
    _greedy_colors,
    _solve_block,
    _spare_insert,
    absorb,
    build_absorber,
    h_partition,
    rainbow_ham_path_one_spare,
    tournament_ham_path,
)
from .core import (
    RainbowCycle,
    RainbowPath,
    Tournament,
    TournamentCollection,
    _bits,
    # not called: tests/test_benchmark_names.py and
    # perfbench/test_perfbench.py:142 pin this binding
    induced_collection,
    is_strongly_connected,
    majority_subtournament,
    restrict_colors,
)
from .errors import (AbsorberConstructionError, AbsorptionFailedError,
                     StageFailure)
from .matching import matching_with_forced_colors, perfect_matching
from .oracle import (
    BUDGET_EXHAUSTED,
    FOUND,
    NOT_EXISTS,
    OracleOutcome,
    SearchBudget,
    _outcome,
    _too_few,
)

__all__ = [
    "CycleSearchState",
    "rainbow_dhp",
    "transversal_ham_path",
    "transversal_ham_cycle",
    "exchange_step",
]


# search effort per solve: constructive attempts, the largest n that auto
# mode hands straight to the oracle, the oracle fallback's default node
# budget, and vertex orders tried by the longest-path machine
DHP_RETRIES = 8
ORACLE_MAX_N = 9
FALLBACK_BUDGET_NODES = 200_000
CASE3_RESTARTS = 24


@dataclass
class CycleSearchState:
    """The longest-path machine's state: the path P and its unused colors.

    Kept as a class, with refresh as a method, only because perfbench
    spans both (tracing.EXTRA_SPANS, test_perfbench.MAPPED["auto-sweep"]).
    """

    P: Optional[RainbowPath] = None
    D_unused: set[int] = field(default_factory=set)

    def refresh(self, tc: TournamentCollection) -> None:
        """Recompute the unused colors from P."""
        self.D_unused = set(range(tc.m)) - set(self.P.colors)


def _trace(trace: Optional[list], stage: str, **info) -> None:
    if trace is not None:
        trace.append({"stage": stage, **info})


def _block_cap(n: int) -> int:
    """Effective block-size cap: the asymptotic mu*n (mu = 0.01) is useless
    at desk scale, so it is floored by 24 and ~3*sqrt(n)."""
    return max(24, math.ceil(0.01 * n), math.ceil(3 * math.sqrt(n)))


def _spend(used: set[int], color_of: dict, arcs, colors) -> None:
    """Give each arc its color in color_of, spending each color once."""
    for arc, c in zip(arcs, colors, strict=True):
        if c in used:
            raise StageFailure("ledger", f"color {c} spent twice")
        used.add(c)
        color_of[arc] = c


# ---------------------------------------------------------------------------
# the four-step endpoint-to-endpoint assembly


def rainbow_dhp(
    tc: TournamentCollection,
    tmaj: Tournament,
    blocks: Sequence[Sequence[int]],
    ends: Sequence[int],
    colors: Sequence[int],
    seed: int,
    trace: Optional[list],
) -> RainbowPath:
    """Rainbow Hamilton path from ends[0] to ends[-1] through the r >= 2
    blocks, block i running from ends[i] to ends[i + 1], using every color
    of ``colors`` exactly once.

    Labels are those of tc.  Expects m = |colors| = n - 1, n counting the
    block vertices and the r + 1 ends; in tmaj each end dominates the
    block after it and is dominated by the block before it.  |D| = 2r + 2:
    the separator arcs leave 4 colors of D and the one-spare paths one of
    B per plain block, and forcing these through the top-up block tau
    leaves exactly ell colors of C to absorb.  Steps 3 and 4 give each arc
    its color in one map, color_of, read along the assembled vertex walk.
    Raises StageFailure on any dead end; the caller owns retries and
    fallback, and checks the path it is part of.
    """
    colors = sorted(colors)
    r = len(blocks)
    n = len(ends) + sum(len(b) for b in blocks)
    m = len(colors)
    if r < 2 or len(ends) != r + 1 or m != n - 1:
        raise StageFailure("dhp-pre", "need r >= 2 blocks, r + 1 ends and "
                           f"m = n-1; got r={r}, {len(ends)} ends, n={n}, "
                           f"m={m}")
    rng = np.random.default_rng([seed])
    used: set[int] = set()  # colors spent so far, by _spend
    color_of: dict[tuple[int, int], int] = {}  # arc -> its color, by _spend

    # step 1: reserve separator colors D and fix the block roles
    tau = max(range(r), key=lambda i: len(blocks[i]))
    others = [i for i in range(r) if i != tau]
    beta_target = 0.1 * n  # beta * n with beta = 0.1
    l1: list[int] = []
    esum = 0
    for i in others:
        l1.append(i)
        esum += len(blocks[i]) - 1
        if esum >= beta_target:
            break
    l2 = [i for i in others if i not in l1]

    d_size = 2 * r + 2
    forced_extra = len(l2) + 4  # B and D stragglers, forced through tau
    if len(blocks[tau]) + 1 < forced_extra + 2:
        raise StageFailure(
            "dhp-step1",
            "top-up block too small for the forced colors it must host",
        )
    perm = rng.permutation(m)
    D = sorted(colors[c] for c in perm[:d_size])
    dmask = sum(1 << c for c in D)

    _trace(trace, "step1", D=len(D), r=r, tau=tau, l1=l1, l2=l2)

    # step 2: spanning paths for the absorber blocks, then the absorber
    q1_paths = {
        i: tournament_ham_path(tmaj, blocks[i], rng=rng) for i in l1
    }
    q1_arcs = [a for i in l1 for a in zip(q1_paths[i], q1_paths[i][1:])]
    e_q1 = len(q1_arcs)
    c_used4 = len(blocks[tau]) + 1 - forced_extra
    ell = min(6, e_q1, c_used4)  # c_used4 >= 2 by the step-1 check
    c_size = ell + c_used4
    pool = [c for c in colors if not (dmask >> c) & 1]
    try:
        absorber = build_absorber(tc, q1_arcs, pool, ell, c_size, seed=seed)
    except AbsorberConstructionError as exc:
        raise StageFailure("dhp-step2", str(exc)) from exc
    in_ac = set(absorber.A) | set(absorber.C)
    B = [c for c in pool if c not in in_ac]
    _trace(trace, "step2", D=len(D), A=len(absorber.A), C=len(absorber.C),
           B=len(B), e_q1=e_q1, ell=ell)

    # step 3: one-spare paths on the plain blocks over disjoint budgets
    block_paths = dict(q1_paths)  # vertex order of every block
    b_at = 0
    for i in l2:
        w = blocks[i]
        budget = B[b_at:b_at + len(w)]
        b_at += len(w)
        order = rng.permutation(len(w)).tolist()
        cols = rng.permutation(len(budget)).tolist()
        p = _solve_block(tc, [budget[c] for c in cols], [w[x] for x in order],
                         rainbow_ham_path_one_spare)
        block_paths[i] = list(p.vertices)
        _spend(used, color_of, zip(p.vertices, p.vertices[1:]), p.colors)
    B_star = [c for c in B if c not in used]  # left over by the block paths

    # reserved-color matching for the separator arcs (both sides of the
    # top-up block are excluded; they belong to step 4)
    spots: list[tuple[int, int]] = []
    for i in others:
        spots.append((ends[i], block_paths[i][0]))
        spots.append((block_paths[i][-1], ends[i + 1]))
    avail = [mask & dmask for mask in tc.arc_color_masks(spots)]
    got = perfect_matching(avail)
    if got is None:
        raise StageFailure("dhp-step3", "reserved colors cannot cover the "
                           "separator arcs")
    _spend(used, color_of, spots, got)
    D_star = [c for c in D if c not in got]
    _trace(trace, "step3", used=len(used), B_star=len(B_star),
           D_star=len(D_star))

    # step 4: force the stragglers through the top-up block, then absorb
    forced = sorted(set(B_star) | set(D_star))
    fc_mask = sum(1 << c for c in {*forced, *absorber.C})
    for _ in range(40):
        cand = tournament_ham_path(tmaj, blocks[tau], rng=rng)
        stops = [ends[tau], *cand, ends[tau + 1]]
        arcs = list(zip(stops, stops[1:]))
        res = matching_with_forced_colors(
            [mask & fc_mask for mask in tc.arc_color_masks(arcs)], forced)
        if res is not None:
            break
    else:
        raise StageFailure("dhp-step4", "no top-up block path accepts all "
                           "straggler colors")
    block_paths[tau] = cand
    _spend(used, color_of, arcs, res)
    c_star = [c for c in absorber.C if c not in used]
    try:
        colored_q1 = absorb(absorber, c_star)
    except AbsorptionFailedError as exc:
        raise StageFailure("dhp-step4", str(exc)) from exc
    _spend(used, color_of, [(u, v) for u, v, _ in colored_q1.arcs],
           [c for _, _, c in colored_q1.arcs])
    _trace(trace, "step4", used=len(used), C_star=len(c_star))

    # assemble: each block's path between its two ends, colored by color_of
    verts = [ends[0]]
    for i in range(r):
        verts += block_paths[i] + [ends[i + 1]]
    cols = [color_of[a] for a in zip(verts, verts[1:])]
    return RainbowPath(vertices=tuple(verts), colors=tuple(cols))


# ---------------------------------------------------------------------------
# the one constructive builder, and the route helpers of both solvers


def _partition_for(tc: TournamentCollection):
    tmaj = majority_subtournament(tc)
    return tmaj, h_partition(tmaj, _block_cap(tc.n))


def _constructive(tc, tmaj, hp, seed, trace, cyclic: bool):
    """One attempt of the four-step assembly on hp: spanning paths p0 and
    pl of the outer blocks, greedy colors on their arcs and on the arcs to
    the first and last separator, then rainbow_dhp between the separators
    on the colors left.  A cycle also closes pl[-1] -> p0[0]: the outer
    paths are redrawn until that arc has a color, and its lowest color is
    reserved first."""
    kind = "cycle" if cyclic else "path"
    blocks = [list(b) for b in hp.blocks]
    if len(blocks) < 4:
        raise StageFailure(f"{kind}-pre", "too few blocks for the assembly")
    seps = hp.separators
    rng = np.random.default_rng([seed, 1])

    closing: list[int] = []
    for _ in range(30):
        p0 = tournament_ham_path(tmaj, blocks[0], rng=rng)
        pl = tournament_ham_path(tmaj, blocks[-1], rng=rng)
        if not cyclic:
            break
        closing = list(_bits(tc.arc_color_mask(pl[-1], p0[0])))[:1]
        if closing:
            break
    else:
        raise StageFailure("cycle-case1", "no closing arc found for any "
                           "anchors")
    used = set(closing)
    outer = (
        list(zip(p0, p0[1:])) + [(p0[-1], seps[0]), (seps[-1], pl[0])]
        + list(zip(pl, pl[1:]))
    )
    outer_cols = _greedy_colors(tc, outer, used)
    _trace(trace, "outer", outer_colors=len(used))

    mid = rainbow_dhp(tc, tmaj, hp.blocks[1:-1], seps,
                      [c for c in range(tc.m) if c not in used], seed, trace)
    verts = p0 + list(mid.vertices) + pl
    cols = (outer_cols[:len(p0)] + list(mid.colors) + outer_cols[len(p0):]
            + closing)
    walk = RainbowCycle if cyclic else RainbowPath
    return walk(vertices=tuple(verts), colors=tuple(cols))


# one name per kind: _attempts calls these, perfbench counts them as
# pipeline.attempts and tests/test_pipeline.py monkeypatches them
def _constructive_path(tc, tmaj, hp, seed, trace) -> RainbowPath:
    return _constructive(tc, tmaj, hp, seed, trace, cyclic=False)


def _constructive_cycle(tc, tmaj, hp, seed, trace) -> RainbowCycle:
    return _constructive(tc, tmaj, hp, seed, trace, cyclic=True)


def _guarded(trace: Optional[list], stage: str, info: dict, run, *args):
    """(run(*args), None), or (None, exc) with a trace record of exc.  An
    exception fails only its attempt or route: the solver never raises,
    and a fault never reads as NotExists, which comes from _too_few or the
    exact oracle alone, never from a constructive route."""
    try:
        return run(*args), None
    except Exception as exc:
        error = str(exc) if isinstance(exc, StageFailure) else (
            f"[internal] {type(exc).__name__}: {exc}")
        _trace(trace, stage, **info, error=error)
        return None, exc


def _found(w, note: str) -> Optional[OracleOutcome]:
    """w Found and noted by the route that built it, or None for no w."""
    return None if w is None else OracleOutcome(FOUND, w, notes=note)


def _attempts(cyclic: bool, tc, seed: int, trace) -> Optional[OracleOutcome]:
    """Run the constructive path or cycle with seeds seed, seed + 1, ...;
    the first valid Hamilton witness comes back Found, noted with its
    attempt, or None once DHP_RETRIES attempts failed.  A fault in the
    partition is the route's own, left to the route loop."""
    kind = "cycle" if cyclic else "path"
    build = _constructive_cycle if cyclic else _constructive_path
    tmaj, hp = _partition_for(tc)

    def attempt(k: int):
        w = build(tc, tmaj, hp, seed + k, trace)
        if not w.is_hamilton(tc):
            raise StageFailure(f"{kind}-assemble", "invalid witness")
        return w

    for k in range(DHP_RETRIES):
        w, exc = _guarded(trace, "attempt-failed", {"attempt": k},
                          attempt, k)
        if w is not None:
            return _found(w, f"constructive, attempt {k}")
        if isinstance(exc, StageFailure) and exc.stage == f"{kind}-pre":
            break  # the partition, hence this failure, ignores the seed
    return None


# ---------------------------------------------------------------------------
# the longest-path machine, and the one route loop of both solvers


def exchange_step(
    p: RainbowPath, unused: set[int], tc: TournamentCollection
) -> Optional[RainbowPath]:
    """Extend a rainbow path by one vertex using two unused colors.

    The lowest uncovered vertex is inserted by constructive._spare_insert
    with the two lowest unused colors.  Returns None only when the path is
    already Hamilton.
    """
    if len(p.vertices) == tc.n:
        return None
    if len(unused) < 2:
        raise ValueError("exchange needs at least two unused colors")
    c1, c2 = sorted(unused)[:2]
    on_path = set(p.vertices)
    v = next(z for z in range(tc.n) if z not in on_path)
    path, colors = list(p.vertices), list(p.colors)
    _spare_insert(tc, path, colors, v, c1, c2)
    return RainbowPath(tuple(path), tuple(colors))


def _close_from_ham_path(
    tc: TournamentCollection, p: RainbowPath
) -> Optional[RainbowCycle]:
    """Close a rainbow Hamilton path into a cycle by recoloring its arcs:
    one perfect matching over the n arcs of the closed walk, the path arcs
    in order and the closing arc last.  It exists exactly when some color c
    of the closing arc leaves the path arcs a rainbow coloring avoiding c
    (Hall's theorem), so one matching decides what one per c would."""
    vs = p.vertices
    got = perfect_matching(tc.arc_color_masks(zip(vs, vs[1:] + vs[:1])))
    return None if got is None else RainbowCycle(vs, tuple(got))


def _case3_machine(
    tc: TournamentCollection,
    seed: int,
    trace: Optional[list],
) -> Optional[RainbowCycle]:
    """Exchange-saturated rainbow Hamilton paths with recolored closings.

    Grows paths with exchange_step until Hamilton, then closes each with
    one matching over its n arcs.  Restarts vary only the start vertex,
    the first of restart k's own vertex order, since exchange_step inserts
    the rest lowest first; a start already tried is skipped.
    """
    n = tc.n
    state = CycleSearchState()
    tried: set[int] = set()
    for k in range(CASE3_RESTARTS):
        start = np.random.default_rng([seed, 7, k]).permutation(n)[0].item()
        if start in tried:
            continue
        tried.add(start)
        p = RainbowPath((start,), ())
        while len(p.vertices) < n:
            state.P = p
            state.refresh(tc)
            p = exchange_step(p, state.D_unused, tc)
        cyc = _close_from_ham_path(tc, p)
        if cyc is not None:
            _trace(trace, "case3", restarts_used=k + 1)
            return cyc
    _trace(trace, "case3", restarts_used=CASE3_RESTARTS, closed=False)
    return None


def _solve(tc, cyclic: bool, seed, budget, mode, trace) -> OracleOutcome:
    """The route order of both solvers.  The oracle routes read all m
    colors; the constructive attempts and the longest-path machine, which
    spend exactly k, read the first k (k = n - 1 for a path, n for a
    cycle, all when k = 0), restricted and traced as reduce only where they
    run; the cycle's strong count reads the first k members in every mode.
    The oracle's _too_few rule answers first, then the routes in order
    until one answers.  An oracle's answer stands even after a fault or an
    invalid witness; a failed constructive route leaves the question to
    the next.  millis covers the whole solve."""
    if mode not in ("auto", "constructive", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if operator.index(seed) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    t0 = time.perf_counter()
    if why := _too_few(tc, cyclic):
        return _outcome(t0, NOT_EXISTS, notes=why)
    n = tc.n
    k = n if cyclic else n - 1
    notes = []
    if cyclic:
        n_strong = sum(
            1 for t in tc.tournaments[:k] if is_strongly_connected(t)
        )
        if n_strong < n - 1:
            notes.append(
                f"precondition unmet: only {n_strong} of {n} tournaments "
                "strongly connected"
            )
    search = (oracle.exact_transversal_ham_cycle if cyclic
              else oracle.exact_transversal_ham_path)
    if mode == "exact" or (mode == "auto" and n <= ORACLE_MAX_N):
        routes = [("oracle", lambda: search(tc, budget))]
    else:
        work = tc
        if tc.m > k > 0:
            work = restrict_colors(tc, list(range(k)))
            _trace(trace, "reduce", kept_colors=k)
        routes = [("constructive",
                   lambda: _attempts(cyclic, work, seed, trace))]
        if cyclic:
            routes.append(("longest-path machine", lambda: _found(
                _case3_machine(work, seed, trace), "longest-path machine")))
        if mode == "auto":  # the fallback runs under a node budget
            fallback = budget or SearchBudget(max_nodes=FALLBACK_BUDGET_NODES)
            routes.append(("oracle fallback", lambda: search(tc, fallback)))
    for name, run in routes:
        final = name.startswith("oracle")
        out, _ = _guarded(trace, "route-failed", {"route": name}, run)
        # _attempts has checked its witness already, attempt by attempt
        if out is not None and out.found and name != "constructive" and (
                out.witness is None or not out.witness.is_hamilton(tc)):
            _trace(trace, "route-failed", route=name, error="invalid witness")
            out = OracleOutcome(BUDGET_EXHAUSTED, None, out.nodes_expanded,
                                notes="invalid witness") if final else None
        if out is None and final:
            out = OracleOutcome(BUDGET_EXHAUSTED, notes="internal error")
        if out is not None:
            break
    else:  # constructive mode, where the last route found nothing
        out = OracleOutcome(BUDGET_EXHAUSTED,
                            notes="constructive attempts exhausted")
    own = [out.notes] if out.notes else []
    out.notes = "; ".join(notes + own + [name] * (name == "oracle fallback"))
    out.millis = (time.perf_counter() - t0) * 1e3
    return out


def transversal_ham_path(
    tc: TournamentCollection,
    seed: int = 0,
    budget: Optional[SearchBudget] = None,
    mode: str = "auto",
    trace: Optional[list] = None,
) -> OracleOutcome:
    """Transversal Hamilton path: constructive assembly with oracle fallback.

    mode is "auto" (the oracle up to ORACLE_MAX_N vertices, constructive
    above), "constructive", or "exact".  seed keys the constructive
    attempts.  NotExists comes from too few colors (oracle._too_few) or
    from the exact oracle, never from a constructive route.  A bad mode
    or a negative seed raises ValueError, a non-int seed TypeError.
    """
    return _solve(tc, False, seed, budget, mode, trace)


def transversal_ham_cycle(
    tc: TournamentCollection,
    seed: int = 0,
    budget: Optional[SearchBudget] = None,
    mode: str = "auto",
    trace: Optional[list] = None,
) -> OracleOutcome:
    """Transversal Hamilton cycle solver with the cycle-closing cases.

    Requires m >= n: the oracle reads every color, the constructive routes
    the first n.  At least n-1 strongly connected members are expected; a
    violation is noted in the outcome while the search still runs.  seed
    keys the constructive attempts and the longest-path machine.  NotExists
    comes from oracle._too_few or from the exact oracle (its chain-cut
    bound, or an exhausted search), never from a constructive route.  A
    bad mode or a negative seed raises ValueError, a non-int seed
    TypeError.
    """
    return _solve(tc, True, seed, budget, mode, trace)
