"""End-to-end transversal Hamilton path and cycle solvers.

The constructive branch mirrors the four-step assembly (separator colors
D, absorber colors A and C, block budgets B, the leftovers forced through
the top-up block), each color spent once by _spend.  One builder serves
both solvers: a cycle is the path assembly plus a closing arc whose color
is reserved before the others are spent.  Every dead end is a first-class
outcome that falls back to the exact oracle under a node budget.
Deterministic given (instance, seed).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import oracle
from .constructive import (
    HPartition,
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


def _spend(used: set[int], colors) -> None:
    for c in colors:
        if c in used:
            raise StageFailure("ledger", f"color {c} spent twice")
        used.add(c)


# ---------------------------------------------------------------------------
# the four-step endpoint-to-endpoint assembly


def rainbow_dhp(
    tc: TournamentCollection,
    tmaj: Tournament,
    partition: HPartition,
    w0: int,
    wr: int,
    seed: int = 0,
    trace: Optional[list] = None,
    colors: Optional[Sequence[int]] = None,
) -> RainbowPath:
    """Rainbow Hamilton path from w0 to wr through the partitioned
    vertices, using every color of ``colors`` (default: all) exactly once.

    Labels are those of tc.  Expects m = |colors| = n - 1 where n counts
    the partitioned vertices plus the two endpoints; w0 must dominate the
    first block and the last block must dominate wr in tmaj.  Raises
    StageFailure on any dead end; the caller owns retries and fallback.
    """
    colors = sorted(colors) if colors is not None else list(range(tc.m))
    blocks = [list(b) for b in partition.blocks]
    seps = list(partition.separators)
    n = 2 + len(seps) + sum(len(b) for b in blocks)
    m = len(colors)
    if m != n - 1:
        raise StageFailure("dhp-pre", f"expected m = n-1, got n={n} m={m}")
    r = len(blocks)
    if r < 2:
        raise StageFailure("dhp-pre", "need at least two blocks")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    used: set[int] = set()  # colors spent so far, by _spend

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

    d_size = max(4, 2 * r + 2)
    n_dcolored = 2 * r - 2
    forced_extra = len(l2) + (d_size - n_dcolored)
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
    ell = min(6, e_q1, max(1, c_used4))
    c_size = ell + c_used4
    pool = [c for c in colors if not (dmask >> c) & 1]
    try:
        absorber = build_absorber(tc, q1_arcs, pool, ell, c_size, seed=seed)
    except AbsorberConstructionError as exc:
        raise StageFailure("dhp-step2", str(exc)) from exc
    in_ac = set(absorber.A) | set(absorber.C)
    B = [c for c in pool if c not in in_ac]
    if len(B) != sum(len(blocks[i]) for i in l2):
        raise StageFailure(
            "dhp-step2",
            f"B has {len(B)} colors but the plain blocks need "
            f"{sum(len(blocks[i]) for i in l2)}",
        )
    _trace(trace, "step2", D=len(D), A=len(absorber.A), C=len(absorber.C),
           B=len(B), e_q1=e_q1, ell=ell)

    # step 3: one-spare paths on the plain blocks over disjoint budgets
    block_paths = dict(q1_paths)  # vertex order of every block but tau
    block_cols: dict[int, tuple[int, ...]] = {}  # their colors, l2 only
    b_at = 0
    for i in l2:
        w = blocks[i]
        budget = B[b_at:b_at + len(w)]
        b_at += len(w)
        p = _solve_block(
            tc, budget, w, rainbow_ham_path_one_spare,
            vertex_order=rng.permutation(len(w)).tolist(),
            color_order=rng.permutation(len(budget)).tolist(),
        )
        block_paths[i] = list(p.vertices)
        block_cols[i] = p.colors
        _spend(used, p.colors)
    B_star = [c for c in B if c not in used]  # left over by the block paths

    # reserved-color matching for the separator arcs (both sides of the
    # top-up block are excluded; they belong to step 4)
    ends = [w0, *seps, wr]  # block i runs from ends[i] to ends[i + 1]
    spots: list[tuple[int, int]] = []
    for i in others:
        spots.append((ends[i], block_paths[i][0]))
        spots.append((block_paths[i][-1], ends[i + 1]))
    avail = [tc.arc_color_mask(u, v) & dmask for (u, v) in spots]
    got = perfect_matching(avail)
    if got is None:
        raise StageFailure("dhp-step3", "reserved colors cannot cover the "
                           "separator arcs")
    sep_color = {spots[k]: got[k] for k in range(len(spots))}
    _spend(used, got)
    D_star = [c for c in D if c not in got]
    _trace(trace, "step3", used=len(used), B_star=len(B_star),
           D_star=len(D_star))

    # step 4: force the stragglers through the top-up block, then absorb
    forced = sorted(set(B_star) | set(D_star))
    fc_mask = sum(1 << c for c in {*forced, *absorber.C})
    tau_path = None
    tau_cols = None
    for _ in range(40):
        cand = tournament_ham_path(tmaj, blocks[tau], rng=rng)
        stops = [ends[tau], *cand, ends[tau + 1]]
        masks = [
            tc.arc_color_mask(u, v) & fc_mask for u, v in zip(stops, stops[1:])
        ]
        res = matching_with_forced_colors(masks, forced)
        if res is not None:
            tau_path, tau_cols = cand, res
            break
    if tau_path is None:
        raise StageFailure("dhp-step4", "no top-up block path accepts all "
                           "straggler colors")
    _spend(used, tau_cols)
    c_star = [c for c in absorber.C if c not in used]
    if len(c_star) != ell:
        raise StageFailure(
            "dhp-step4", f"absorption needs {ell} leftovers, found {len(c_star)}"
        )
    try:
        colored_q1 = absorb(absorber, c_star)
    except AbsorptionFailedError as exc:
        raise StageFailure("dhp-step4", str(exc)) from exc
    q1_color = {(u, v): c for (u, v, c) in colored_q1.arcs}
    _spend(used, q1_color.values())
    _trace(trace, "step4", used=len(used), C_star=len(c_star))

    # assemble, block by block: the arc into the block, its path, the arc
    # out of it
    block_paths[tau] = tau_path
    verts = [w0]
    cols: list[int] = []
    for i in range(r):
        path = block_paths[i]
        verts += path + [ends[i + 1]]
        if i == tau:
            cols += tau_cols
            continue
        cols.append(sep_color[(ends[i], path[0])])
        if i in l1:
            cols += [q1_color[a] for a in zip(path, path[1:])]
        else:
            cols += block_cols[i]
        cols.append(sep_color[(path[-1], ends[i + 1])])
    out = RainbowPath(vertices=tuple(verts), colors=tuple(cols))
    if len(out.vertices) != n or set(out.colors) != set(colors):
        raise StageFailure("dhp-assemble", "color accounting failed")
    if not out.valid(tc):
        raise StageFailure("dhp-assemble", "assembled path is not transversal")
    return out


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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))

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

    middle = HPartition(hp.blocks[1:-1], seps[1:-1], hp.ell)
    mid = rainbow_dhp(
        tc, tmaj, middle, seps[0], seps[-1], seed=seed, trace=trace,
        colors=[c for c in range(tc.m) if c not in used],
    )
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
    exception fails only its route: the later routes still run, the solver
    never raises, and only the exhaustive oracle may report NotExists."""
    try:
        return run(*args), None
    except Exception as exc:
        error = str(exc) if isinstance(exc, StageFailure) else (
            f"[internal] {type(exc).__name__}: {exc}")
        _trace(trace, stage, **info, error=error)
        return None, exc


def _attempts(cyclic: bool, tc, seed: int, trace):
    """Run the constructive path or cycle with seeds seed, seed + 1, ...;
    the first valid Hamilton witness comes back with its note, or
    (None, None) once DHP_RETRIES attempts failed or the partition
    raised."""
    kind = "cycle" if cyclic else "path"
    build = _constructive_cycle if cyclic else _constructive_path
    part, _ = _guarded(trace, "route-failed", {"route": "constructive"},
                       _partition_for, tc)
    if part is None:
        return None, None
    tmaj, hp = part

    def attempt(k: int):
        w = build(tc, tmaj, hp, seed + k, trace)
        if not w.valid(tc) or len(w.vertices) != tc.n:
            raise StageFailure(f"{kind}-assemble", "invalid witness")
        return w

    for k in range(DHP_RETRIES):
        w, exc = _guarded(trace, "attempt-failed", {"attempt": k},
                          attempt, k)
        if w is not None:
            return w, f"constructive, attempt {k}"
        if isinstance(exc, StageFailure) and exc.stage == f"{kind}-pre":
            break  # the partition, hence this failure, ignores the seed
    return None, None


def _oracle_route(search, work, budget, notes, trace, t0, fallback=False):
    """The exact oracle search(work, budget), its notes after notes; a fault
    gives BudgetExhausted.  As the fallback after the constructive routes
    it runs by default under FALLBACK_BUDGET_NODES and says so last."""
    route = "oracle fallback" if fallback else "oracle"
    if fallback:
        budget = budget or SearchBudget(max_nodes=FALLBACK_BUDGET_NODES)
    out, _ = _guarded(trace, "route-failed", {"route": route},
                      search, work, budget)
    if out is None:
        out = _outcome(t0, BUDGET_EXHAUSTED, notes="internal error")
    own = [out.notes] if out.notes else []
    out.notes = "; ".join(notes + own + [route] * fallback)
    return out


# ---------------------------------------------------------------------------
# the longest-path machine, and the one route order of both solvers


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
    _spare_insert(tc, path, colors, set(colors), v, c1, c2)
    return RainbowPath(tuple(path), tuple(colors))


def _close_from_ham_path(
    tc: TournamentCollection, p: RainbowPath
) -> Optional[RainbowCycle]:
    """Try to close a rainbow Hamilton path into a cycle by recoloring.

    The path uses n-1 of the n colors.  For every color c whose tournament
    has the closing arc, check whether the path arcs can be rainbow-colored
    avoiding c; any success closes the cycle with c.
    """
    n = tc.n
    tail, head = p.vertices[-1], p.vertices[0]
    masks = [
        tc.arc_color_mask(p.vertices[k], p.vertices[k + 1])
        for k in range(n - 1)
    ]
    for c in _bits(tc.arc_color_mask(tail, head)):
        got = perfect_matching([mk & ~(1 << c) for mk in masks])
        if got is not None:
            return RainbowCycle(vertices=p.vertices, colors=(*got, c))
    return None


def _case3_machine(
    tc: TournamentCollection,
    seed: int,
    trace: Optional[list],
) -> Optional[RainbowCycle]:
    """Exchange-saturated rainbow Hamilton paths with recolored closings.

    Grows paths with exchange_step until Hamilton, then attempts to free a
    closing color by rematching path arcs; restarts vary the growth order.
    """
    n = tc.n
    state = CycleSearchState()
    for k in range(CASE3_RESTARTS):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 7, k]))
        )
        vorder = rng.permutation(n).tolist()
        p = RainbowPath((vorder[0],), ())
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
    """The route order of both solvers, on the first k colors: k = n - 1
    for a path, k = n for a cycle, which also needs 3 vertices."""
    if mode not in ("auto", "constructive", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    t0 = time.perf_counter()
    n = tc.n
    k = n if cyclic else n - 1
    if tc.m < k or (cyclic and n < 3):
        why = ("too few colors or vertices" if cyclic
               else "fewer colors than arcs needed")
        return _outcome(t0, NOT_EXISTS, notes=why)
    work = tc
    if tc.m > k:
        work = restrict_colors(tc, list(range(k)))
        _trace(trace, "reduce", kept_colors=k)
    notes = []
    if cyclic:
        n_strong = sum(
            1 for t in work.tournaments if is_strongly_connected(t)
        )
        if n_strong < n - 1:
            notes.append(
                f"precondition unmet: only {n_strong} of {n} tournaments "
                "strongly connected"
            )
    search = (oracle.exact_transversal_ham_cycle if cyclic
              else oracle.exact_transversal_ham_path)
    if mode == "exact" or (mode == "auto" and n <= ORACLE_MAX_N):
        return _oracle_route(search, work, budget, notes, trace, t0)
    w, note = _attempts(cyclic, work, seed, trace)
    if w is None and cyclic:
        w, _ = _guarded(trace, "route-failed",
                        {"route": "longest-path machine"},
                        _case3_machine, work, seed, trace)
        if w is not None and not w.valid(work):
            w = None
        note = "longest-path machine"
    if w is not None:
        return _outcome(t0, FOUND, w, notes="; ".join(notes + [note]))
    if mode == "constructive":
        return _outcome(
            t0, BUDGET_EXHAUSTED,
            notes="; ".join(notes + ["constructive attempts exhausted"]),
        )
    return _oracle_route(search, work, budget, notes, trace, t0,
                         fallback=True)


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
    attempts.  NotExists can only come from the exhaustive oracle.  Any
    other mode or a negative seed raises ValueError.
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

    Requires m = n (larger m is reduced by restriction).  At least n-1
    strongly connected members are expected; a violation is reported in the
    outcome notes while the search still runs.  seed keys the constructive
    attempts and the longest-path machine.  NotExists only comes from the
    exhaustive oracle.  A bad mode or a negative seed raises ValueError.
    """
    return _solve(tc, True, seed, budget, mode, trace)
