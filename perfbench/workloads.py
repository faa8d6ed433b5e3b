"""The benchmark's workloads: inputs made from a seed, and answer checks.

A workload is a list of solves built once in set-up.  One pass runs every
solve of the list in order; a run repeats passes until its time is up.
Every solve goes through a module attribute (``pipeline.transversal_ham_path``
and so on) at call time, so wrappers installed by the tracer are seen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from rainbow_tournaments import generators, harness, oracle, pipeline
from rainbow_tournaments.core import (
    RainbowCycle,
    RainbowPath,
    Tournament,
    TournamentCollection,
    is_strongly_connected,
    validate_transversal,
)

FOUND = "Found"
NOT_EXISTS = "NotExists"
PATH_KINDS = ("path", "bt-path", "perm-path")


@dataclass
class Solve:
    """One solve or lemma task.

    ``expect`` is the status a correct answer has; None means "the same as
    every other solve of ``group``" (both exact engines on one instance
    whose answer the benchmark does not know in advance).  A lemma task is
    correct when the harness returns no failure record.
    """

    key: str
    kind: str
    arg: object
    mode: str = "auto"
    expect: Optional[str] = FOUND
    group: Optional[str] = None


@dataclass
class Result:
    """``start`` and ``end`` are ``time.perf_counter`` readings."""

    solve: Solve
    start: float
    end: float
    outcome: object = None
    error: Optional[BaseException] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def execute(solve: Solve, trace: Optional[list] = None):
    """Run one solve through the library's public API."""
    k, a = solve.kind, solve.arg
    if k == "path":
        return pipeline.transversal_ham_path(a, mode=solve.mode, trace=trace)
    if k == "cycle":
        return pipeline.transversal_ham_cycle(a, mode=solve.mode, trace=trace)
    if k == "bt-path":
        return oracle.exact_transversal_ham_path(a)
    if k == "bt-cycle":
        return oracle.exact_transversal_ham_cycle(a)
    if k == "perm-path":
        return oracle.exact_transversal_ham_path_perm(a)
    if k == "perm-cycle":
        return oracle.exact_transversal_ham_cycle_perm(a)
    if k == "lemma":
        suite, n, seed = a
        return harness.LEMMA_SUITES[suite]((n, seed))
    raise ValueError(f"unknown solve kind {k!r}")


# ---------------------------------------------------------------------------
# checks


def plain_witness(w):
    """The witness with vertices and colours as Python ints (witnesses of
    the longest-path machine carry numpy integers)."""
    cls = RainbowCycle if isinstance(w, RainbowCycle) else RainbowPath
    return cls(tuple(int(v) for v in w.vertices),
               tuple(int(c) for c in w.colors))


def _witness_problem(solve: Solve, outcome) -> Optional[str]:
    w = outcome.witness
    want = RainbowPath if solve.kind in PATH_KINDS else RainbowCycle
    if not isinstance(w, want):
        return f"witness is {type(w).__name__}, want {want.__name__}"
    try:
        w = plain_witness(w)
        ok = validate_transversal(solve.arg, w.arcs())
    except (ValueError, TypeError, OverflowError) as exc:
        return f"malformed witness: {exc!r}"
    if not ok:
        return "witness is not transversal"
    if len(w.vertices) != solve.arg.n:
        return f"witness has {len(w.vertices)} of {solve.arg.n} vertices"
    return None


def check(results: list[Result]) -> list[dict]:
    """Failures among ``results``; ``wrong`` marks an incorrect answer as
    opposed to an operation that did not complete."""
    fails = []
    statuses: dict[str, set] = {}
    for r in results:
        s = r.solve
        if r.error is not None:
            where = traceback.extract_tb(r.error.__traceback__)[-1]
            fails.append({
                "key": s.key, "wrong": False,
                "why": f"{type(r.error).__name__}: {r.error} "
                       f"({Path(where.filename).name}:{where.lineno})",
            })
            continue
        if s.kind == "lemma":
            if r.outcome is not None:
                fails.append({"key": s.key, "wrong": True,
                              "why": f"lemma record {r.outcome.get('kind')}"})
            continue
        st = r.outcome.status
        if s.group is not None:
            statuses.setdefault(s.group, set()).add(st)
        if st == "BudgetExhausted":
            fails.append({"key": s.key, "wrong": False, "why": st})
            continue
        if s.expect is not None and st != s.expect:
            fails.append({"key": s.key, "wrong": True,
                          "why": f"status {st}, expected {s.expect}"})
            continue
        if st == FOUND:
            problem = _witness_problem(s, r.outcome)
            if problem:
                fails.append({"key": s.key, "wrong": True, "why": problem})
    for group, sts in statuses.items():
        if len(sts) > 1:
            fails.append({"key": group, "wrong": True,
                          "why": f"engines disagree: {sorted(sts)}"})
    return fails


def digest(results: list[Result]) -> str:
    """Hash of every answer (status and witness, or lemma record)."""
    h = hashlib.sha256()
    for r in results:
        if r.error is not None:
            item = [r.solve.key, "error", type(r.error).__name__]
        elif r.solve.kind == "lemma":
            item = [r.solve.key, r.outcome]
        else:
            w = r.outcome.witness
            w = plain_witness(w) if w is not None else None
            item = [r.solve.key, r.outcome.status,
                    list(w.vertices) if w else None,
                    list(w.colors) if w else None]
        h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# workloads


def _seed(seed: int, *key: int) -> int:
    """An instance seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def construct_large(seed: int) -> list[Solve]:
    path = generators.random_collection(800, 799, seed=_seed(seed, 0))
    cycle = generators.random_collection(
        400, 400, seed=_seed(seed, 1), strongly_connected_count=399
    )
    return [
        Solve("path n=800 m=799", "path", path, mode="constructive"),
        Solve("cycle n=400 m=400", "cycle", cycle, mode="constructive"),
    ]


AUTO_SIZES = range(10, 131, 3)


def auto_sweep(seed: int) -> list[Solve]:
    solves = []
    for n in AUTO_SIZES:
        tc = generators.random_collection(n, n - 1, seed=_seed(seed, n, 0))
        solves.append(Solve(f"path n={n}", "path", tc))
        tc = generators.random_collection(
            n, n, seed=_seed(seed, n, 1), strongly_connected_count=n - 1
        )
        solves.append(Solve(f"cycle n={n}", "cycle", tc))
    return solves


PROP14_SIZES = range(3, 15)
CROSS_SIZES = (4, 5, 6)
CROSS_PER_SIZE = 20


def _all_collections(n: int, m: int):
    ts = [
        Tournament.from_pair_bits(n, "".join(bits))
        for bits in itertools.product("01", repeat=n * (n - 1) // 2)
    ]
    return [TournamentCollection(c) for c in itertools.product(ts, repeat=m)]


def oracle_exhaustive(seed: int) -> list[Solve]:
    solves = [
        Solve(f"prop14 n={n}", "bt-cycle", generators.prop14_collection(n),
              expect=NOT_EXISTS)
        for n in PROP14_SIZES
    ]
    fig_path, fig_cycle = generators.fig1_counterexamples()
    for engine in ("bt", "perm"):
        solves.append(Solve(f"fig1 path {engine}", f"{engine}-path", fig_path,
                            expect=NOT_EXISTS))
        solves.append(Solve(f"fig1 cycle {engine}", f"{engine}-cycle",
                            fig_cycle, expect=NOT_EXISTS))
    # the n=3 theorem sweeps: every collection, with the cycle sweep's
    # "all but one strongly connected" filter; NotExists occurs here, so
    # the two engines are held to each other
    sweeps = [("path", tc) for tc in _all_collections(3, 2)] + [
        ("cycle", tc) for tc in _all_collections(3, 3)
        if sum(map(is_strongly_connected, tc.tournaments)) >= 2
    ]
    for i, (what, tc) in enumerate(sweeps):
        for engine in ("bt", "perm"):
            solves.append(Solve(f"n=3 {what} #{i} {engine}",
                                f"{engine}-{what}", tc, expect=None,
                                group=f"n=3 {what} #{i}"))
    for n in CROSS_SIZES:
        for m in (n - 1, n):
            for k in range(CROSS_PER_SIZE):
                tc = generators.random_collection(
                    n, m, seed=_seed(seed, n, m, k),
                    strongly_connected_count=n - 1 if m == n else 0,
                )
                whats = ("path", "cycle") if m == n else ("path",)
                for what in whats:
                    for engine in ("bt", "perm"):
                        solves.append(Solve(
                            f"random n={n} m={m} #{k} {what} {engine}",
                            f"{engine}-{what}", tc,
                        ))
    return solves


LEMMA_PLAN = (
    ("one_spare", range(4, 51), 20),
    ("hpartition", (50, 200, 600), 10),
    ("rainbow_connect", (10, 30), 20),
)


def lemma_sweep(seed: int) -> list[Solve]:
    solves = []
    for si, (suite, sizes, nseeds) in enumerate(LEMMA_PLAN):
        for n in sizes:
            for k in range(nseeds):
                s = _seed(seed, si, n, k)
                solves.append(Solve(f"{suite} n={n} seed={s}", "lemma",
                                    (suite, n, s)))
    return solves


@dataclass(frozen=True)
class Workload:
    """``pass_s`` is the nominal time of one pass, measured on a 2-vCPU VM
    when the workload was defined; it turns ``--seconds`` into a pass count
    that then stays the same for every run."""

    name: str
    build: Callable[[int], list[Solve]]
    inputs: str
    setup_reps: int
    pass_s: float

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "construct-large", construct_large,
            "path n=800 m=799 uniform and cycle n=400 m=400 (399 strongly "
            "connected), constructive mode", 2, 11.0,
        ),
        Workload(
            "auto-sweep", auto_sweep,
            "path (m=n-1) and cycle (m=n, n-1 strongly connected) in auto "
            "mode at n=10,13,...,130", 3, 12.0,
        ),
        Workload(
            "oracle-exhaustive", oracle_exhaustive,
            "exact cycle search on prop14 n=3..14; fig1; every n=3 "
            "collection; backtracking vs permutation engines on 20 random "
            "instances per n in {4,5,6}, m in {n-1,n}", 5, 4.2,
        ),
        Workload(
            "lemma-sweep", lemma_sweep,
            "harness lemma tasks: one_spare n=4..50 x20 seeds, hpartition "
            "n in {50,200,600} x10, rainbow_connect n in {10,30} x20", 5, 3.9,
        ),
    )
}
