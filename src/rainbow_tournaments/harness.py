"""Verification suites, benchmarks, and deterministic parallel execution.

One theorem sweep, verify_theorem, serves the path and the cycle theorem;
lemma sweeps are named in LEMMA_SUITES; each sweep and benchmark runs a
list of sizes.  Suites assert witness validity and oracle agreement, and
inventory counterexamples; they never turn the asymptotic theorems into
pass/fail at sizes the statements do not cover.  Reports are JSON-lines
and, for fixed seeds, byte-identical across worker counts once timing
fields are dropped.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import constructive, generators, oracle, pipeline
from .core import (
    Tournament,
    TournamentCollection,
    is_strongly_connected,
    majority_subtournament,
    validate_transversal,
)
from .errors import ExceptionalConfigurationError

__all__ = [
    "SuiteReport",
    "verify_theorem",
    "verify_lemmas",
    "bench",
    "LEMMA_SUITES",
    "BENCH_KINDS",
]


@dataclass
class SuiteReport:
    suite: str
    instances: int = field(default=0, init=False)
    failures: list = field(default_factory=list, init=False)
    wall_secs: float = field(default=0.0, init=False)
    stats: dict = field(default_factory=dict, init=False)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_jsonl(self, include_timing: bool = True) -> str:
        head = {
            "suite": self.suite,
            "instances": self.instances,
            "failures": len(self.failures),
            "stats": self.stats,
        }
        if include_timing:
            head["wall_secs"] = round(self.wall_secs, 3)
        lines = [json.dumps(head, sort_keys=True, separators=(",", ":"))]
        lines.extend(
            json.dumps(f, sort_keys=True, separators=(",", ":"))
            for f in self.failures
        )
        return "\n".join(lines) + "\n"


def _run_tasks(fn: Callable, tasks: list, jobs: int) -> list:
    """Run tasks in submission order; results are merged in that order so a
    report is identical for any worker count.  A grid without a task is
    a bad argument: its report would pass having checked nothing."""
    if not tasks:
        raise ValueError("the grid holds no instance")
    # a forked pool starts every worker at the first submit: cap them
    jobs = min(jobs, len(tasks), os.cpu_count() or 1)
    if jobs <= 1:
        return [fn(t) for t in tasks]
    # imported here: multiprocessing costs every package import 11-16 ms
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(tasks) // (jobs * 8))
        return list(pool.map(fn, tasks, chunksize=chunk))


def _all_collections(n: int, m: int):
    pairs = n * (n - 1) // 2
    space = [Tournament.from_pair_bits(n, format(k, f"0{pairs}b")[:pairs])
             for k in range(1 << pairs)]
    for combo in itertools.product(space, repeat=m):
        yield TournamentCollection(combo)


# ---------------------------------------------------------------------------
# theorem suites


def _instance(what: str, n: int, seed: int) -> TournamentCollection:
    """The seed's random path instance (m = n-1), or cycle instance (m = n,
    the first n-1 members strongly connected)."""
    if what == "path":
        return generators.random_collection(n, n - 1, seed)
    return generators.random_collection(n, n, seed,
                                        strongly_connected_count=n - 1)


def _task_theorem(args) -> dict:
    what, mode, n, payload = args
    tc = payload if mode == "exhaustive" else _instance(what, n, payload)
    out = (oracle.exact_transversal_ham_path if what == "path"
           else oracle.exact_transversal_ham_cycle)(tc)
    rec = {"status": out.status}
    if out.found:
        rec["witness_valid"] = bool(out.witness.is_hamilton(tc))
    if out.status == oracle.NOT_EXISTS or not rec.get("witness_valid", True):
        rec["instance"] = tc.to_json()
    return rec


def _exhaustive_collections(what: str, n: int):
    """Every path instance (m = n-1), or every cycle instance (m = n) with
    at least n-1 strongly connected members."""
    for tc in _all_collections(n, n - 1 if what == "path" else n):
        if what == "path" or sum(
                map(is_strongly_connected, tc.tournaments)) >= n - 1:
            yield tc


def verify_theorem(
    what: str,
    sizes: Sequence[int],
    mode: str = "random",
    seeds: Sequence[int] = range(100),
    jobs: int = 1,
) -> SuiteReport:
    """Path sweep (what = "path", m = n-1) or cycle sweep (what = "cycle",
    m = n, at least n-1 strongly connected members) at each n of sizes;
    exhaustive mode takes every collection (n <= 4 for paths, n <= 3 for
    cycles).  NotExists instances are inventoried, invalid witnesses fail."""
    if what not in ("path", "cycle"):
        raise ValueError(f"unknown theorem {what!r}; choose path or cycle")
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}; choose exhaustive or "
                         "random")
    t0 = time.perf_counter()
    rep = SuiteReport(suite=f"theorem-{what}-{mode}")
    if mode == "exhaustive":
        limit = 4 if what == "path" else 3
        if max(sizes, default=0) > limit:
            raise ValueError(
                f"exhaustive {what} sweep is limited to n <= {limit}"
            )
        tasks = [
            (what, mode, n, tc)
            for n in sizes
            for tc in _exhaustive_collections(what, n)
        ]
    else:
        tasks = [(what, mode, n, s) for n in sizes for s in seeds]
    results = _run_tasks(_task_theorem, tasks, jobs)
    not_exists = []
    for rec in results:
        rep.instances += 1
        if rec.get("witness_valid") is False:
            rep.failures.append(
                {"kind": "invalid-witness", "instance": rec["instance"]}
            )
        if rec["status"] == oracle.NOT_EXISTS:
            not_exists.append(rec["instance"])
    rep.stats = {
        "not_exists": len(not_exists),
        "not_exists_instances": not_exists[:64],
    }
    rep.wall_secs = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# lemma suites


def _lemma_hpartition(args) -> Optional[dict]:
    n, seed = args
    t = generators.random_tournament(n, seed=seed)
    for ell in {3, 24, max(3, -(-n // 10)), max(3, n)}:
        hp = constructive.h_partition(t, ell)
        if not hp.validate(t) or hp.vertices() != set(range(n)):
            return {"kind": "hpartition", "n": n, "seed": seed, "ell": ell,
                    "bits": t.pair_bits()}
    return None


def _lemma_low_degree(args) -> Optional[dict]:
    n, seed = args
    t = generators.random_tournament(n, seed=seed)
    for d in range(n):
        if not constructive.low_degree_count_bound_check(t, d):
            return {"kind": "low-degree", "n": n, "seed": seed, "d": d,
                    "bits": t.pair_bits()}
    return None


def _lemma_one_spare(args) -> Optional[dict]:
    n, seed = args
    tc = generators.random_collection(n, n, seed=seed)
    stats: dict = {}
    p = constructive.rainbow_ham_path_one_spare(tc, stats)
    if not p.is_hamilton(tc):
        return {"kind": "one-spare", "n": n, "seed": seed,
                "instance": tc.to_json()}
    if stats["arc_inspections"] > 4 * n * n + 16:
        return {"kind": "one-spare-cost", "n": n, "seed": seed,
                "inspections": stats["arc_inspections"]}
    return None


def _lemma_forcing_color(args) -> Optional[dict]:
    n, seed = args
    tc = generators.random_collection(n, 2 * n, seed=seed)
    for i in (0, n, 2 * n - 1):
        try:
            p = constructive.rainbow_ham_path_forcing_color(tc, i)
        except ExceptionalConfigurationError:
            continue
        if not p.is_hamilton(tc) or i not in p.colors:
            return {"kind": "forcing-color", "n": n, "seed": seed, "i": i,
                    "instance": tc.to_json()}
    return None


def _forcing_set_instance(n, m, forced, u, v, seed) -> TournamentCollection:
    """Random collection adjusted so u dominates and v is dominated inside
    every forced color, which realizes the two-choice endpoint hypothesis."""
    tc = generators.random_collection(n, m, seed=seed)
    ts = list(tc.tournaments)
    for b in forced:
        # each pair keeps one arc: x->u turns round, and so does v->y
        ts[b] = Tournament.from_arcs(n, [
            (u, x) if y == u and x != v else (y, v) if x == v and y != u
            else (x, y) for x, y in ts[b].arcs()])
    return TournamentCollection(tuple(ts))


def _lemma_forcing_set(args) -> Optional[dict]:
    n, seed = args
    nb = max(1, n // 25)
    forced = list(range(nb))
    u, v = n - 2, n - 1
    tc = _forcing_set_instance(n, 4 * n, forced, u, v, seed)
    p = constructive.rainbow_ham_path_forcing_set(tc, forced, u, v)
    good = (
        p.is_hamilton(tc)
        and set(forced) <= set(p.colors)
        and p.vertices[0] == u
        and p.vertices[-1] == v
    )
    if not good:
        return {"kind": "forcing-set", "n": n, "seed": seed,
                "instance": tc.to_json()}
    return None


def _lemma_rainbow_connect(args) -> Optional[dict]:
    n, seed = args
    tc = generators.random_collection(
        n, n - 1, seed=seed, strongly_connected_count=n - 1
    )
    for x in range(n):
        paths = constructive.rainbow_connect_all(tc, x)
        for y, p in paths.items():
            ok = (
                p.vertices[0] == x
                and p.vertices[-1] == y
                and list(p.colors) == sorted(set(p.colors))
                and p.valid(tc)
            )
            if not ok:
                return {"kind": "rainbow-connect", "n": n, "seed": seed,
                        "x": x, "y": y, "instance": tc.to_json()}
    return None


def _lemma_absorber(args) -> Optional[dict]:
    n, seed = args
    if n < 7:
        # |A| + |C| = (min(12, n - 1) - 2) + 10 exceeds the 2n colors
        raise ValueError("the absorber suite needs n >= 7")
    tc = generators.random_collection(n, 2 * n, seed=seed)
    tmaj = majority_subtournament(tc)
    path = constructive.tournament_ham_path(tmaj)
    arcs = [(path[k], path[k + 1]) for k in range(min(12, n - 1))]
    ell = 2
    try:
        ab = constructive.build_absorber(
            tc, arcs, list(range(tc.m)), ell, c_size=10, seed=seed
        )
    except Exception as exc:
        return {"kind": "absorber-build", "n": n, "seed": seed,
                "error": str(exc), "instance": tc.to_json()}
    for cpr in itertools.combinations(ab.C, ell):
        try:
            cd = constructive.absorb(ab, cpr)
        except Exception:
            return {"kind": "absorber-absorb", "n": n, "seed": seed,
                    "cprime": list(cpr), "instance": tc.to_json()}
        want = sorted(list(ab.A) + list(cpr))
        got = sorted(c for _, _, c in cd.arcs)
        if got != want or not validate_transversal(tc, cd):
            return {"kind": "absorber-colors", "n": n, "seed": seed,
                    "instance": tc.to_json()}
    return None


LEMMA_SUITES = {
    "hpartition": _lemma_hpartition,
    "low_degree": _lemma_low_degree,
    "one_spare": _lemma_one_spare,
    "forcing_color": _lemma_forcing_color,
    "forcing_set": _lemma_forcing_set,
    "rainbow_connect": _lemma_rainbow_connect,
    "absorber": _lemma_absorber,
}


def verify_lemmas(
    suite: str,
    sizes: Sequence[int],
    seeds: Sequence[int] = range(20),
    jobs: int = 1,
) -> SuiteReport:
    """Run one lemma sub-suite over (size, seed) grid; invariant violations
    become failure records carrying the serialized instance."""
    if suite not in LEMMA_SUITES:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {sorted(LEMMA_SUITES)}")
    t0 = time.perf_counter()
    rep = SuiteReport(suite=f"lemma-{suite}")
    tasks = [(n, s) for n in sizes for s in seeds]
    results = _run_tasks(LEMMA_SUITES[suite], tasks, jobs)
    for rec in results:
        rep.instances += 1
        if rec is not None:
            rep.failures.append(rec)
    rep.wall_secs = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# benchmarks


def _bench_row(args) -> dict:
    """One timed instance: generating it (gen_millis) apart from solving
    it (millis)."""
    kind, n, seed = args
    t0 = time.perf_counter()
    if kind == "h_partition":
        t = generators.random_tournament(n, seed=seed)
        t.out  # built here, so that millis is the partition alone
    elif kind == "one_spare":
        tc = generators.random_collection(n, n, seed=seed)
    else:
        tc = _instance("cycle" if kind == "cycle" else "path", n, seed)
    t1 = time.perf_counter()
    extra = ""
    if kind == "oracle":
        out = oracle.exact_transversal_ham_path(
            tc, oracle.SearchBudget(max_nodes=2_000_000)
        )
        extra = f"{out.status}:{out.nodes_expanded}"
    elif kind == "h_partition":
        constructive.h_partition(t, 24)
    elif kind == "one_spare":
        stats: dict = {}
        constructive.rainbow_ham_path_one_spare(tc, stats)
        extra = str(stats["arc_inspections"])
    elif kind == "cycle":
        extra = pipeline.transversal_ham_cycle(tc, mode="constructive").status
    elif kind == "majority":
        tmaj = majority_subtournament(tc)
    else:
        extra = pipeline.transversal_ham_path(tc, mode="constructive").status
    t2 = time.perf_counter()
    if kind == "majority":  # hashed off the clock
        import hashlib  # 3 ms that no other caller pays
        extra = hashlib.sha256(tmaj.packed.tobytes()).hexdigest()[:16]
    return {
        "kind": kind, "n": n, "seed": seed,
        "gen_millis": round((t1 - t0) * 1e3, 3),
        "millis": round((t2 - t1) * 1e3, 3), "extra": extra,
    }


# each bench kind with its least n: an oracle, path or majority instance
# has n - 1 colors; a cycle's strong ones need n >= 3
BENCH_KINDS = {"oracle": 2, "h_partition": 1, "one_spare": 1, "pipeline": 2,
               "cycle": 3, "majority": 2}


def bench(
    kind: str,
    sizes: Sequence[int],
    seeds: Sequence[int] = range(3),
    jobs: int = 1,
) -> SuiteReport:
    """Timing sweep; rows land in stats["csv"]."""
    if kind not in BENCH_KINDS:
        raise ValueError(f"unknown bench kind {kind!r}")
    least = BENCH_KINDS[kind]
    for n in sizes:
        if n < least:
            raise ValueError(f"the {kind} kind needs n >= {least}, not {n}")
    t0 = time.perf_counter()
    rep = SuiteReport(suite=f"bench-{kind}")
    tasks = [(kind, n, s) for n in sizes for s in seeds]
    rows = _run_tasks(_bench_row, tasks, jobs)
    rep.instances = len(rows)
    lines = ["kind,n,seed,gen_millis,millis,extra"]
    lines += [
        f"{r['kind']},{r['n']},{r['seed']},{r['gen_millis']},{r['millis']},"
        f"{r['extra']}"
        for r in rows
    ]
    rep.stats["csv"] = "\n".join(lines) + "\n"
    rep.wall_secs = time.perf_counter() - t0
    return rep
