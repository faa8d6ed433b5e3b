"""Exact search oracles: backtracking, permutation enumeration, budgets."""

import hashlib
import itertools
import json
import sys

import numpy as np
import pytest

from conftest import all_collections, directed_triangle
from rainbow_tournaments import generators, oracle
from rainbow_tournaments.core import (
    ColoredDigraph,
    Tournament,
    TournamentCollection,
)
from rainbow_tournaments.oracle import (
    BUDGET_EXHAUSTED,
    FOUND,
    NOT_EXISTS,
    SearchBudget,
)


class TestHamPathOracle:
    def test_two_transitive_triangles(self):
        t = generators.transitive_tournament(3)
        out = oracle.exact_transversal_ham_path(TournamentCollection([t, t]))
        assert out.status == FOUND
        assert out.witness.vertices == (0, 1, 2)
        assert out.witness.is_hamilton(TournamentCollection([t, t]))

    def test_counterexample_instance_not_exists(self):
        path_inst, _ = generators.fig1_counterexamples()
        out = oracle.exact_transversal_ham_path(path_inst)
        assert out.status == NOT_EXISTS

    def test_endpoint_constraints(self):
        tc = generators.random_collection(6, 6, seed=3)
        for s in range(6):
            out = oracle.exact_transversal_ham_path(tc, start=s)
            if out.found:
                assert out.witness.vertices[0] == s
        out = oracle.exact_transversal_ham_path(tc, start=0, end=5)
        if out.found:
            assert out.witness.vertices[0] == 0
            assert out.witness.vertices[-1] == 5

    def test_permutation_oracle_agrees(self):
        for seed in range(60):
            tc = generators.random_collection(5, 4, seed=seed)
            a = oracle.exact_transversal_ham_path(tc)
            b = oracle.exact_transversal_ham_path_perm(tc)
            assert a.status == b.status
            if a.found:
                assert a.witness.is_hamilton(tc)
                assert b.witness.is_hamilton(tc)


class TestHamCycleOracle:
    def test_three_triangles(self):
        tri = directed_triangle()
        tc = TournamentCollection([tri, tri, tri])
        out = oracle.exact_transversal_ham_cycle(tc)
        assert out.status == FOUND
        assert out.witness.is_hamilton(tc)
        assert sorted(out.witness.colors) == [0, 1, 2]

    def test_counterexample_instance_not_exists(self):
        _, cyc_inst = generators.fig1_counterexamples()
        out = oracle.exact_transversal_ham_cycle(cyc_inst)
        assert out.status == NOT_EXISTS

    def test_permutation_oracle_agrees(self):
        for seed in range(60):
            tc = generators.random_collection(5, 5, seed=seed)
            a = oracle.exact_transversal_ham_cycle(tc)
            b = oracle.exact_transversal_ham_cycle_perm(tc)
            assert a.status == b.status
            if a.found:
                assert a.witness.is_hamilton(tc)
                assert b.witness.is_hamilton(tc)


class TestBudgets:
    def test_node_budget_exhausts(self):
        tc = generators.prop14_collection(10)
        out = oracle.exact_transversal_ham_cycle(
            tc, SearchBudget(max_nodes=50)
        )
        assert out.status == BUDGET_EXHAUSTED
        assert out.nodes_expanded <= 50 + 1

    def test_budget_monotone(self):
        # a bigger budget can only move BudgetExhausted toward a verdict
        tc = generators.prop14_collection(8)
        small = oracle.exact_transversal_ham_cycle(
            tc, SearchBudget(max_nodes=10)
        )
        big = oracle.exact_transversal_ham_cycle(
            tc, SearchBudget(max_nodes=10**6)
        )
        assert small.status == BUDGET_EXHAUSTED
        assert big.status == NOT_EXISTS

    def test_outcome_json_shape(self):
        tc = generators.random_collection(4, 3, seed=0)
        out = oracle.exact_transversal_ham_path(tc)
        d = out.to_json()
        assert {"status", "nodes_expanded", "millis", "notes"} <= set(d)
        if out.found:
            assert d["witness"]["kind"] == "path"


class TestCounting:
    def test_count_matches_enumeration_bound(self):
        # counts are nonnegative and zero exactly on NotExists
        for seed in range(40):
            tc = generators.random_collection(4, 4, seed=seed)
            cnt = oracle.count_transversal_ham_paths(tc)
            out = oracle.exact_transversal_ham_path(tc)
            assert (cnt > 0) == (out.status == FOUND)

    def test_two_identical_transitive(self):
        t = generators.transitive_tournament(3)
        tc = TournamentCollection([t, t])
        # only the order 0,1,2 works, with the 2 color assignments 01/10
        assert oracle.count_transversal_ham_paths(tc) == 2


class TestRainbowPathOracle:
    def test_single_arc(self):
        t0 = Tournament.from_arcs(2, [(0, 1)])
        cd = ColoredDigraph(((0, 1, 0),))
        out = oracle.exact_rainbow_path(cd, 0, 1)
        assert out.status == FOUND

    def test_counterexample_short_hop(self):
        path_inst, _ = generators.fig1_counterexamples()
        arcs = []
        for c, t in enumerate(path_inst.tournaments):
            for u, v in t.arcs():
                if (u, v) not in {(a, b) for a, b, _ in arcs}:
                    arcs.append((u, v, c))
        cd = ColoredDigraph(tuple(arcs))
        out = oracle.exact_rainbow_path(cd, 0, 2)
        assert out.status == FOUND

    def test_transitive_sink_to_source(self):
        t = generators.transitive_tournament(4)
        cd = ColoredDigraph(tuple((u, v, 0) for u, v in t.arcs()))
        out = oracle.exact_rainbow_path(cd, 3, 0)
        assert out.status == NOT_EXISTS

    def test_strong_rainbow_connectivity(self):
        t = generators.transitive_tournament(3)
        cd = ColoredDigraph(tuple((u, v, k)
                                  for k, (u, v) in enumerate(t.arcs())))
        assert not oracle.is_strongly_rainbow_connected(cd, 3)
        tri = directed_triangle()
        cd2 = ColoredDigraph(tuple((u, v, k)
                                   for k, (u, v) in enumerate(tri.arcs())))
        assert oracle.is_strongly_rainbow_connected(cd2, 3)

    def test_long_path_at_default_recursion_limit(self):
        n = 1500
        cd = ColoredDigraph(tuple((v, v + 1, v) for v in range(n - 1)))
        out = oracle.exact_rainbow_path(cd, 0, n - 1)
        assert out.status == FOUND
        assert out.witness.vertices == tuple(range(n))
        assert out.nodes_expanded == n

    def test_outcomes_unchanged(self):
        """Status, nodes_expanded and witness over _rainbow_path_cases."""
        assert rainbow_path_lock_digest() == RAINBOW_PATH_LOCK


def _rainbow_path_cases():
    """Random colored digraphs on 2..8 vertices, arcs in a shuffled order
    with colors drawn from a small palette (so repeats occur), every
    start/end pair, and node budgets of 1, 3 and 10."""
    rng = np.random.default_rng(3)
    for case in range(300):
        n = int(rng.integers(2, 9))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        keep = rng.random(len(pairs)) < rng.random()
        ncolors = int(rng.integers(1, n + 2))
        arcs = tuple(
            (u, v, int(rng.integers(0, ncolors)))
            for k in rng.permutation(len(pairs)) if keep[k]
            for u, v in [pairs[k]]
        )
        cd = ColoredDigraph(arcs)
        for s, e in itertools.product(range(n), range(n)):
            yield f"#{case} {s}-{e}", cd, s, e, None
            if case % 10 == 0:
                for limit in (1, 3, 10):
                    yield (f"#{case} {s}-{e} max_nodes={limit}", cd, s, e,
                           SearchBudget(max_nodes=limit))


def rainbow_path_lock_digest() -> tuple[int, str]:
    """(number of cases, digest of every case's outcome)."""
    h = hashlib.sha256()
    count = 0
    for label, cd, s, e, budget in _rainbow_path_cases():
        out = oracle.exact_rainbow_path(cd, s, e, budget)
        w = out.witness
        item = [label, out.status, out.nodes_expanded,
                list(w.vertices) if w is not None else None,
                list(w.colors) if w is not None else None]
        h.update(json.dumps(item).encode())
        count += 1
    return count, h.hexdigest()[:16]


# recorded on the recursive search; print the current value with
#   PYTHONPATH=src python tests/test_oracle.py
RAINBOW_PATH_LOCK = (11238, "752b11b99a9c1595")


def _lock_cases():
    """(label, entry point, instance, keyword arguments) of the lock grid:
    every collection with n <= 3 and m <= n + 1 (every start/end pair for
    m <= 3), random instances with n = 4..8, prop14 with n = 3..12, and
    node budgets cut off at 1, 2, 5, 17, nodes - 1 and nodes."""
    path = oracle.exact_transversal_ham_path
    cycle = oracle.exact_transversal_ham_cycle
    for n in (1, 2, 3):
        ends = [None, *range(n)]
        for m in range(1, n + 2):
            for k, tc in enumerate(all_collections(n, m)):
                key = f"all n={n} m={m} #{k}"
                pairs = (itertools.product(ends, ends) if m <= 3
                         else [(None, None)])
                for s, e in pairs:
                    yield f"{key} path {s}-{e}", path, tc, dict(start=s, end=e)
                yield f"{key} cycle", cycle, tc, {}
    for n in range(4, 9):
        for m in (n - 2, n - 1, n):
            for seed in range(6):
                tc = generators.random_collection(n, m, seed=seed)
                key = f"random n={n} m={m} seed={seed}"
                for s, e in ((None, None), (0, None), (None, n - 1),
                             (0, n - 1), (1, 1)):
                    yield f"{key} path {s}-{e}", path, tc, dict(start=s, end=e)
                yield f"{key} cycle", cycle, tc, {}
    for n in range(3, 13):
        tc = generators.prop14_collection(n)
        yield f"prop14 n={n} path", path, tc, {}
        yield f"prop14 n={n} cycle", cycle, tc, {}
    cut = [
        ("prop14 n=7", generators.prop14_collection(7)),
        ("random n=8 m=7 seed=0", generators.random_collection(8, 7, seed=0)),
        ("random n=7 m=5 seed=1", generators.random_collection(7, 5, seed=1)),
        ("fig1 path", generators.fig1_counterexamples()[0]),
    ]
    for key, tc in cut:
        for what, entry in (("path", path), ("cycle", cycle)):
            nodes = entry(tc).nodes_expanded
            for limit in sorted({1, 2, 5, 17, max(1, nodes - 1), nodes}):
                yield (f"{key} {what} max_nodes={limit}", entry, tc,
                       dict(budget=SearchBudget(max_nodes=limit)))


def oracle_lock_digest() -> tuple[int, str]:
    """(number of cases, digest of every case's outcome)."""
    h = hashlib.sha256()
    count = 0
    for label, entry, tc, kwargs in _lock_cases():
        out = entry(tc, **kwargs)
        w = out.witness
        item = [label, out.status, out.nodes_expanded, out.notes,
                list(w.vertices) if w is not None else None,
                list(w.colors) if w is not None else None]
        h.update(json.dumps(item).encode())
        count += 1
    return count, h.hexdigest()[:16]


# recorded on the recursive engine that the iterative one replaced; print
# the current value with  PYTHONPATH=src python tests/test_oracle.py
ORACLE_LOCK = (18874, "c062de2a878e3bd0")


class TestLock:
    def test_backtracking_outcomes_unchanged(self):
        """Status, nodes_expanded, notes and witness of both backtracking
        entry points, over the grid of _lock_cases."""
        assert oracle_lock_digest() == ORACLE_LOCK

    def test_no_recursion_limit_on_instance_size(self):
        """n = 150 searches run with 50 frames of headroom on the stack."""
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        old = sys.getrecursionlimit()
        path_tc = generators.random_collection(150, 149, seed=0)
        cycle_tc = generators.random_collection(
            150, 150, seed=0, strongly_connected_count=149
        )
        sys.setrecursionlimit(depth + 50)
        try:
            path = oracle.exact_transversal_ham_path(path_tc)
            cycle = oracle.exact_transversal_ham_cycle(cycle_tc)
        finally:
            sys.setrecursionlimit(old)
        assert path.status == cycle.status == FOUND
        assert path.witness.is_hamilton(path_tc)
        assert cycle.witness.is_hamilton(cycle_tc)


if __name__ == "__main__":
    print(oracle_lock_digest())
    print(rainbow_path_lock_digest())
