"""Exact search oracles: backtracking, permutation enumeration, budgets."""

import hashlib
import itertools
import json
import pickle
import random
import sys

import numpy as np
import pytest

from conftest import all_collections, directed_triangle, source_collection
from rainbow_tournaments import generators, oracle
from rainbow_tournaments.core import (
    TournamentCollection,
    induced_collection,
    restrict_colors,
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
        tc = source_collection(7, seed=0)
        out = oracle.exact_transversal_ham_cycle(
            tc, SearchBudget(max_nodes=50)
        )
        assert out.status == BUDGET_EXHAUSTED
        assert out.nodes_expanded <= 50 + 1

    def test_budget_monotone(self):
        # a bigger budget can only move BudgetExhausted toward a verdict
        tc = source_collection(7, seed=0)
        small = oracle.exact_transversal_ham_cycle(
            tc, SearchBudget(max_nodes=10)
        )
        big = oracle.exact_transversal_ham_cycle(
            tc, SearchBudget(max_nodes=10**6)
        )
        assert small.status == BUDGET_EXHAUSTED
        assert big.status == NOT_EXISTS

    def test_reused_budget_counts_from_zero(self):
        # each search starts its own count, so a budget can be passed again
        tc = generators.random_collection(7, 6, seed=0)
        budget = SearchBudget(max_nodes=30)
        runs = [oracle.exact_transversal_ham_path(tc, budget)
                for _ in range(2)]
        assert [out.status for out in runs] == [FOUND, FOUND]
        assert runs[0].nodes_expanded == runs[1].nodes_expanded

    @pytest.mark.parametrize("limit", ["max_nodes", "max_seconds"])
    def test_nan_limit_rejected(self, limit):
        # NaN fails every comparison, so it used to mean no limit at all
        with pytest.raises(ValueError, match="negative or NaN: nan"):
            SearchBudget(**{limit: float("nan")})

    def test_outcome_json_shape(self):
        tc = generators.random_collection(4, 3, seed=0)
        out = oracle.exact_transversal_ham_path(tc)
        d = out.to_json()
        assert {"status", "nodes_expanded", "millis", "notes"} <= set(d)
        if out.found:
            assert d["witness"]["kind"] == "path"


class TestChainCut:
    """The chain-cut bound that refutes cycle instances at the root."""

    def test_sound_in_every_order(self):
        # the lemma holds for any vertex order: on every collection of
        # three tournaments on 3 vertices, a refutation in any order goes
        # with a NotExists of the unpruned permutation engine
        refuted = 0
        for tc in all_collections(3, 3):
            masks = oracle._arc_masks(tc)
            if any(oracle._cuts_unmet(masks, order)
                   for order in itertools.permutations(range(3))):
                refuted += 1
                perm = oracle.exact_transversal_ham_cycle_perm(tc)
                assert perm.status == NOT_EXISTS
        assert refuted == 60

    def test_sound_on_random_collections(self):
        # m = n with 0, n/2 or n-1 strong members, n = 4..7: a refutation by
        # the search or in a random vertex order is a NotExists of the
        # permutation engine (all 1,200 have a cycle, so neither fires)
        rng = random.Random(0)
        for n in range(4, 8):
            for strong in (0, n // 2, n - 1):
                for seed in range(100):
                    tc = generators.random_collection(
                        n, n, seed=seed, strongly_connected_count=strong)
                    order = rng.sample(range(n), n)
                    out = oracle.exact_transversal_ham_cycle(tc)
                    if (out.notes.startswith("chain-cut bound") or
                            oracle._cuts_unmet(oracle._arc_masks(tc), order)):
                        perm = oracle.exact_transversal_ham_cycle_perm(tc)
                        assert perm.status == out.status == NOT_EXISTS

    @pytest.mark.parametrize("n", [8, 12, 20])
    def test_score_order_catches_relabelled_prop14(self, n):
        order = random.Random(n).sample(range(n), n)
        prop14 = generators.prop14_collection(n)
        tc = TournamentCollection([t.restrict(order)
                                   for t in prop14.tournaments])
        assert not oracle._cuts_unmet(oracle._arc_masks(tc), range(n))
        out = oracle.exact_transversal_ham_cycle(tc)
        assert (out.status, out.nodes_expanded) == (NOT_EXISTS, 0)
        assert out.notes == "chain-cut bound, score order"

    @pytest.mark.parametrize("n", [*range(4, 15), 60])
    def test_prop14_refuted_without_search(self, n):
        tc = generators.prop14_collection(n)
        out = oracle.exact_transversal_ham_cycle(tc)
        assert (out.status, out.nodes_expanded) == (NOT_EXISTS, 0)
        assert out.notes.startswith("chain-cut bound")

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_source_vertex_needs_search(self, n):
        # no arc enters vertex 0, which the bound does not see
        out = oracle.exact_transversal_ham_cycle(source_collection(n, seed=0))
        assert out.status == NOT_EXISTS
        assert out.nodes_expanded > 0 and out.notes == ""


def reference_arc_masks(tc):
    """The arc-mask table by one loop over every set bit of every member's
    out-masks: the reference for oracle._arc_masks."""
    n = tc.n
    masks = [[0] * n for _ in range(n)]
    for c, t in enumerate(tc.tournaments):
        for u, out in enumerate(t.out):
            while out:
                low = out & -out
                v = low.bit_length() - 1
                out ^= low
                masks[u][v] |= 1 << c
    return masks


def _every_row_source(n, m, seed):
    """(how, collection): the same kind of instance reaching _arc_masks
    through each way a collection gets its packed rows."""
    tc = generators.random_collection(n, m, seed=seed)
    yield "assembled", tc
    yield "stacked", TournamentCollection(
        [generators.random_tournament(n, seed=seed + c) for c in range(m)])
    wide = generators.random_collection(n, m + 3, seed=seed)
    yield "row slice", restrict_colors(wide, range(2, m + 2))
    big = generators.random_collection(n + 3, m, seed=seed)
    order = random.Random(seed).sample(range(n + 3), n)
    yield "induced", induced_collection(big, order)
    yield "from_json", TournamentCollection.from_json(tc.to_json())
    yield "pickled", pickle.loads(pickle.dumps(tc))


class TestArcMasks:
    """_arc_masks, built from the packed pair rows in bounded chunks,
    against the per-bit loop over the out-masks."""

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 16, 17, 63, 64, 65])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 33])
    def test_equals_reference_in_bounded_chunks(self, n, m, monkeypatch):
        # step = None keeps the module's bound (one chunk at these sizes);
        # a bound of step pair bytes gives several chunks from n = 9 on,
        # the last one partial at step 4
        shapes = []

        def unpackbits(a, *args, **kwargs):
            out = unpack(a, *args, **kwargs)
            shapes.append(out.shape)
            return out

        unpack = np.unpackbits
        monkeypatch.setattr(oracle.np, "unpackbits", unpackbits)
        for step in (None, 1, 4):
            bound = oracle._CHUNK_BYTES if step is None else 8 * m * step + 7
            monkeypatch.setattr(oracle, "_CHUNK_BYTES", bound)
            for how, tc in _every_row_source(n, m, seed=7 * n + m):
                pair_bytes = tc.packed.shape[1]
                shapes.clear()
                got = oracle._arc_masks(tc)
                if step is None:
                    assert len(shapes) == (pair_bytes > 0), how
                else:
                    assert len(shapes) == -(-pair_bytes // step), how
                assert all(rows == m and m * cols <= bound
                           for rows, cols in shapes), how
                # the reference unpacks too, so it runs after the count
                assert got == reference_arc_masks(tc), how

    def test_exact_search_leaves_out_masks_unbuilt(self):
        # the search reads the packed rows only, so no member keeps its
        # n out-mask ints after it
        tc = generators.random_collection(
            12, 12, seed=0, strongly_connected_count=11)
        assert oracle.exact_transversal_ham_path(tc).found
        assert oracle.exact_transversal_ham_cycle(tc).found
        assert all(t._out is None for t in tc.tournaments)


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


def _lock_cases():
    """(label, entry point, instance, keyword arguments) of the lock grid:
    every collection with n <= 3 and m <= n + 1, random instances with
    n = 4..8, prop14 with n = 3..12, and node budgets cut off at 1, 2, 5,
    17, nodes - 1 and nodes.  Path labels keep the "None-None" of the
    start/end options the path search once took."""
    path = oracle.exact_transversal_ham_path
    cycle = oracle.exact_transversal_ham_cycle
    for n in (1, 2, 3):
        for m in range(1, n + 2):
            for k, tc in enumerate(all_collections(n, m)):
                key = f"all n={n} m={m} #{k}"
                yield f"{key} path None-None", path, tc, {}
                yield f"{key} cycle", cycle, tc, {}
    for n in range(4, 9):
        for m in (n - 2, n - 1, n):
            for seed in range(6):
                tc = generators.random_collection(n, m, seed=seed)
                key = f"random n={n} m={m} seed={seed}"
                yield f"{key} path None-None", path, tc, {}
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


def _lock_rows():
    """[label, status, nodes_expanded, notes, vertices, colors] of every
    case of _lock_cases, as JSON text."""
    for label, entry, tc, kwargs in _lock_cases():
        out = entry(tc, **kwargs)
        w = out.witness
        yield json.dumps([label, out.status, out.nodes_expanded, out.notes,
                          list(w.vertices) if w is not None else None,
                          list(w.colors) if w is not None else None])


def oracle_lock_digest() -> tuple[int, str]:
    """(number of cases, digest of every case's outcome)."""
    h = hashlib.sha256()
    count = 0
    for row in _lock_rows():
        h.update(row.encode())
        count += 1
    return count, h.hexdigest()[:16]


# recorded when random instances became windows of one stream per (seed,
# attempt): 90 of the random rows moved, every one still Found; print the
# current value with  PYTHONPATH=src python tests/test_oracle.py, or one
# JSON row per case with --rows to diff two versions of the search
ORACLE_LOCK = (9635, "668a740f3b3b37ff")


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
    if sys.argv[1:] == ["--rows"]:
        for row in _lock_rows():
            print(row)
    else:
        print(oracle_lock_digest())
