"""Constructive building blocks: degree bounds, partitions, path builders."""

import inspect
import sys

import numpy as np
import pytest

from conftest import all_collections, all_tournaments, directed_triangle
from rainbow_tournaments import constructive, core, generators
from rainbow_tournaments.constructive import (
    _solve_block,
    h_partition,
    low_degree_count_bound_check,
    rainbow_connect_all,
    rainbow_ham_path_forcing_color,
    rainbow_ham_path_forcing_set,
    rainbow_ham_path_one_spare,
    tournament_ham_path,
)
from rainbow_tournaments.core import (
    TournamentCollection,
    induced_collection,
    restrict_colors,
)
from rainbow_tournaments.errors import (
    ExceptionalConfigurationError,
    InsufficientColorsError,
    StageFailure,
)
from rainbow_tournaments.harness import _forcing_set_instance


class TestLowDegreeBound:
    def test_transitive_n5_d1(self):
        t = generators.transitive_tournament(5)
        assert low_degree_count_bound_check(t, 1)

    def test_d_at_least_n_trivial(self):
        t = generators.random_tournament(6, seed=0)
        assert low_degree_count_bound_check(t, 6)

    def test_regular_n7(self):
        t = generators.rotational_tournament(7)
        assert low_degree_count_bound_check(t, 2)

    def test_exhaustive_small_all_d(self):
        for t in all_tournaments(5):
            for d in range(5):
                assert low_degree_count_bound_check(t, d)


def split_lists(t, block):
    """constructive._split on the vertex mask of block, as ascending
    (in-neighbours, v, out-neighbours) lists; the sizes it returns are
    checked against the masks."""
    block = list(block)
    (lo, k_lo), v, (hi, k_hi) = constructive._split(
        t.out, sum(1 << u for u in block), len(block))
    assert (lo.bit_count(), hi.bit_count()) == (k_lo, k_hi)
    return list(core._bits(lo)), v, list(core._bits(hi))


class TestSplitBlock:
    def test_triangle_split_is_balanced(self):
        t = directed_triangle()
        wminus, v, wplus = split_lists(t, [0, 1, 2])
        assert len(wminus) == 1 and len(wplus) == 1

    def test_transitive_middle_vertex(self):
        t = generators.transitive_tournament(7)
        wminus, v, wplus = split_lists(t, range(7))
        assert v == 3 and len(wminus) == 3 and len(wplus) == 3

    def test_both_sides_at_least_sixth(self):
        t = generators.random_tournament(100, seed=5)
        wminus, v, wplus = split_lists(t, range(100))
        assert min(len(wminus), len(wplus)) >= 100 // 6
        # the returned v maximizes min(in, out) within the block
        best = max(min(t.in_degree(u), t.out_degree(u)) for u in range(100))
        assert min(len(wminus), len(wplus)) == best


class TestHPartition:
    def test_triangle_single_block(self):
        t = directed_triangle()
        hp = h_partition(t, 3)
        assert hp.blocks == ((0, 1, 2),) and hp.separators == ()
        assert hp.validate(t)

    def test_random_invariants(self):
        t = generators.random_tournament(500, seed=1)
        hp = h_partition(t, 24)
        assert hp.validate(t)
        assert len(hp.blocks) >= 500 // 25

    def test_partition_covers_all_vertices(self):
        t = generators.random_tournament(60, seed=2)
        hp = h_partition(t, 10)
        seen = set(hp.separators)
        for b in hp.blocks:
            seen |= set(b)
        assert seen == set(range(60))

    def test_vertex_subset(self):
        t = generators.random_tournament(40, seed=3)
        middle = list(range(1, 39))
        hp = h_partition(t, 8, vertices=middle)
        assert hp.vertices() == set(middle)
        assert hp.validate(t)

    def test_exhaustive_small(self):
        for t in all_tournaments(5):
            for ell in (3, 4, 5):
                hp = h_partition(t, ell)
                assert hp.validate(t)

    @staticmethod
    def largest_first(t, ell):
        """The refinement h_partition used to run: split a largest
        oversized block each round, in place."""
        ell = min(ell, t.n)
        blocks, seps = [list(range(t.n))], []
        while True:
            idx = max(range(len(blocks)), key=lambda i: len(blocks[i]))
            if len(blocks[idx]) <= ell:
                break
            wminus, v, wplus = split_lists(t, blocks[idx])
            blocks[idx:idx + 1] = [wminus, wplus]
            seps.insert(idx, v)
        return tuple(tuple(b) for b in blocks), tuple(seps), ell

    @pytest.mark.parametrize("n", [50, 200, 600])
    def test_in_order_equals_largest_first(self, n):
        # the ell values of the lemma-hpartition sweep
        for seed in range(3):
            t = generators.random_tournament(n, seed=seed)
            for ell in {3, 24, max(3, -(-n // 10)), n}:
                hp = h_partition(t, ell)
                got = (hp.blocks, hp.separators, hp.ell)
                assert got == self.largest_first(t, ell)

    @staticmethod
    def full_scan(t, ell, vertices=None):
        """h_partition by a plain full scan, sharing no code with it: arcs
        read with has_arc, every vertex of a block scored, the first of
        the most balanced taken, blocks split on a work stack."""
        verts = list(range(t.n)) if vertices is None else list(vertices)
        ell = min(ell, len(verts))
        arc = [[u != v and t.has_arc(u, v) for v in range(t.n)]
               for u in range(t.n)]
        blocks, seps, stack = [], [], [sorted(verts)]
        while stack:
            block = stack.pop()
            if isinstance(block, int):
                seps.append(block)
            elif len(block) <= ell:
                blocks.append(tuple(block))
            else:
                def balance(v):
                    dout = sum(arc[v][u] for u in block)
                    return min(dout, len(block) - 1 - dout)
                v = max(block, key=balance)
                stack += ([u for u in block if arc[v][u]], v,
                          [u for u in block if arc[u][v]])
        return tuple(blocks), tuple(seps), ell

    def assert_full_scan(self, t, ell, vertices=None):
        hp = h_partition(t, ell, vertices=vertices)
        got = (hp.blocks, hp.separators, hp.ell)
        assert got == self.full_scan(t, ell, vertices), (t.n, ell)

    def test_full_scan_every_small_tournament(self):
        for n in range(3, 7):
            for t in all_tournaments(n):
                for ell in range(3, n + 1):
                    self.assert_full_scan(t, ell)

    @pytest.mark.parametrize("n", [*range(7, 61), 200, 600])
    def test_full_scan_random(self, n):
        t = generators.random_tournament(n, seed=n)
        subset = [v for v in range(n) if v % 5 != 2]
        # the ell values of the lemma-hpartition sweep
        for ell in {3, 24, max(3, -(-n // 10)), n}:
            self.assert_full_scan(t, ell)
            self.assert_full_scan(t, ell, vertices=subset)

    @pytest.mark.parametrize("n", [9, 41, 101])
    def test_full_scan_structured(self, n):
        perm = np.random.default_rng(n).permutation(n).tolist()
        relabelled = core.Tournament.from_arcs(
            n, [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)])
        majority = core.majority_subtournament(
            generators.random_collection(n, 5, seed=n))
        for t in (relabelled, generators.rotational_tournament(n),
                  generators.prop14_tprime(n), majority):
            for ell in (3, 8, 24):
                self.assert_full_scan(t, ell)

    def test_full_scan_when_no_vertex_reaches_the_bound(self):
        # scores (4, 3, 1, 1, 1): 0 beats all, 1 beats the 3-cycle 2, 3, 4;
        # the best min(in, out) is 1, below (5 - 1) // 2, so every vertex
        # is scored and 1 (the first of the most balanced) is the pick
        t = core.Tournament.from_arcs(5, [
            (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
            (2, 3), (3, 4), (4, 2)])
        assert list(t.scores) == [4, 3, 1, 1, 1]
        assert constructive._split(t.out, 0b11111, 5) == (
            (0b00001, 1), 1, (0b11100, 3))
        for ell in (3, 4):
            self.assert_full_scan(t, ell)

    @pytest.mark.parametrize("ell", [3, 8, 30, 40])
    def test_shuffled_vertex_list(self, ell):
        # every block comes back ascending, one block (ell >= 30) or many
        t = generators.random_tournament(40, seed=5)
        verts = np.random.default_rng(5).permutation(40)[:30].tolist()
        hp = h_partition(t, ell, vertices=verts)
        assert hp == h_partition(t, ell, vertices=sorted(verts))
        assert all(list(b) == sorted(b) for b in hp.blocks)
        self.assert_full_scan(t, ell, vertices=verts)

    @staticmethod
    def validate_ref(hp, t):
        """HPartition.validate by has_arc on every block vertex."""
        verts = [*hp.separators, *(u for b in hp.blocks for u in b)]
        return (
            bool(verts) and len(set(verts)) == len(verts)
            and set(verts) <= set(range(t.n))
            and len(hp.separators) == len(hp.blocks) - 1
            and all(hp.ell <= 6 * len(b) <= 6 * hp.ell for b in hp.blocks)
            and all(t.has_arc(u, w) for i, w in enumerate(hp.separators)
                    for u in hp.blocks[i])
            and all(t.has_arc(w, u) for i, w in enumerate(hp.separators)
                    for u in hp.blocks[i + 1]))

    @staticmethod
    def flip(t, u, v):
        """t with the arc between u and v reversed."""
        return core.Tournament.from_arcs(t.n, [
            (b, a) if {a, b} == {u, v} else (a, b) for a, b in t.arcs()])

    @pytest.mark.parametrize("n", [30, 61, 200])
    def test_validate_matches_has_arc_reference(self, n):
        rng = np.random.default_rng(n)
        t = generators.random_tournament(n, seed=n)
        for ell in (8, 24):
            hp = h_partition(t, ell)
            assert hp.validate(t) and self.validate_ref(hp, t)
            blocks, seps = [list(b) for b in hp.blocks], hp.separators
            for _ in range(10):
                i = int(rng.integers(len(seps)))
                w, bi, bj = seps[i], blocks[i], blocks[i + 1]
                u = bi[int(rng.integers(len(bi)))]
                x = bj[int(rng.integers(len(bj)))]
                # u moved across its separator: u now beats w_i inside
                # W_{i+1}, whatever the block sizes say
                moved = constructive.HPartition(tuple(
                    tuple(b for b in bk if b != u) if k == i
                    else (*bk, u) if k == i + 1 else tuple(bk)
                    for k, bk in enumerate(blocks)), seps, ell)
                for bad, tt in ((moved, t), (hp, self.flip(t, u, w)),
                                (hp, self.flip(t, w, x))):
                    assert not bad.validate(tt)
                    assert not self.validate_ref(bad, tt)

    @pytest.mark.parametrize("blocks, seps", [
        (((0, 1, 99),), ()), (((0, 1, -3),), ()), (((0, 1, 5),), ()),
        (((0, 1), (2, 3)), (99,)), (((0, 1), (2, 3)), ()),
        (((0, 1), (2, 3)), (4, 0)), (((0, 1, 1),), ()), ((), ()),
    ], ids=["above-n", "negative", "equal-to-n", "separator-outside",
            "separator-missing", "separator-extra", "repeat", "empty"])
    def test_validate_rejects_malformed_partitions(self, blocks, seps):
        # the first three used to pass, since no separator touches them
        t = generators.random_tournament(5, seed=0)
        hp = constructive.HPartition(blocks, seps, 3)
        assert not hp.validate(t) and not self.validate_ref(hp, t)

    @pytest.mark.parametrize("vertices, error", [
        ([0, 0, 1, 2, 3, 4], ValueError), ([0, 1, 2, 3, 40], ValueError),
        ([-1, 0, 1, 2], ValueError), ([], ValueError),
        ([0.5, 1.5, 2.5], TypeError), ([0.0, 1.0, 2.0], TypeError),
    ], ids=["repeat", "outside", "negative", "empty", "fractions",
            "integral-floats"])
    def test_bad_vertices_rejected(self, vertices, error):
        # the fractions used to come back as a partition of non-vertices
        t = generators.random_tournament(10, seed=2)
        with pytest.raises(error):
            h_partition(t, 3, vertices=vertices)


class TestTournamentHamPath:
    def test_every_tournament_has_one(self):
        for t in all_tournaments(5):
            p = tournament_ham_path(t)
            assert sorted(p) == list(range(5))
            assert all(t.has_arc(p[i], p[i + 1]) for i in range(4))

    def test_rng_varies_endpoints(self):
        t = generators.rotational_tournament(9)
        rng = np.random.default_rng(0)
        starts = {tuple(tournament_ham_path(t, rng=rng))[0]
                  for _ in range(30)}
        assert len(starts) > 1

    @pytest.mark.parametrize("vertices, error, match", [
        ([0, 0, 1], ValueError, "distinct vertices"),
        ([0, 1, 10], ValueError, "distinct vertices"),
        ([-1, 2], ValueError, "distinct vertices"),
        ([0.0, 1.0], TypeError, "'float'"),
        ([0.5, 2.5], TypeError, "'float'"),
    ], ids=["repeat", "outside", "negative", "integral-floats", "fractions"])
    def test_bad_vertices_rejected(self, vertices, error, match):
        # [0, 0, 1] used to come back as the "path" [0, 0, 1], and [0.0, 1.0]
        # failed with "tuple indices must be integers"
        t = generators.random_tournament(10, 1)
        with pytest.raises(error, match=match):
            tournament_ham_path(t, vertices)


class TestOneSpare:
    def test_rejects_too_few_colors(self):
        tc = generators.random_collection(5, 4, seed=0)
        with pytest.raises(InsufficientColorsError):
            rainbow_ham_path_one_spare(tc)

    def test_exhaustive_n3(self):
        count = 0
        for tc in all_collections(3, 3):
            p = rainbow_ham_path_one_spare(tc)
            assert p.is_hamilton(tc)
            count += 1
        assert count == 512

    def test_random_with_stats(self):
        for seed in range(30):
            n = 5 + seed
            tc = generators.random_collection(n, n + 2, seed=seed)
            stats = {}
            p = rainbow_ham_path_one_spare(tc, stats)
            assert p.is_hamilton(tc)
            assert stats["arc_inspections"] <= 40 * n * n

    def test_orders_steer_the_construction(self):
        tc = generators.random_collection(8, 9, seed=4)
        a = _solve_block(tc, list(range(9)), list(range(8)),
                         rainbow_ham_path_one_spare)
        b = _solve_block(tc, list(range(9)), list(reversed(range(8))),
                         rainbow_ham_path_one_spare)
        assert a.is_hamilton(tc) and b.is_hamilton(tc)
        assert a != b

    def test_solve_block_keeps_the_given_order(self):
        tc = generators.random_collection(9, 11, seed=2)
        vertices = [4, 0, 7, 2, 8, 1, 6, 3]
        colors = [5, 9, 0, 3, 10, 1, 7, 2]
        sub = induced_collection(restrict_colors(tc, colors), vertices)
        p = rainbow_ham_path_one_spare(sub)
        got = _solve_block(tc, colors, vertices, rainbow_ham_path_one_spare)
        assert got.vertices == tuple(vertices[x] for x in p.vertices)
        assert got.colors == tuple(colors[c] for c in p.colors)
        assert got.valid(tc)

    @pytest.mark.parametrize("cached", [False, True])
    def test_spare_insert_matches_mask_rule(self, cached):
        # reference: the old rule, the first path vertex in the OR of both
        # colors' out-rows, with the hit color read from c1's row
        rng = np.random.default_rng(19)
        for trial in range(2000):
            n = int(rng.integers(2, 13))
            m = n + int(rng.integers(1, 4))
            tc = generators.random_collection(n, m, seed=trial)
            if cached:
                for t in tc.tournaments:
                    t.out  # builds and caches the rows
            verts = [int(x) for x in rng.permutation(n)]
            v, path = verts[0], verts[1:1 + int(rng.integers(1, n))]
            cols = [int(x) for x in rng.permutation(m)]
            c1, c2 = cols[:2]
            colors = cols[2:2 + len(path) - 1]
            ref_path, ref_colors = list(path), list(colors)
            k, spare = constructive._spare_insert(tc, path, colors, v, c1, c2)
            if not cached:
                assert all(t._out is None for t in tc.tournaments)
            out1 = tc.tournaments[c1].out[v]
            out2 = tc.tournaments[c2].out[v]
            ref_k = constructive._insertion_point(ref_path, out1 | out2)
            # the spare is whichever of c1, c2 and the replaced color the
            # path leaves unused
            unused = {c1, c2, *ref_colors}
            if ref_k == len(ref_path):
                ref_path.append(v)
                ref_colors.append(c1)
            else:
                hit, other = ((c1, c2) if (out1 >> ref_path[ref_k]) & 1
                              else (c2, c1))
                ref_path.insert(ref_k, v)
                if ref_k:
                    ref_colors[ref_k - 1] = other
                ref_colors.insert(ref_k, hit)
            unused -= set(ref_colors)
            assert len(unused) == 1
            assert (k, path, colors, spare) == (
                ref_k, ref_path, ref_colors, *unused)

    def test_builds_no_out_rows(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("an out-row build")

        monkeypatch.setattr(core, "_out_rows", no_rows)
        for n in range(4, 51):
            tc = generators.random_collection(n, n, seed=n)
            assert rainbow_ham_path_one_spare(tc).is_hamilton(tc)

    @staticmethod
    def list_pick(tc, vorder, corder):
        """The builder with its colors picked by a scan of the whole color
        order for the first two unused ones, as it used to; also counts
        the steps that free a color earlier in the order than one already
        picked."""
        path, colors, high, early = [vorder[0]], [], -1, 0
        for v in vorder[1:]:
            c1, c2 = [c for c in corder if c not in colors][:2]
            high = max(high, corder.index(c2))
            replaced = set(colors)
            _, spare = constructive._spare_insert(tc, path, colors, v, c1, c2)
            early += spare in replaced and corder.index(spare) < high
        return (tuple(path), tuple(colors)), early

    @pytest.mark.parametrize("spare", ["n", "n+1", "2n"])
    def test_heap_pick_matches_list_pick(self, spare):
        rng = np.random.default_rng(len(spare))
        early = 0
        for trial in range(150):
            n = int(rng.integers(1, 30))
            m = {"n": n, "n+1": n + 1, "2n": 2 * n}[spare]
            tc = generators.random_collection(n, m, seed=trial)
            vorder = rng.permutation(n).tolist()
            corder = rng.permutation(m).tolist()
            p = _solve_block(tc, corder, vorder, rainbow_ham_path_one_spare)
            want, freed_early = self.list_pick(tc, vorder, corder)
            assert (p.vertices, p.colors) == want
            early += freed_early
        # freed colors went back ahead of colors already picked
        assert early > 100


class TestForcingColor:
    def test_two_vertices(self):
        tc = generators.random_collection(2, 8, seed=0)
        for i in range(8):
            p = rainbow_ham_path_forcing_color(tc, i)
            assert p.is_hamilton(tc) and p.colors == (i,)

    def test_exceptional_configuration_raises(self):
        tri, rev = directed_triangle(), directed_triangle(False)
        # color 0's tournament is a directed triangle and every other color
        # orients all three pairs the opposite way
        ts = [tri] + [rev] * 7
        tc = TournamentCollection(ts)
        with pytest.raises(ExceptionalConfigurationError):
            rainbow_ham_path_forcing_color(tc, 0)

    def test_small_and_recursive_sizes(self):
        for n in range(3, 13):
            for seed in range(8):
                tc = generators.random_collection(n, 2 * n, seed=seed)
                for i in (0, n, 2 * n - 1):
                    try:
                        p = rainbow_ham_path_forcing_color(tc, i)
                    except ExceptionalConfigurationError:
                        assert n == 3
                        continue
                    assert p.is_hamilton(tc)
                    assert i in p.colors

    def test_rejects_too_few_colors(self):
        tc = generators.random_collection(5, 9, seed=0)
        with pytest.raises(InsufficientColorsError):
            rainbow_ham_path_forcing_color(tc, 0)

    def test_no_recursion_limit(self):
        # a transitive majority peels one vertex per level: 113 levels at
        # n = 120, run with 100 frames to spare above this test's own
        n = 120
        tc = TournamentCollection([generators.transitive_tournament(n)]
                                  * (2 * n))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            p = rainbow_ham_path_forcing_color(tc, 5)
        finally:
            sys.setrecursionlimit(limit)
        assert p.is_hamilton(tc) and 5 in p.colors


def _greedy_by_scan(tc, arcs, used):
    """Reference: for each arc the lowest unused color found by a has_arc
    scan over all colors, with the same failure."""
    cols = []
    for u, v in arcs:
        for c in range(tc.m):
            if c not in used and tc.tournaments[c].has_arc(u, v):
                break
        else:
            raise StageFailure("greedy-color",
                               f"no unused color contains arc {u}->{v}")
        used.add(c)
        cols.append(c)
    return cols


class TestGreedyColors:
    # both outcomes at m up to 2n; m = 8 fills one byte of a color mask
    @pytest.mark.parametrize("n, m", [(6, 8), (9, 14), (20, 40), (20, 70)])
    def test_matches_a_scan_over_colors(self, n, m):
        rng = np.random.default_rng(n)
        failed = 0
        for seed in range(40):
            tc = generators.random_collection(n, m, seed=seed)
            order = rng.permutation(n).tolist()
            arcs = list(zip(order, order[1:]))
            start = set(rng.choice(m, m // 3, replace=False).tolist())
            outcomes = []
            for greedy in (constructive._greedy_colors, _greedy_by_scan):
                used = set(start)
                try:
                    outcomes.append((greedy(tc, arcs, used), used))
                except StageFailure as exc:
                    outcomes.append((exc.stage, str(exc), used))
            assert outcomes[0] == outcomes[1]
            failed += isinstance(outcomes[0][0], str)
        assert failed < 40 and (failed > 0 or m > 2 * n)


class TestForcingSet:
    def test_empty_forced_set(self):
        tc = generators.random_collection(30, 120, seed=0)
        p = rainbow_ham_path_forcing_set(tc, [], 0, 29)
        assert p.is_hamilton(tc)
        assert p.vertices[0] == 0 and p.vertices[-1] == 29

    def test_single_forced_color(self):
        tc = generators.random_collection(25, 100, seed=1)
        p = rainbow_ham_path_forcing_set(tc, [7], 0, 24)
        assert p.is_hamilton(tc)
        assert 7 in p.colors

    def test_several_forced_colors(self):
        n = 100
        forced = [0, 1, 2, 3]
        tc = _forcing_set_instance(n, 4 * n, forced, n - 2, n - 1, seed=3)
        p = rainbow_ham_path_forcing_set(tc, forced, n - 2, n - 1)
        assert p.is_hamilton(tc)
        assert set(forced) <= set(p.colors)
        assert p.vertices[0] == n - 2 and p.vertices[-1] == n - 1

    def test_too_many_forced_rejected(self):
        tc = generators.random_collection(25, 100, seed=0)
        with pytest.raises(ValueError):
            rainbow_ham_path_forcing_set(tc, [0, 1], 0, 24)

    def test_endpoint_hypothesis_enforced(self):
        # a random instance essentially never gives every u->w arc two
        # forced choices, so the precondition check fires
        tc = generators.random_collection(50, 200, seed=2)
        with pytest.raises(ValueError):
            rainbow_ham_path_forcing_set(tc, [0, 1], 0, 49)


class TestRainbowConnect:
    def test_single_arc(self):
        tc = generators.random_collection(5, 4, seed=0,
                                          strongly_connected_count=4)
        for y, p in rainbow_connect_all(tc, 0).items():
            assert p.vertices[0] == 0 and p.vertices[-1] == y
            assert p.valid(tc)
            assert list(p.colors) == sorted(p.colors)

    def test_two_triangles(self):
        tri = directed_triangle()
        tc = TournamentCollection([tri, tri])
        p = rainbow_connect_all(tc, 0)[2]
        assert p.vertices == (0, 1, 2) and p.colors == (0, 1)

    def test_all_pairs_random(self):
        for seed in range(5):
            tc = generators.random_collection(
                12, 11, seed=seed, strongly_connected_count=11
            )
            for x in range(12):
                got = rainbow_connect_all(tc, x)
                assert set(got) == set(range(12)) - {x}
                for y, p in got.items():
                    assert p.vertices[0] == x and p.vertices[-1] == y
                    assert p.valid(tc)
                    colors = list(p.colors)
                    assert colors == sorted(colors)

    @pytest.mark.parametrize("x", [7, -1])
    def test_source_outside_the_vertices_rejected(self, x):
        # 7 used to raise IndexError and -1 "negative shift count"
        tc = generators.random_collection(5, 4, seed=0,
                                          strongly_connected_count=4)
        with pytest.raises(ValueError, match=f"vertex {x} is outside 0..4"):
            rainbow_connect_all(tc, x)

    def test_one_pair_form_removed(self):
        # rainbow_connect_all(tc, x)[y] is the one path from x to y
        assert not hasattr(constructive, "rainbow_connect")
        assert "rainbow_connect" not in constructive.__all__


class TestRestrictColors:
    def test_order_preserved(self):
        tc = generators.random_collection(6, 6, seed=0)
        sub = restrict_colors(tc, [4, 1])
        assert sub.m == 2
        assert sub.tournaments[0] == tc.tournaments[4]
        assert sub.tournaments[1] == tc.tournaments[1]

    @pytest.mark.parametrize("bad", [-1, 5, 6])
    def test_color_outside_collection_rejected(self, bad):
        # -1 used to give a collection whose packed rows were empty; 5 and
        # 6 a bare IndexError
        tc = generators.random_collection(6, 5, seed=0)
        with pytest.raises(ValueError, match=f"color {bad} is outside 0..4"):
            restrict_colors(tc, [bad])
        with pytest.raises(ValueError, match=f"color {bad} is outside"):
            restrict_colors(tc, [0, 1, bad])

    def test_no_colors_rejected(self):
        tc = generators.random_collection(6, 5, seed=0)
        with pytest.raises(ValueError, match="at least one tournament"):
            restrict_colors(tc, [])
