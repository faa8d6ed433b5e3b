"""Constructive building blocks: degree bounds, partitions, path builders."""


import numpy as np
import pytest

from conftest import all_collections, all_tournaments, directed_triangle
from rainbow_tournaments import constructive, generators
from rainbow_tournaments.constructive import (
    h_partition,
    low_degree_count_bound_check,
    rainbow_connect,
    rainbow_connect_all,
    rainbow_ham_path_forcing_color,
    rainbow_ham_path_forcing_set,
    rainbow_ham_path_one_spare,
    restrict_colors,
    split_block,
    tournament_ham_path,
)
from rainbow_tournaments.core import TournamentCollection
from rainbow_tournaments.errors import (
    ExceptionalConfigurationError,
    InsufficientColorsError,
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


class TestSplitBlock:
    def test_triangle_split_is_balanced(self):
        t = directed_triangle()
        wminus, v, wplus = split_block(t, [0, 1, 2])
        assert len(wminus) == 1 and len(wplus) == 1

    def test_transitive_middle_vertex(self):
        t = generators.transitive_tournament(7)
        wminus, v, wplus = split_block(t, range(7))
        assert v == 3 and len(wminus) == 3 and len(wplus) == 3

    def test_both_sides_at_least_sixth(self):
        t = generators.random_tournament(100, seed=5)
        wminus, v, wplus = split_block(t, range(100))
        assert min(len(wminus), len(wplus)) >= 100 // 6
        # the returned v maximizes min(in, out) within the block
        best = max(min(t.in_degree(u), t.out_degree(u)) for u in range(100))
        assert min(len(wminus), len(wplus)) == best

    def test_too_small_block_rejected(self):
        with pytest.raises(ValueError):
            split_block(directed_triangle(), [0, 1])


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
        assert hp.r >= 500 // 25

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
        a = rainbow_ham_path_one_spare(tc, vertex_order=range(8))
        b = rainbow_ham_path_one_spare(tc, vertex_order=reversed(range(8)))
        assert a.is_hamilton(tc) and b.is_hamilton(tc)


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
        tc = generators.random_collection(5, 4, seed=0, strongly_connected=True)
        for y in range(1, 5):
            p = rainbow_connect(tc, 0, y)
            assert p.vertices[0] == 0 and p.vertices[-1] == y
            assert p.valid(tc)
            assert list(p.colors) == sorted(p.colors)

    def test_two_triangles(self):
        tri = directed_triangle()
        tc = TournamentCollection([tri, tri])
        p = rainbow_connect(tc, 0, 2)
        assert p.vertices == (0, 1, 2) and p.colors == (0, 1)

    def test_all_pairs_random(self):
        for seed in range(5):
            tc = generators.random_collection(
                12, 11, seed=seed, strongly_connected=True
            )
            for x in range(12):
                got = rainbow_connect_all(tc, x)
                assert set(got) == set(range(12)) - {x}
                for y, p in got.items():
                    assert p.vertices[0] == x and p.vertices[-1] == y
                    assert p.valid(tc)
                    colors = list(p.colors)
                    assert colors == sorted(colors)

    def test_same_endpoints_rejected(self):
        tc = generators.random_collection(5, 4, seed=0, strongly_connected=True)
        with pytest.raises(ValueError):
            rainbow_connect(tc, 2, 2)


class TestRestrictColors:
    def test_order_preserved(self):
        tc = generators.random_collection(6, 6, seed=0)
        sub = restrict_colors(tc, [4, 1])
        assert sub.m == 2
        assert sub.tournaments[0] == tc.tournaments[4]
        assert sub.tournaments[1] == tc.tournaments[1]
