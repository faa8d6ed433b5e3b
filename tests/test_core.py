"""Core types: tournaments, collections, witnesses, majority tournaments."""

import pickle
import re

import numpy as np
import pytest

from conftest import all_tournaments, directed_triangle
from rainbow_tournaments.core import (
    ColoredDigraph,
    RainbowCycle,
    RainbowPath,
    Tournament,
    TournamentCollection,
    induced_collection,
    is_strongly_connected,
    iter_pairs,
    majority_subtournament,
    pair_index,
    validate_transversal,
)
from rainbow_tournaments import generators
from rainbow_tournaments.constructive import restrict_colors
from rainbow_tournaments.pipeline import transversal_ham_path


class TestTournament:
    def test_rejects_unoriented_pair(self):
        with pytest.raises(ValueError):
            Tournament(2, [0, 0])

    def test_rejects_doubly_oriented_pair(self):
        with pytest.raises(ValueError):
            Tournament(2, [0b10, 0b01])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Tournament(2, [0b11, 0b00])

    def test_degrees_sum(self):
        t = generators.random_tournament(9, seed=4)
        for v in range(9):
            assert t.out_degree(v) + t.in_degree(v) == 8

    def test_pair_bits_round_trip(self):
        for t in all_tournaments(4):
            assert Tournament.from_pair_bits(4, t.pair_bits()) == t

    def test_arcs_round_trip(self):
        t = generators.random_tournament(7, seed=0)
        assert Tournament.from_arcs(7, t.arcs()) == t

    def test_restrict_preserves_arcs(self):
        t = generators.random_tournament(12, seed=3)
        keep = [1, 4, 5, 9, 11]
        sub = t.restrict(keep)
        assert sub.n == 5
        for a, u in enumerate(keep):
            for b, v in enumerate(keep):
                if u != v:
                    assert sub.has_arc(a, b) == t.has_arc(u, v)

    def test_restrict_all_vertices_is_identity(self):
        t = generators.random_tournament(8, seed=5)
        assert t.restrict(range(8)) == t

    @pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65, 130])
    def test_restrict_matches_dense_reference(self, n):
        # word and byte boundaries of the packed rows, unsorted vertex lists
        t = generators.random_tournament(n, seed=n)
        dense = np.array([[t.has_arc(u, v) for v in range(n)]
                          for u in range(n)])
        rng = np.random.default_rng(n)
        for k in (1, 2, n // 2, n - 1, n):
            keep = rng.permutation(n)[:k].tolist()
            ref = Tournament.from_bool_matrix(dense[np.ix_(keep, keep)])
            assert t.restrict(keep) == ref

    def test_hash_and_eq(self):
        a = generators.random_tournament(6, seed=1)
        b = Tournament(a.n, a.out)
        assert a == b and hash(a) == hash(b)


class TestCollection:
    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            TournamentCollection(
                [generators.transitive_tournament(3),
                 generators.transitive_tournament(4)]
            )

    def test_json_round_trip(self):
        tc = generators.random_collection(6, 4, seed=9)
        again = TournamentCollection.from_json(tc.to_json())
        assert again.n == tc.n and again.m == tc.m
        assert list(again.tournaments) == list(tc.tournaments)

    def test_color_sets_cover_every_pair(self):
        # every pair is oriented one way or the other in each tournament
        tc = generators.random_collection(5, 4, seed=2)
        for u, v in iter_pairs(5):
            fwd, bwd = tc.arc_color_mask(u, v), tc.arc_color_mask(v, u)
            assert fwd | bwd == 0b1111 and fwd & bwd == 0


def _loop_from_pair_bits(n, bits):
    """Reference: one Python step per pair."""
    out = [0] * n
    for p, (i, j) in enumerate(iter_pairs(n)):
        if bits[p] == "1":
            out[i] |= 1 << j
        else:
            out[j] |= 1 << i
    return tuple(out)


def _loop_pair_bits(t):
    return "".join("1" if t.has_arc(i, j) else "0" for i, j in iter_pairs(t.n))


class TestPairBitsAgainstLoop:
    """The JSON pair-bit format against a pair-by-pair reference, at the
    byte and word boundaries of the packed rows."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 63, 64, 65, 130])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        want = n * (n - 1) // 2
        for _ in range(3):
            bits = "".join(map(str, rng.integers(0, 2, want).tolist()))
            t = Tournament.from_pair_bits(n, bits)
            assert t.out == _loop_from_pair_bits(n, bits)
            assert t == Tournament(n, t.out)  # passes the validating check
            assert t.pair_bits() == bits == _loop_pair_bits(t)
        for t in (generators.transitive_tournament(n),
                  generators.random_tournament(n, seed=n)):
            assert t.pair_bits() == _loop_pair_bits(t)
            assert Tournament.from_pair_bits(n, t.pair_bits()) == t

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 63, 64, 65, 130])
    def test_malformed(self, n):
        want = n * (n - 1) // 2
        msg = f"need a {{0,1}} string of length {want}"
        bits = "01" * (want // 2) + "1" * (want % 2)
        bad = [bits + "0", bits[:-1] + "00", list(bits), None]
        if want:
            bad.append(bits[:-1])
            for ch in "2 \x00\u00e9\u0661":
                for p in {0, want // 2, want - 1}:
                    bad.append(bits[:p] + ch + bits[p + 1:])
        for b in bad:
            with pytest.raises(ValueError, match=re.escape(msg)):
                Tournament.from_pair_bits(n, b)

    @pytest.mark.parametrize("n", [0, -1, -2])
    def test_no_vertices(self, n):
        with pytest.raises(ValueError, match="at least one vertex"):
            Tournament.from_pair_bits(n, "")


class TestPairIndex:
    def test_pair_index_is_inverse_of_iter_pairs(self):
        n = 7
        for k, (i, j) in enumerate(iter_pairs(n)):
            assert pair_index(n, i, j) == k


class TestWitnesses:
    def test_path_shape_checks(self):
        with pytest.raises(ValueError):
            RainbowPath((0, 1, 2), (0,))
        with pytest.raises(ValueError):
            RainbowPath((0, 1, 0), (0, 1))
        with pytest.raises(ValueError):
            RainbowPath((0, 1, 2), (0, 0))

    def test_cycle_shape_checks(self):
        with pytest.raises(ValueError):
            RainbowCycle((0, 1), (0, 1))
        with pytest.raises(ValueError):
            RainbowCycle((0, 1, 2), (0, 1))

    def test_path_validates_against_assigned_tournaments(self):
        t = generators.transitive_tournament(3)
        tc = TournamentCollection([t, t])
        p = RainbowPath((0, 1, 2), (0, 1))
        assert p.valid(tc) and p.is_hamilton(tc)

    def test_path_with_reversed_arc_is_invalid(self):
        t0 = Tournament.from_arcs(2, [(1, 0)])
        tc = TournamentCollection([t0])
        assert not RainbowPath((0, 1), (0,)).valid(tc)

    def test_validate_transversal_empty_digraph(self):
        tc = generators.random_collection(4, 3, seed=0)
        assert validate_transversal(tc, ColoredDigraph(()))

    def test_duplicate_arc_rejected(self):
        with pytest.raises(ValueError):
            ColoredDigraph(((0, 1, 0), (0, 1, 1)))

    def test_cycle_closing_arc_checked(self):
        tri = directed_triangle()
        tc = TournamentCollection([tri, tri, tri])
        cyc = RainbowCycle((0, 1, 2), (0, 1, 2))
        assert cyc.is_hamilton(tc)
        # breaking the closing arc's tournament breaks validity
        bad = TournamentCollection([tri, tri, directed_triangle(False)])
        assert not cyc.valid(bad)


class TestMajoritySubtournament:
    def test_single_tournament_is_itself(self):
        t = generators.random_tournament(8, seed=2)
        assert majority_subtournament(TournamentCollection([t])) == t

    def test_impossibility_family_n3(self):
        tc = generators.prop14_collection(3)
        tmaj = majority_subtournament(tc)
        assert set(tmaj.arcs()) == {(0, 1), (0, 2), (1, 2)}

    def test_colors_out_of_range_rejected(self):
        tc = generators.random_collection(5, 3, seed=0)
        for colors in ([], [3], [-1, 0]):
            with pytest.raises(ValueError):
                majority_subtournament(tc, colors)

    def test_vectorized_branch_matches_definition(self):
        # every pair; even m gives tied pairs, which go to the arc i->j
        # with i < j
        for n, m, seed in ((3, 2, 0), (10, 4, 1), (41, 8, 2), (130, 10, 3),
                           (170, 170, 6)):
            tc = generators.random_collection(n, m, seed=seed)
            got = majority_subtournament(tc)
            ties = 0
            for i in range(n):
                for j in range(i + 1, n):
                    cnt = tc.arc_color_mask(i, j).bit_count()
                    assert got.has_arc(i, j) == (2 * cnt >= m)
                    ties += 2 * cnt == m
            assert ties > 0 or m % 2


def _color_masks(tc):
    """masks[u][v]: bitmask of the colors with the arc u->v (0 on the
    diagonal), one arc_color_mask call per ordered pair."""
    return [
        [tc.arc_color_mask(u, v) if u != v else 0 for v in range(tc.n)]
        for u in range(tc.n)
    ]


class TestVoteCountsAgainstDenseCount:
    # byte boundaries in n, counter-width boundaries in m
    SIZES = (1, 2, 7, 8, 9, 63, 64, 65)
    COLOR_COUNTS = (1, 2, 3, 4, 7, 8, 15, 16, 17)

    @staticmethod
    def _subsets(m):
        """None (all colors), then an unsorted list with repeats."""
        yield None
        yield [m - 1, 0, m - 1, m // 2, 0]

    @pytest.mark.parametrize("n", SIZES)
    def test_every_pair(self, n):
        for m in self.COLOR_COUNTS:
            tc = generators.random_collection(n, m, seed=100 * n + m)
            masks = _color_masks(tc)
            for colors in self._subsets(m):
                chosen = set(range(m) if colors is None else colors)
                sel = sum(1 << c for c in chosen)
                k = len(chosen)
                count = [[(masks[u][v] & sel).bit_count() for v in range(n)]
                         for u in range(n)]
                got = majority_subtournament(tc, colors)
                ties = 0
                for u in range(n):
                    for v in range(u + 1, n):
                        assert count[u][v] + count[v][u] == k
                        # ties go to the arc u->v with u < v
                        wins = count[u][v] >= count[v][u]
                        assert got.has_arc(u, v) == wins
                        ties += count[u][v] == count[v][u]
                if n >= 7 and k % 2 == 0:
                    assert ties > 0


class TestInducedCollection:
    def test_identity(self):
        tc = generators.random_collection(5, 4, seed=0)
        sub, vmap = induced_collection(tc)
        assert list(sub.tournaments) == list(tc.tournaments)
        assert vmap == {v: v for v in range(5)}

    def test_composition(self):
        tc = generators.random_collection(8, 6, seed=1)
        once, m1 = induced_collection(tc, vertices=[0, 2, 3, 5, 7],
                                      colors=[1, 2, 4, 5])
        twice, m2 = induced_collection(once, vertices=[0, 1, 3],
                                       colors=[0, 2])
        direct, md = induced_collection(tc, vertices=[0, 2, 5],
                                        colors=[1, 4])
        assert list(twice.tournaments) == list(direct.tournaments)

    def test_impossibility_family_restriction(self):
        tc = generators.prop14_collection(4)
        sub, _ = induced_collection(tc, vertices=[0, 1, 2], colors=[2, 3])
        want = {(0, 2), (1, 0), (2, 1)}
        for t in sub.tournaments:
            assert set(t.arcs()) == want


def _reaches_all(masks, n):
    """Whether every vertex is reachable from vertex 0 along the masks."""
    seen = frontier = 1
    while frontier:
        step = 0
        for v in range(n):
            if (frontier >> v) & 1:
                step |= masks[v]
        frontier = step & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _strong_by_reachability(t):
    return _reaches_all(t.out, t.n) and _reaches_all(
        [t.in_mask(v) for v in range(t.n)], t.n
    )


def _with_sink(t, s):
    """t with vertex s turned into a sink: every other vertex beats it."""
    out = [mask | (1 << s) for mask in t.out]
    out[s] = 0
    return Tournament(t.n, out)


class TestStrongConnectivity:
    def test_triangle_true(self):
        assert is_strongly_connected(directed_triangle())

    def test_transitive_false(self):
        for n in range(2, 7):
            assert not is_strongly_connected(
                generators.transitive_tournament(n)
            )

    def test_matches_reachability_brute_force(self):
        for n in range(1, 6):
            for t in all_tournaments(n):
                assert is_strongly_connected(t) == _strong_by_reachability(t)

    def test_seeded_random_tournaments(self):
        seen = set()
        for seed in range(2000):
            t = generators.random_tournament(6 + seed % 7, seed=seed)
            strong = _strong_by_reachability(t)
            assert is_strongly_connected(t) == strong
            seen.add(strong)
        assert seen == {True, False}

    @pytest.mark.parametrize("n", [3, 4, 50, 51, 399, 400])
    def test_named_families(self, n):
        family = [
            generators.transitive_tournament(n),
            generators.prop14_tprime(n),
            _with_sink(generators.random_tournament(n, seed=n), n // 2),
        ]
        if n % 2:
            family.append(generators.rotational_tournament(n))
        for t in family:
            assert is_strongly_connected(t) == _strong_by_reachability(t)
        assert not is_strongly_connected(family[0])
        assert is_strongly_connected(family[1])
        assert not is_strongly_connected(family[2])
        assert n % 2 == 0 or is_strongly_connected(family[3])


# ---------------------------------------------------------------------------
# pair-native operations against out rows built pair by pair


def _ref_matrix(out, n):
    """mat[u, v] iff u->v, read off the out rows."""
    return np.array([[(mask >> v) & 1 for v in range(n)] for mask in out],
                    dtype=bool).reshape(n, n)


def _ref_in_masks(out, n):
    return [((1 << n) - 1) & ~mask & ~(1 << v) for v, mask in enumerate(out)]


def _ref_strong(out, n):
    return _reaches_all(out, n) and _reaches_all(_ref_in_masks(out, n), n)


class TestPairNativeAgainstRows:
    """Every operation that reads the packed pair bits, on tournaments
    whose out rows were never built, against references computed from
    out rows built one pair at a time from the same bit strings.  Sizes
    cover every N mod 8 (pad bits in the last byte) and byte boundaries
    of the rows."""

    SIZES = list(range(1, 71)) + [129, 256, 257]

    @staticmethod
    def _collections(n):
        """(collection, its members' bit strings): random members, shared
        members as in prop14_collection, a generated collection, and (up
        to n = 70) the pickled copy of each."""
        rng = np.random.default_rng(n)
        strings = ["".join(map(str, rng.integers(0, 2, n * (n - 1) // 2)))
                   for _ in range(3)]
        a, b = (Tournament.from_pair_bits(n, s) for s in strings[:2])
        gen = generators.random_collection(n, 4, seed=n)
        built = [
            (TournamentCollection(
                [Tournament.from_pair_bits(n, s) for s in strings]), strings),
            (TournamentCollection([a, a, b, b]),
             [strings[0], strings[0], strings[1], strings[1]]),
            (gen, [t.pair_bits() for t in gen.tournaments]),
        ]
        if n > 70:
            return built
        return built + [(pickle.loads(pickle.dumps(tc)), s)
                        for tc, s in built]

    @staticmethod
    def _pairs(n, rng):
        """Every ordered pair for small n, else a sample."""
        every = [(u, v) for u in range(n) for v in range(n) if u != v]
        if n <= 70:
            return every
        return [every[i] for i in rng.choice(len(every), 600, replace=False)]

    @pytest.mark.parametrize("n", SIZES)
    def test_operations(self, n):
        rng = np.random.default_rng(1000 + n)
        for tc, strings in self._collections(n):
            outs = [_loop_from_pair_bits(n, s) for s in strings]
            mats = np.array([_ref_matrix(out, n) for out in outs])
            pairs = self._pairs(n, rng)
            for t, s, out, mat in zip(tc.tournaments, strings, outs, mats):
                assert t.pair_bits() == s
                assert [t.has_arc(u, v) for u, v in pairs] == [
                    mat[u, v] for u, v in pairs]
                assert not t.has_arc(0, 0)
                degrees = [mask.bit_count() for mask in out]
                assert list(t.scores) == degrees
                assert [t.out_degree(v) for v in range(n)] == degrees
                assert [t.in_degree(v) for v in range(n)] == [
                    n - 1 - d for d in degrees]
                assert is_strongly_connected(t) == _ref_strong(out, n)
                for keep in (sorted(rng.choice(n, (n + 1) // 2,
                                               replace=False).tolist()),
                             rng.permutation(n).tolist()):
                    want = Tournament.from_bool_matrix(mat[np.ix_(keep, keep)])
                    assert t.restrict(keep).pair_bits() == want.pair_bits()
            for u, v in pairs:
                want = sum(1 << c for c in range(tc.m) if mats[c, u, v])
                assert tc.arc_color_mask(u, v) == want
            for colors in (None, [tc.m - 1, 0, tc.m - 1], [1]):
                chosen = sorted(set(range(tc.m) if colors is None else colors))
                count = mats[chosen].sum(axis=0)
                k = len(chosen)
                tmaj = majority_subtournament(tc, colors)
                wins = (2 * count >= k)[np.triu_indices(n, 1)]
                assert tmaj.pair_bits() == "".join(map(str, wins.astype(int)))
            # none of the above built a row cache
            assert all(t._out is None for t in tc.tournaments)
            for t, out in zip(tc.tournaments, outs):
                assert t.out == out
                assert [t.in_mask(v) for v in range(n)] == _ref_in_masks(out, n)
            again = TournamentCollection.from_json(tc.to_json())
            assert again == tc and again.to_json() == tc.to_json()
            assert [t.pair_bits() for t in again.tournaments] == strings
            assert np.array_equal(again.packed, tc.packed)


class TestSharedStorage:
    def test_generated_members_read_one_array(self):
        tc = generators.random_collection(9, 5, seed=3)
        assert tc.packed.shape == (5, (9 * 8 // 2 + 7) // 8)
        assert not tc.packed.flags.writeable
        for c, t in enumerate(tc.tournaments):
            assert np.shares_memory(t.packed, tc.packed)
            assert np.array_equal(t.packed, tc.packed[c])
            assert not t.packed.flags.writeable

    def test_consecutive_colors_share_rows(self):
        tc = generators.random_collection(9, 6, seed=5)
        for colors in ([1, 2, 3], [0, 1, 2, 3, 4, 5], [4, 2], [5]):
            sub = restrict_colors(tc, colors)
            assert sub.tournaments == tuple(tc.tournaments[c] for c in colors)
            assert np.array_equal(sub.packed, tc.packed[colors])
            assert np.shares_memory(sub.packed, tc.packed) == (
                colors != [4, 2])

    def test_constructive_path_builds_no_member_rows(self):
        tc = generators.random_collection(200, 199, seed=4)
        out = transversal_ham_path(tc, mode="constructive")
        assert out.status == "Found" and out.witness.is_hamilton(tc)
        assert all(t._out is None for t in tc.tournaments)
        assert all(np.shares_memory(t.packed, tc.packed)
                   for t in tc.tournaments)
