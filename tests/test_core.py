"""Core types: tournaments, collections, witnesses, majority tournaments."""

import copy
import itertools
import pickle
import re

import numpy as np
import pytest

from conftest import (all_tournaments, directed_triangle, from_bool_matrix,
                      iter_pairs, stream_draw)
from rainbow_tournaments.core import (
    ColoredDigraph,
    RainbowCycle,
    RainbowPath,
    Tournament,
    TournamentCollection,
    induced_collection,
    is_strongly_connected,
    majority_subtournament,
    pair_index,
    restrict_colors,
    validate_transversal,
)
from rainbow_tournaments import core, generators
from rainbow_tournaments.constructive import rainbow_ham_path_one_spare
from rainbow_tournaments.pipeline import (transversal_ham_cycle,
                                          transversal_ham_path)


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_accepts_exactly_the_tournaments(self, n):
        # every tuple of n out-masks (512 at n = 3): a tournament orients
        # each pair once and has no self-loop; its pair bits are read off
        # the definition, one pair (i, j), i < j, at a time
        accepted = 0
        for out in itertools.product(range(1 << n), repeat=n):
            arc = [[out[u] >> v & 1 for v in range(n)] for u in range(n)]
            ok = all(arc[u][v] + arc[v][u] == (u != v)
                     for u in range(n) for v in range(n))
            if not ok:
                with pytest.raises(ValueError, match="exactly once"):
                    Tournament(n, out)
                continue
            accepted += 1
            want = "".join(str(arc[i][j]) for i, j in iter_pairs(n))
            assert Tournament(n, out).pair_bits() == want
        assert accepted == 2 ** (n * (n - 1) // 2)

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

    @pytest.mark.parametrize("keep", [[0, 0, 9], [0, 0, 1], [1, 6], [-1, 2]],
                             ids=["repeat-and-outside", "repeat",
                                  "equal-to-n", "negative"])
    def test_restrict_rejects_bad_vertices(self, keep):
        t = generators.random_tournament(6, seed=0)
        with pytest.raises(ValueError, match="distinct|range"):
            t.restrict(keep)

    @pytest.mark.parametrize("keep", [[0.5, 1.7, 2.2], [0.2, 0.7],
                                      [0, 1.0], np.array([0.0, 3.0])],
                             ids=["fractions", "fractions-same-int",
                                  "integral-float", "float-array"])
    def test_restrict_rejects_non_integer_vertices(self, keep):
        # used to truncate to 0, 1, 2 (or call 0.2, 0.7 repeated)
        t = generators.random_tournament(6, seed=0)
        with pytest.raises(TypeError):
            t.restrict(keep)

    def test_restrict_rejects_huge_vertex_as_out_of_range(self):
        # used to raise OverflowError while building the index array
        t = generators.random_tournament(6, seed=0)
        with pytest.raises(ValueError, match="range"):
            t.restrict([0, 1, 2**70])

    def test_restrict_accepts_integer_types(self):
        t = generators.random_tournament(9, seed=2)
        want = t.restrict([7, 0, 4])
        assert t.restrict(np.array([7, 0, 4], dtype=np.int16)) == want
        assert t.restrict((np.int64(7), 0, np.uint8(4))) == want

    def test_restrict_to_no_vertices_rejected(self):
        # used to return Tournament(n=0, bits=''), which the constructor
        # forbids
        t = generators.random_tournament(6, seed=0)
        with pytest.raises(ValueError, match="one or more vertices"):
            t.restrict([])

    @pytest.mark.parametrize("cached", [False, True])
    def test_has_arc_rejects_vertices_outside_range(self, cached):
        # uncached, these read other pairs' bits (or a pad bit); cached,
        # they raised "negative shift count", IndexError, or read the last
        # row for u = -1
        t = generators.random_tournament(6, seed=1)
        if cached:
            t.out
        for u, v in ((0, -1), (2, 6), (7, 9), (-1, 0), (6, 0)):
            with pytest.raises(ValueError, match=r"invalid arc"):
                t.has_arc(u, v)
        assert (t._out is not None) == cached

    @pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65, 130])
    def test_restrict_matches_dense_reference(self, n):
        # word and byte boundaries of the packed rows, unsorted vertex lists
        t = generators.random_tournament(n, seed=n)
        dense = np.array([[t.has_arc(u, v) for v in range(n)]
                          for u in range(n)])
        rng = np.random.default_rng(n)
        for k in (1, 2, n // 2, n - 1, n):
            keep = rng.permutation(n)[:k].tolist()
            ref = from_bool_matrix(dense[np.ix_(keep, keep)])
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


class TestArcColorMasks:
    @pytest.mark.parametrize("m", [1, 7, 8, 9, 64, 65])
    def test_agrees_with_has_arc(self, m):
        # m around the byte boundaries of the packed color columns
        n = 11
        tc = generators.random_collection(n, m, seed=m)
        rng = np.random.default_rng(m)
        arcs = [tuple(rng.choice(n, 2, replace=False).tolist())
                for _ in range(60)]
        assert any(u < v for u, v in arcs) and any(u > v for u, v in arcs)
        got = tc.arc_color_masks(arcs)
        assert got == [
            sum(1 << c for c in range(m) if tc.tournaments[c].has_arc(u, v))
            for u, v in arcs]
        assert got == [tc.arc_color_mask(u, v) for u, v in arcs]
        assert tc.arc_color_masks(iter(arcs)) == got

    def test_no_arcs(self):
        assert generators.random_collection(5, 3, seed=0).arc_color_masks(
            []) == []

    @pytest.mark.parametrize("bad", [(3, 3), (-1, 2), (2, -1), (0, 6),
                                     (6, 0)])
    def test_bad_arc_named(self, bad):
        tc = generators.random_collection(6, 9, seed=1)
        msg = re.escape(f"invalid arc ({bad[0]},{bad[1]}) for n=6")
        with pytest.raises(ValueError, match=msg):
            tc.arc_color_masks([(0, 1), bad, (1, 2)])
        with pytest.raises(ValueError, match=msg):
            tc.arc_color_mask(*bad)


class TestPackRows:
    """_pack_rows against one Python step per bit, on any layout of a
    0/nonzero uint8 block."""

    @staticmethod
    def _reference(block):
        return tuple(sum(1 << v for v, x in enumerate(row) if x)
                     for row in block.tolist())

    @pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 64, 65])
    @pytest.mark.parametrize("rows", [0, 1, 3, 9])
    def test_agrees_with_a_loop(self, rows, width):
        rng = np.random.default_rng(rows * 100 + width)
        # bytes 0, 0x41, 0x82 and 0xc3: any nonzero byte is a 1 bit
        block = rng.integers(0, 4, (rows, width), dtype=np.uint8) * 0x41
        for view in (block, block.T, block[:, 1:], block.T[:, ::2]):
            got = core._pack_rows(view)
            assert got == self._reference(view)
            assert len(got) == view.shape[0]

    def test_no_columns_give_zeros(self):
        assert core._pack_rows(np.zeros((3, 0), np.uint8)) == (0, 0, 0)
        assert core._pack_rows(np.zeros((0, 0), np.uint8)) == ()


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

    @pytest.mark.parametrize("arcs", [
        ((0, 1, 2), (1, 2, 1)),
        ((0, 1, -1), (1, 2, 1)),
        ((0, 1, 0), (1, 2, 0)),
        ((0, 1, 0), (1, 3, 1)),
        ((0, 1, 0), (2, 1, 1)),
        ((0, 1, 0), (1, 2, 1.5)),
        ((0, 1, 0), (1, 2, None)),
        ((0, 1, 0), (1, 2, "1")),
        ((0, 1.5, 0), (1.5, 2, 1)),
        RainbowPath((0, 1.5), (0,)),
    ], ids=["color-equal-to-m", "color-negative", "color-twice",
            "vertex-equal-to-n", "reversed-arc", "color-float",
            "color-none", "color-str", "vertex-float", "path-vertex-float"])
    def test_validate_transversal_rejects_each_defect(self, arcs):
        # two transitive triangles (arc i->j iff i < j): 0->1->2 with
        # colors 0, 1 is transversal, and each case breaks it once; a
        # malformed witness is answered, not raised on
        t = generators.transitive_tournament(3)
        tc = TournamentCollection([t, t])
        assert validate_transversal(tc, ColoredDigraph(((0, 1, 0), (1, 2, 1))))
        if isinstance(arcs, RainbowPath):
            assert not arcs.valid(tc)
        else:
            assert not validate_transversal(tc, ColoredDigraph(arcs))

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

    @staticmethod
    def colored_walk(tc, verts, cyclic):
        """RainbowPath or RainbowCycle on verts, each arc taking the lowest
        color not yet taken whose tournament has it, else None."""
        ends = verts[1:] + verts[:1] if cyclic else verts[1:]
        free, cols = set(range(tc.m)), []
        for u, v in zip(verts, ends):
            fits = [c for c in sorted(free) if tc.tournaments[c].has_arc(u, v)]
            if not fits:
                return None
            cols.append(fits[0])
            free.discard(fits[0])
        return (RainbowCycle if cyclic else RainbowPath)(
            tuple(verts), tuple(cols))

    @staticmethod
    def corruptions(tc, w):
        """Copies of the walk w, each with one defect: a color outside
        range(m), a vertex outside range(n), an arc recolored to an unused
        color without it and, for a cycle, its closing arc so recolored."""
        kind, vs, cs = type(w), list(w.vertices), list(w.colors)
        ends = vs[1:] + vs[:1]
        unused = [c for c in range(tc.m) if c not in cs]
        yield kind(tuple(vs), (*cs[:-1], tc.m))
        yield kind(tuple(vs), (-1, *cs[1:]))
        yield kind((*vs[:-1], tc.n), tuple(cs))
        yield kind((-1, *vs[1:]), tuple(cs))
        for j in (len(cs) // 2, len(cs) - 1):
            u, v = vs[j], ends[j]
            lacking = [c for c in unused
                       if not tc.tournaments[c].has_arc(u, v)]
            if lacking:
                yield kind(tuple(vs), (*cs[:j], lacking[0], *cs[j + 1:]))

    @pytest.mark.parametrize("cyclic", [False, True], ids=["path", "cycle"])
    def test_walk_check_matches_digraph_check(self, cyclic):
        # valid() reads the walk in place; its arcs() as a ColoredDigraph
        # take the general check, which is the reference
        rng = np.random.default_rng(int(cyclic))
        checked = bad = 0
        for trial in range(300):
            n = int(rng.integers(3, 12))
            m = int(rng.integers(n, 3 * n + 1))
            tc = generators.random_collection(n, m, seed=trial)
            k = int(rng.integers(3, n + 1))
            w = self.colored_walk(tc, rng.permutation(n)[:k].tolist(), cyclic)
            if w is None:
                continue
            assert w.valid(tc) and validate_transversal(tc, w.arcs())
            assert w.is_hamilton(tc) == (k == n)
            for bad_w in self.corruptions(tc, w):
                assert not validate_transversal(tc, bad_w.arcs())
                assert not bad_w.valid(tc) and not bad_w.is_hamilton(tc)
                bad += 1
            checked += 1
        assert checked > 200 and bad > 5 * checked

    @staticmethod
    def hamilton_path_and_cycle():
        tc = generators.random_collection(9, 9, seed=3)
        cycle = transversal_ham_cycle(tc).witness
        return tc, rainbow_ham_path_one_spare(tc), cycle

    def test_walk_check_reads_no_digraph(self, monkeypatch):
        tc, p, c = self.hamilton_path_and_cycle()
        monkeypatch.setattr(core.ColoredDigraph, "__post_init__",
                            lambda self: pytest.fail("a digraph was built"))
        assert p.is_hamilton(tc) and c.is_hamilton(tc)

    def test_is_hamilton_reaches_validate_transversal(self, monkeypatch):
        # the benchmark's core.validate_transversal metrics count it by
        # patching the module-level name
        tc, p, c = self.hamilton_path_and_cycle()
        real, seen = core.validate_transversal, []

        def counted(coll, d):
            seen.append(d)
            return real(coll, d)

        monkeypatch.setattr(core, "validate_transversal", counted)
        assert p.is_hamilton(tc) and c.is_hamilton(tc)
        assert seen == [p, c]


class TestMajoritySubtournament:
    def test_single_tournament_is_itself(self):
        t = generators.random_tournament(8, seed=2)
        assert majority_subtournament(TournamentCollection([t])) == t

    def test_impossibility_family_n3(self):
        tc = generators.prop14_collection(3)
        tmaj = majority_subtournament(tc)
        assert set(tmaj.arcs()) == {(0, 1), (0, 2), (1, 2)}

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
                sub = tc if colors is None else restrict_colors(tc, colors)
                chosen = range(m) if colors is None else colors
                k = len(chosen)
                # a repeated color votes once per listing
                count = [[sum(masks[u][v] >> c & 1 for c in chosen)
                          for v in range(n)] for u in range(n)]
                got = majority_subtournament(sub)
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


def _dense_majority(coll):
    """The majority tournament's packed pair bits from a dense count of
    the unpacked member rows: pair (i, j), i < j, is 1 iff at least
    ceil(m/2) members have i->j (ties go to i->j)."""
    size = coll.n * (coll.n - 1) // 2
    rows = np.stack([t.packed for t in coll.tournaments])
    count = np.unpackbits(rows, axis=1).sum(axis=0)[:size]
    return np.packbits(count >= (coll.m + 1) // 2).tobytes()


class TestVoteLanes:
    # m = 15..101 puts g = 1..5 members in a lane row, with m mod g in
    # {0, 1, g - 1}; at (400, 399) the row width caps g at 6 (399 mod 6 = 3)
    CASES = [(n, m) for n in (9, 40, 130)
             for m in (15, 16, 17, 35, 36, 37, 99, 100, 101)] + [(400, 399)]

    @pytest.mark.parametrize("n, m", CASES)
    def test_lanes_match_dense_count(self, n, m):
        tc = generators.random_collection(n, m, seed=n + m)
        more = generators.random_collection(n, m + 2, seed=n + m)
        for coll in (tc, TournamentCollection(list(tc.tournaments)),
                     restrict_colors(more, range(2, m + 2)),
                     restrict_colors(more, [k * k % (m + 2)
                                            for k in range(m)])):
            assert coll.m == m
            got = majority_subtournament(coll).packed.tobytes()
            assert got == _dense_majority(coll)


class TestInducedCollection:
    def test_identity(self):
        tc = generators.random_collection(5, 4, seed=0)
        sub = induced_collection(tc, range(5))
        assert list(sub.tournaments) == list(tc.tournaments)

    def test_composition(self):
        tc = generators.random_collection(8, 6, seed=1)
        once = induced_collection(restrict_colors(tc, [1, 2, 4, 5]),
                                  [0, 2, 3, 5, 7])
        twice = induced_collection(restrict_colors(once, [0, 2]), [0, 1, 3])
        direct = induced_collection(restrict_colors(tc, [1, 4]), [0, 2, 5])
        assert list(twice.tournaments) == list(direct.tournaments)

    def test_listed_order_kept(self):
        tc = generators.random_collection(7, 3, seed=2)
        sub = induced_collection(tc, [5, 0, 3])
        assert sub.tournaments == tuple(t.restrict([5, 0, 3])
                                        for t in tc.tournaments)

    @pytest.mark.parametrize("vertices", [[], [0, 0, 1], [1, 7], [-1, 2]],
                             ids=["empty", "repeat", "equal-to-n",
                                  "negative"])
    def test_bad_vertices_rejected(self, vertices):
        tc = generators.random_collection(7, 3, seed=2)
        with pytest.raises(ValueError, match="vertex|distinct|range"):
            induced_collection(tc, vertices)

    @pytest.mark.parametrize("m", [1, 2, 49])
    @pytest.mark.parametrize("n", [2, 9, 60])
    def test_equals_member_by_member_restrict(self, n, m):
        tc = generators.random_collection(n, m, seed=n * 100 + m)
        rng = np.random.default_rng(n + m)
        lists = [sorted(rng.choice(n, (n + 1) // 2, replace=False).tolist()),
                 rng.permutation(n).tolist(), [n - 1], [0]]
        subs = [tc, restrict_colors(tc, range(m // 2, m)),
                restrict_colors(tc, [m - 1, 0, m // 2, 0])]
        for base in subs:
            for vs in lists:
                got = induced_collection(base, vs)
                want = tuple(t.restrict(vs) for t in base.tournaments)
                assert got.n == len(vs) and got.m == base.m
                assert got.tournaments == want
                assert [t.pair_bits() for t in got.tournaments] == [
                    t.pair_bits() for t in want]
        # against a dense reference, which shares no code with restrict
        last = tc.tournaments[-1]
        dense = np.array([[last.has_arc(u, v) for v in range(n)]
                          for u in range(n)])
        vs = lists[1]
        ref = from_bool_matrix(dense[np.ix_(vs, vs)])
        assert induced_collection(tc, vs).tournaments[-1] == ref

    @pytest.mark.parametrize("vertices", [[], [3, 0, 3], [0, 9], [2, -1]],
                             ids=["empty", "repeat", "equal-to-n",
                                  "negative"])
    def test_bad_list_fails_before_any_member(self, vertices, monkeypatch):
        tc = generators.random_collection(9, 4, seed=6)
        with pytest.raises(ValueError) as first:
            tc.tournaments[0].restrict(vertices)

        def built(*args):
            raise AssertionError("a member was built")

        monkeypatch.setattr(Tournament, "_from_packed", classmethod(built))
        with pytest.raises(ValueError) as whole:
            induced_collection(tc, vertices)
        assert str(whole.value) == str(first.value)

    def test_non_integer_vertices_rejected(self):
        tc = generators.random_collection(7, 3, seed=2)
        with pytest.raises(TypeError):
            induced_collection(tc, [0.5, 1.7, 2.2])

    def test_integer_types_keep_pair_positions_wide(self):
        # 150 * (2 * 300 - 150 - 3) overflows int16, and numpy makes
        # float64 of uint64 mixed with int64
        tc = generators.random_collection(300, 3, seed=4)
        want = induced_collection(tc, [299, 0, 150])
        for vs in (np.array([299, 0, 150], dtype=np.int16),
                   [np.uint64(299), np.int64(0), 150]):
            assert induced_collection(tc, vs) == want

    @pytest.mark.parametrize("rows", [True, False], ids=["rows", "no-rows"])
    def test_members_are_rows_of_one_array(self, rows):
        # a base without rows is what a block solve passes: the colors of
        # restrict_colors are not one run
        tc = generators.random_collection(9, 6, seed=3)
        base = tc if rows else restrict_colors(tc, [4, 0, 2, 5])
        assert (base._packed is not None) == rows
        sub = induced_collection(base, [8, 1, 5, 2, 6])
        assert sub.packed.shape == (base.m, 2)
        for t in sub.tournaments:
            assert np.shares_memory(sub.packed, t.packed)

    def test_impossibility_family_restriction(self):
        tc = generators.prop14_collection(4)
        sub = induced_collection(restrict_colors(tc, [2, 3]), [0, 1, 2])
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


def _landau(t):
    """A fresh Landau test: no proper prefix of the sorted scores sums to
    C(k, 2)."""
    prefix = np.cumsum(np.sort(t.scores))[:-1]
    return all(s != k * (k + 1) // 2 for k, s in enumerate(prefix))


class TestVerdictCache:
    def test_cached_verdict_is_a_fresh_landau_test(self):
        seen = set()
        for n in range(3, 13):
            for seed in range(30):
                t = generators.random_tournament(n, seed=seed)
                assert t._strong is None
                verdict = is_strongly_connected(t)
                assert t._strong is verdict
                assert verdict == _landau(t) == _strong_by_reachability(t)
                assert is_strongly_connected(t) is verdict
                seen.add(verdict)
        assert seen == {True, False}

    # m = 4 seeds each member alone, m = 12 all of them in one array pass;
    # n = 130 draws blocks of 7 members, so the strong ones span six
    @pytest.mark.parametrize("m, n", [(4, 9), (12, 9), (40, 130)],
                             ids=["4", "12", "40"])
    def test_generated_strong_members_answer_from_the_cache(
            self, m, n, monkeypatch):
        tc = generators.random_collection(
            n, m, seed=3, strongly_connected_count=m - 1)

        def no_numpy(*args):
            raise AssertionError("verdict not cached")

        monkeypatch.setattr(core, "_landau_strong", no_numpy)
        monkeypatch.setattr(core, "_scores_from_pairs", no_numpy)
        assert all(is_strongly_connected(t) for t in tc.tournaments[:-1])
        with pytest.raises(AssertionError, match="not cached"):
            is_strongly_connected(tc.tournaments[-1])

    @pytest.mark.parametrize("read", [
        lambda tc: TournamentCollection.from_json(tc.to_json()).tournaments,
        lambda tc: pickle.loads(pickle.dumps(tc)).tournaments,
        lambda tc: [t.restrict(range(tc.n)) for t in tc.tournaments],
    ], ids=["from_json", "unpickled", "restrict"])
    def test_members_made_again_compute_their_own(self, read, monkeypatch):
        tc = generators.random_collection(8, 6, seed=4,
                                          strongly_connected_count=5)
        assert all(t._strong is True for t in tc.tournaments[:5])
        calls = []
        landau = core._landau_strong
        monkeypatch.setattr(core, "_landau_strong",
                            lambda s: calls.append(s.shape) or landau(s))
        again = read(tc)
        assert all(t._strong is None for t in again)
        assert [is_strongly_connected(t) for t in again] == [
            is_strongly_connected(t) for t in tc.tournaments]
        # six members read again, tc's free one: each a block of one
        assert calls == [(1, 8)] * 7


def _scores_by_has_arc(t):
    return [sum(t.has_arc(u, v) for v in range(t.n) if v != u)
            for u in range(t.n)]


class TestBlockScoresAndLandau:
    """core._scores_from_pairs and core._landau_strong on blocks of pair
    rows, and the generator's one pass per draw block, against scores
    read with has_arc and verdicts by reachability."""

    @staticmethod
    def check_block(n, ts):
        rows = np.stack([t.packed for t in ts])
        scores = core._scores_from_pairs(n, rows)
        assert not scores.flags.writeable
        assert scores.tolist() == [_scores_by_has_arc(t) for t in ts]
        verdicts = core._landau_strong(scores).tolist()
        assert verdicts == [_strong_by_reachability(t) for t in ts]
        return verdicts

    @pytest.mark.parametrize("n", range(3, 13))
    def test_blocks_mixing_strong_and_not(self, n):
        # seed n, or at n = 12 the first seed above it whose 40 draws mix
        tc = generators.random_collection(n, 40, seed={12: 15}.get(n, n))
        assert set(self.check_block(n, tc.tournaments)) == {True, False}

    @pytest.mark.parametrize("n", [3, 4, 9, 50, 51])
    def test_named_families(self, n):
        family = [generators.transitive_tournament(n),
                  generators.prop14_tprime(n),
                  _with_sink(generators.random_tournament(n, seed=n), n // 2)]
        if n % 2:
            family.insert(1, generators.rotational_tournament(n))
        verdicts = self.check_block(n, family)
        assert verdicts == [False] + [True] * (n % 2) + [True, False]

    def test_block_of_one_at_n_257(self):
        t = generators.random_tournament(257, seed=1)
        assert self.check_block(257, [t]) == [is_strongly_connected(t)]
        assert t.scores.tolist() == _scores_by_has_arc(t)

    @staticmethod
    def record(monkeypatch, name):
        """Shapes of the blocks (last argument) generators.name gets."""
        shapes, f = [], getattr(generators, name)
        monkeypatch.setattr(generators, name,
                            lambda *a: shapes.append(a[-1].shape) or f(*a))
        return shapes

    @pytest.mark.parametrize("k", [7, 10, 14, 20])
    def test_strong_boundary_inside_a_block(self, k, monkeypatch):
        """At n = 130 a draw block holds 7 members, so k = 10 stops the
        strong candidates inside the second block."""
        shapes = self.record(monkeypatch, "_scores_from_pairs")
        tc = generators.random_collection(130, 20, seed=5,
                                          strongly_connected_count=k)
        assert shapes == [(min(7, k - lo), 1049) for lo in range(0, k, 7)]
        for pos, t in enumerate(tc.tournaments):
            if pos < k:
                assert t._strong is True
                assert t._scores.tolist() == _scores_by_has_arc(t)
            else:
                assert t._scores is None and t._strong is None

    def test_redrawn_member_gets_a_fresh_verdict(self, monkeypatch):
        """At n = 3 most draws are not strong: each redraw is tested on
        its own, in a block of one, and the kept member holds its own
        scores, not those of the row it replaced.  A draw budget (one
        read of every row, then one per redraw) turns a verdict that never
        clears into a failure."""
        n, m, k, seed = 3, 12, 9, 2
        want, rejected = [], 0
        for i in range(m):
            for attempt in range(1000):
                t = stream_draw(n, seed, i, attempt)
                if i >= k or _strong_by_reachability(t):
                    break
            want.append(t)
            rejected += attempt
        assert rejected > 0
        draws, draw = [], generators._draw_tournament

        def budgeted(*a):
            draws.append(a)
            assert len(draws) <= 1 + rejected, "a stale verdict redraws"
            return draw(*a)

        monkeypatch.setattr(generators, "_draw_tournament", budgeted)
        landau = self.record(monkeypatch, "_landau_strong")
        landau_one, f = [], core._landau_strong
        monkeypatch.setattr(core, "_landau_strong",
                            lambda s: landau_one.append(s.shape) or f(s))
        tc = generators.random_collection(n, m, seed,
                                          strongly_connected_count=k)
        assert list(tc.tournaments) == want and len(draws) == 1 + rejected
        assert landau == [(k, n)] and landau_one == [(1, n)] * rejected
        for t in tc.tournaments[:k]:
            assert t._strong is True
            assert t._scores.tolist() == _scores_by_has_arc(t)


class TestSizeCaches:
    def test_a_second_sweep_misses_no_size_cache(self):
        """Two passes of path and cycle solves at n = 10, 13, ..., 130 on
        instances drawn afresh each pass: the second pass finds every
        size in the caches keyed by n."""
        caches = (core._upper_mask,)

        def sweep():
            for n in range(10, 131, 3):
                tc = generators.random_collection(n, n, seed=n,
                                                  strongly_connected_count=n - 1)
                assert transversal_ham_path(tc).status == "Found"
                assert transversal_ham_cycle(tc).status == "Found"

        sweep()
        before = [f.cache_info() for f in caches]
        sweep()
        after = [f.cache_info() for f in caches]
        assert [a.misses for a in after] == [b.misses for b in before]
        assert all(a.hits > b.hits for a, b in zip(after, before))


def _split_strong(n, seed):
    """Random strong tournaments on two halves A and B of range(n), in a
    shuffled labelling, with every arc A -> B: the |B| lowest scores sum
    to exactly C(|B|, 2), a floor met at a middle prefix."""
    rng = np.random.default_rng(seed)
    a = n // 2 + 1
    mat = np.zeros((n, n), dtype=bool)
    for lo, hi, part in ((0, a, 0), (a, n, 1)):
        half = generators.random_tournament(
            hi - lo, seed=seed, strongly_connected=True, index=part)
        for u in range(hi - lo):
            for v in range(hi - lo):
                mat[lo + u, lo + v] = u != v and half.has_arc(u, v)
    mat[:a, a:] = True
    perm = rng.permutation(n)
    return from_bool_matrix(mat[np.ix_(perm, perm)]), n - a


class TestLandauFloorAtAMiddlePrefix:
    """Tournaments whose sorted score prefix meets Landau's floor at a
    middle k (the named families above only reach k = 1), with strong
    and random ones of the same size, against reachability."""

    @pytest.mark.parametrize("n", [7, 38, 42, 64, 130])
    def test_agrees_with_reachability(self, n):
        split, low = _split_strong(n, seed=n)
        scores = np.sort(split.scores)
        assert scores[:low].sum() == low * (low - 1) // 2 and 1 < low < n - 1
        family = [
            split,
            _split_strong(n, seed=n + 1)[0],
            generators.transitive_tournament(n),
            generators.prop14_tprime(n),
            _with_sink(generators.random_tournament(n, seed=n), n // 2),
        ] + [generators.random_tournament(n, seed=s) for s in range(4)]
        got = [is_strongly_connected(t) for t in family]
        assert got == [_strong_by_reachability(t) for t in family]
        assert got[:4] == [False, False, False, True]


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
                    want = from_bool_matrix(mat[np.ix_(keep, keep)])
                    assert t.restrict(keep).pair_bits() == want.pair_bits()
            for u, v in pairs:
                want = sum(1 << c for c in range(tc.m) if mats[c, u, v])
                assert tc.arc_color_mask(u, v) == want
            for colors in (None, [tc.m - 1, 0, tc.m - 1], [1]):
                sub = tc if colors is None else restrict_colors(tc, colors)
                chosen = list(range(tc.m)) if colors is None else colors
                count = mats[chosen].sum(axis=0)  # repeats count twice
                k = len(chosen)
                tmaj = majority_subtournament(sub)
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

    # m = 4 seeds each member alone, m = 12 all of them in one array pass
    @pytest.mark.parametrize("m", [4, 12])
    def test_strong_members_keep_their_scores_on_their_rows(self, m):
        # at n = 3 a draw is strong one time in four, so most are redrawn;
        # each kept member is the one tested, with its scores cached
        tc = generators.random_collection(
            3, m, seed=2, strongly_connected_count=m - 1)
        for c, t in enumerate(tc.tournaments):
            assert np.shares_memory(t.packed, tc.packed)
            assert np.array_equal(t.packed, tc.packed[c])
            assert (t._scores is not None) == (c < m - 1)

    def test_consecutive_colors_share_rows(self):
        tc = generators.random_collection(9, 6, seed=5)
        for colors in ([1, 2, 3], [0, 1, 2, 3, 4, 5], [4, 2], [5]):
            sub = restrict_colors(tc, colors)
            assert sub.tournaments == tuple(tc.tournaments[c] for c in colors)
            assert np.array_equal(sub.packed, tc.packed[colors])
            assert np.shares_memory(sub.packed, tc.packed) == (
                colors != [4, 2])

    @pytest.mark.parametrize("build", [
        lambda: generators.prop14_collection(7),  # members repeat one object
        lambda: TournamentCollection(  # rows stacked on first read of packed
            [generators.random_tournament(9, seed=s) for s in range(4)]),
    ], ids=["repeated-members", "stacked-lazily"])
    def test_pickle_round_trip_reads_one_array(self, build):
        tc = build()
        again = pickle.loads(pickle.dumps(tc))
        assert tc._packed is None  # pickling stacks rows, caching none
        assert again == tc and again.tournaments == tc.tournaments
        assert np.array_equal(again.packed, tc.packed)
        assert not again.packed.flags.writeable
        for c, t in enumerate(again.tournaments):
            assert np.shares_memory(t.packed, again.packed)
            assert np.array_equal(t.packed, again.packed[c])

    def test_shallow_copy_leaves_members_on_their_rows(self):
        tc = generators.random_collection(6, 3, seed=1)
        again = copy.copy(tc)
        assert again == tc and again.tournaments[0] is not tc.tournaments[0]
        for coll in (tc, again):
            assert all(np.shares_memory(t.packed, coll.packed)
                       for t in coll.tournaments)

    def test_constructive_path_builds_no_member_rows(self):
        tc = generators.random_collection(200, 199, seed=4)
        out = transversal_ham_path(tc, mode="constructive")
        assert out.status == "Found" and out.witness.is_hamilton(tc)
        assert all(t._out is None for t in tc.tournaments)
        assert all(np.shares_memory(t.packed, tc.packed)
                   for t in tc.tournaments)
