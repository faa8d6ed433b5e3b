"""Color absorbers: randomized construction and exchange guarantees."""

import collections
import hashlib
import itertools
import math

import numpy as np
import pytest

from conftest import is_rainbow
from rainbow_tournaments import constructive, generators, harness
from rainbow_tournaments.constructive import (
    Absorber,
    _hall_every_topup,
    _verify_absorber,
    absorb,
    build_absorber,
    tournament_ham_path,
)
from rainbow_tournaments.core import (
    TournamentCollection,
    _pack_rows,
    majority_subtournament,
)
from rainbow_tournaments.errors import (
    AbsorberConstructionError,
    AbsorptionFailedError,
)
from rainbow_tournaments.matching import (
    IncrementalMatcher,
    _slots_holding,
    perfect_matching,
)


def dense_instance(n, m, seed=0):
    tc = generators.random_collection(n, m, seed=seed)
    # pick target arcs that exist in many colors: take majority directions
    arcs = []
    for u in range(0, n - 1, 2):
        v = u + 1
        if tc.arc_color_mask(u, v).bit_count() >= m // 2:
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    return tc, arcs


class TestBuildAbsorber:
    def test_zero_topup(self):
        tc, arcs = dense_instance(8, 30)
        ab = build_absorber(tc, arcs, range(30), ell=0, c_size=5)
        assert len(ab.A) == len(arcs)
        got = absorb(ab, [])
        assert is_rainbow(got)
        assert {c for _, _, c in got.arcs} == set(ab.A)

    def test_not_enough_colors(self):
        tc, arcs = dense_instance(8, 30)
        with pytest.raises(AbsorberConstructionError):
            build_absorber(tc, arcs, range(5), ell=2, c_size=10)

    def test_reserve_smaller_than_ell_rejected(self):
        # no ell-subset of C exists, so nothing could ever be absorbed
        tc, arcs = dense_instance(8, 30)
        with pytest.raises(ValueError):
            build_absorber(tc, arcs, range(30), ell=3, c_size=2)

    @pytest.mark.parametrize("bad", [-3, -1, 30, 31])
    def test_color_outside_collection_rejected(self, bad):
        # a negative color used to die inside the draws ("negative shift
        # count"); a color >= m has no arcs, yet could be accepted into C
        tc, arcs = dense_instance(8, 30)
        with pytest.raises(ValueError, match=f"color {bad} "):
            build_absorber(tc, arcs, [bad, *range(1, 30)], ell=1,
                           c_size=6)

    def test_exhaustive_small_family(self):
        # all ell-subsets of C must absorb, checked one by one
        tc, arcs = dense_instance(10, 40, seed=1)
        ab = build_absorber(tc, arcs, range(40), ell=2, c_size=12)
        for cprime in itertools.combinations(ab.C, ab.ell):
            got = absorb(ab, cprime)
            assert is_rainbow(got)
            used = {c for _, _, c in got.arcs}
            assert used == set(ab.A) | set(cprime)
            # every arc is colored by a tournament that contains it
            for u, v, c in got.arcs:
                assert tc.tournaments[c].has_arc(u, v)

    def test_large_family_random_probes(self):
        tc, arcs = dense_instance(30, 120, seed=2)
        ab = build_absorber(tc, arcs, range(120), ell=3, c_size=30)
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(500):
            cprime = rng.choice(ab.C, size=3, replace=False)
            got = absorb(ab, [int(c) for c in cprime])
            assert is_rainbow(got)

    def test_instance_without_any_absorber(self):
        # the lemma-absorber suite's instance at n = 7, seed 6: 6 target
        # arcs, ell = 2, |A| = 4 and |C| = 10 use all 14 colors, so A fixes
        # C, and none of the C(14, 4) = 1001 choices of A is an absorber:
        # the suite's failure there is the instance's, not build_absorber's
        n, seed = 7, 6
        assert harness._lemma_absorber((n, seed))["kind"] == "absorber-build"
        tc = generators.random_collection(n, 2 * n, seed=seed)
        path = tournament_ham_path(majority_subtournament(tc))
        arcs = list(zip(path, path[1:]))
        with pytest.raises(AbsorberConstructionError):
            build_absorber(tc, arcs, range(tc.m), 2, c_size=10, seed=seed)
        avail = [tc.arc_color_mask(u, v) for u, v in arcs]
        for a in itertools.combinations(range(tc.m), 4):
            a_mask = sum(1 << c for c in a)
            ccand = [c for c in range(tc.m) if c not in a]
            assert not all(
                perfect_matching([av & (a_mask | 1 << c | 1 << d)
                                  for av in avail]) is not None
                for c, d in itertools.combinations(ccand, 2)
            )

    def test_repeated_target_arc_rejected(self):
        # absorb() used to raise "duplicate arc (0,1)" from ColoredDigraph
        # on an absorber that build_absorber had accepted
        tc = generators.random_collection(8, 16, 3)
        with pytest.raises(ValueError, match=r"target arc \(0, 1\) is"):
            build_absorber(tc, [(0, 1), (0, 1), (1, 2)], range(16), 1, 3)

    def test_deterministic_given_seed(self):
        tc, arcs = dense_instance(10, 40, seed=1)
        a = build_absorber(tc, arcs, range(40), ell=2, c_size=10, seed=7)
        b = build_absorber(tc, arcs, range(40), ell=2, c_size=10, seed=7)
        assert (a.A, a.C) == (b.A, b.C)

    def test_no_target_arcs(self):
        # the empty absorber: A is empty and any pair of colors serves as C
        tc = generators.random_collection(5, 4, seed=0)
        assert build_absorber(tc, [], range(4), 0, 2) == Absorber(
            (), (0, 2), (), 0, ())
        assert build_absorber(tc, [], [3, 1], 0, 2, seed=5).C == (1, 3)

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 65])
    @pytest.mark.parametrize("k", [1, 8, 9, 13])
    def test_color_masks_transpose_arc_masks(self, monkeypatch, m, k):
        # the colors' target-arc masks are packed from the same block as
        # the arcs' color masks, along the other axis
        tc = generators.random_collection(9, m, seed=m * k)
        rng = np.random.default_rng(k)
        pairs = list(itertools.permutations(range(9), 2))
        arcs = [pairs[i] for i in rng.choice(len(pairs), k, replace=False)]
        avail = tc.arc_color_masks(arcs)
        want = [_slots_holding(avail, c) for c in range(m)]
        assert list(_pack_rows(tc._arc_bits(arcs))) == want
        if k > m:
            return  # too few colors for an A of k colors
        seen = []
        monkeypatch.setattr(constructive, "_verify_absorber",
                            lambda _k, serves, *a: seen.append(serves) or True)
        ab = build_absorber(tc, arcs, range(m), 0, 0)
        assert list(ab.avail) == avail
        assert list(seen[0]) == want


class TestAbsorb:
    def test_wrong_subset_size_rejected(self):
        tc, arcs = dense_instance(8, 30)
        ab = build_absorber(tc, arcs, range(30), ell=1, c_size=6)
        with pytest.raises(AbsorptionFailedError):
            absorb(ab, [])
        with pytest.raises(AbsorptionFailedError):
            absorb(ab, list(ab.C[:2]) if len(ab.C) >= 2 else [99])

    def test_foreign_color_rejected(self):
        tc, arcs = dense_instance(8, 30)
        ab = build_absorber(tc, arcs, range(30), ell=1, c_size=6)
        outside = next(c for c in range(30)
                       if c not in ab.C)
        with pytest.raises(AbsorptionFailedError):
            absorb(ab, [outside])

    def test_corrupted_absorber_rejected(self):
        tc, arcs = dense_instance(8, 30)
        ab = build_absorber(tc, arcs, range(30), ell=1, c_size=6)
        bad = Absorber(ab.A[:-1], ab.C, ab.target_arcs, ab.ell, ab.avail)
        with pytest.raises(AbsorptionFailedError):
            absorb(bad, [ab.C[0]])


def reference_verify(avail, acand, ccand, ell) -> bool:
    """The absorber check with a from-scratch matching per probe."""
    def ok(cset):
        allow = sum(1 << c for c in acand)
        for c in cset:
            allow |= 1 << c
        return perfect_matching([av & allow for av in avail]) is not None

    if math.comb(len(ccand), ell) <= 10_000:
        return all(ok(cs) for cs in itertools.combinations(ccand, ell))
    degs = sorted(
        ccand, key=lambda c: sum(1 for av in avail if (av >> c) & 1)
    )
    return ok(degs[:ell])


def random_candidate(rng, n_arcs, ell, c_size, density, m=None):
    """Target-arc masks over colors 0..m-1 and disjoint A, C (ascending);
    by default m leaves 5 colors outside A and C."""
    m = m or n_arcs - ell + c_size + 5
    avail = [
        sum(1 << c for c in range(m) if rng.random() < density)
        for _ in range(n_arcs)
    ]
    picked = rng.permutation(m).tolist()
    acand = tuple(sorted(picked[:n_arcs - ell]))
    ccand = tuple(sorted(picked[n_arcs - ell:n_arcs - ell + c_size]))
    return avail, acand, ccand


def by_color(avail):
    """Each color's target-arc mask (0 for a color with none): the
    transpose of avail that build_absorber packs from its gather."""
    colors = range(max(avail, default=0).bit_length())
    return collections.defaultdict(
        int, {c: _slots_holding(avail, c) for c in colors})


def record_branches(monkeypatch) -> list:
    """The checks _verify_absorber runs after A's pushes, as they are
    called: "hall", or "matching" for each top-up set's perfect_matching."""
    taken = []
    for name, tag in (("_hall_every_topup", "hall"),
                      ("perfect_matching", "matching")):
        def spy(*a, _run=getattr(constructive, name), _tag=tag, **k):
            taken.append(_tag)
            return _run(*a, **k)
        monkeypatch.setattr(constructive, name, spy)
    return taken


def count_pushes(monkeypatch, avail, a_size, c_size, ell):
    """_verify_absorber's verdict, IncrementalMatcher push count and
    perfect_matching calls as (slots, start), with A = colors
    0..a_size-1 and C the next c_size colors."""
    pushes, calls = [], []
    push = IncrementalMatcher.push

    def counted_push(matcher, mask):
        pushes.append(mask)
        return push(matcher, mask)

    def counted(slots, start):
        calls.append((slots, start))
        return perfect_matching(slots, start=start)

    monkeypatch.setattr(IncrementalMatcher, "push", counted_push)
    monkeypatch.setattr(constructive, "perfect_matching", counted)
    ccand = tuple(range(a_size, a_size + c_size))
    got = _verify_absorber(len(avail), by_color(avail), tuple(range(a_size)),
                           ccand, ell)
    return got, len(pushes), calls


class TestWarmStartedVerification:
    """_verify_absorber decides as a from-scratch matching per probe does:
    every ell-subset of a small C, the minimum-degree one of a large C.
    Branch "every" matches each top-up set in turn, "sampled" only the
    minimum-degree one."""

    def _agree(self, avail, acand, ccand, ell) -> bool:
        got = _verify_absorber(len(avail), by_color(avail), acand, ccand, ell)
        assert got == reference_verify(avail, acand, ccand, ell)
        return got

    # (ell, c_size, n_arcs) -> (densities, candidates) where the defaults
    # would never reject or, against 8,008 reference probes, run too long
    SHAPES = {
        (6, 16, 12): ((0.2, 0.35, 0.5), 9),
        (40, 41, 44): ((0.05, 0.08, 0.12), 60),
    }

    @pytest.mark.parametrize("ell,c_size,n_arcs,branch", [
        (2, 8, 8, "every"),
        (0, 4, 6, "every"),
        (3, 50, 10, "sampled"),
        (6, 16, 12, "hall"),  # the shape auto-sweep runs
        (3, 12, 7, "hall"),
        (5, 5, 9, "every"),  # ell = |C|: a single top-up set
        (40, 41, 44, "every"),  # ell = |C| - 1: 41 top-up sets
    ])
    def test_agrees_with_from_scratch_probes(self, monkeypatch, ell, c_size,
                                             n_arcs, branch):
        taken = record_branches(monkeypatch)
        densities, candidates = self.SHAPES.get(
            (ell, c_size, n_arcs), ((0.2, 0.35, 0.5), 60)
        )
        rng = np.random.default_rng(ell)
        outcomes = set()
        for k in range(candidates):
            density = densities[k % 3]
            avail, acand, ccand = random_candidate(
                rng, n_arcs, ell, c_size, density
            )
            before = len(taken)
            got = self._agree(avail, acand, ccand, ell)
            calls = len(taken) - before
            if branch == "sampled":
                assert calls <= 1
            elif branch == "every" and got:
                assert calls == math.comb(c_size, ell)
            outcomes.add(got)
        assert outcomes == {True, False}
        assert set(taken) == {"hall" if branch == "hall" else "matching"}

    def test_agrees_on_2000_random_candidates(self):
        # the benchmark's recorded probes all accept, so the rejections of
        # both branches are exercised here
        shapes = [(2, 8, 8), (3, 7, 9), (1, 6, 5),  # exhaustive
                  (3, 50, 10), (4, 30, 8), (2, 150, 6)]  # sampled
        rng = np.random.default_rng(17)
        seen = collections.Counter()
        for k in range(2_000):
            ell, c_size, n_arcs = shapes[k % len(shapes)]
            density = (0.3, 0.45, 0.6)[k // len(shapes) % 3]
            avail, acand, ccand = random_candidate(
                rng, n_arcs, ell, c_size, density
            )
            got = self._agree(avail, acand, ccand, ell)
            seen[math.comb(c_size, ell) <= 10_000, got] += 1
        assert len(seen) == 4
        assert min(seen.values()) >= 250

    def test_agrees_on_wide_masks(self):
        # construct-large's n = 800 path absorber: 96 target arcs, |C| = 42
        # and ell = 6, with colors spread over 0..799 (800-bit masks)
        rng = np.random.default_rng(800)
        outcomes = set()
        for k in range(12):
            density = (0.05, 0.06, 0.07)[k % 3]
            avail, acand, ccand = random_candidate(
                rng, 96, 6, 42, density, m=800
            )
            assert math.comb(len(ccand), 6) > 10_000
            outcomes.add(self._agree(avail, acand, ccand, 6))
        assert outcomes == {True, False}

    def test_unsaturable_a_rejected_without_probes(self, monkeypatch):
        # color 0 of A serves no target arc, so no top-up set can complete
        avail = [0b1111110, 0b1111110, 0b1111110]
        acand, ccand = (0, 1), (4, 5, 6)
        assert not self._agree(avail, acand, ccand, 1)
        calls = []
        monkeypatch.setattr(
            "rainbow_tournaments.constructive.perfect_matching",
            lambda *a, **k: calls.append(a),
        )
        assert not _verify_absorber(len(avail), by_color(avail), acand, ccand,
                                    1)
        assert calls == []


class TestMinimumDegreeProbe:
    """A large C is checked by one perfect_matching: A's colors as the
    first slots, matched as A's pushes left them, then the ell colors of C
    that serve the fewest target arcs, open."""

    ELL, A_SIZE, C_SIZE = 4, 6, 40
    FEW = (16, 26, 36, 45)  # the C colors of minimum degree

    def _run(self, monkeypatch, low):
        # A's color i serves only arc i, so A fills arcs 0..5 and leaves
        # arcs 6..9 open; the FEW colors serve the arcs in low, every other
        # color of C serves all ten
        calls = []

        def counted(slots, start):
            calls.append((slots, start))
            return perfect_matching(slots, start=start)

        monkeypatch.setattr(
            "rainbow_tournaments.constructive.perfect_matching", counted
        )
        a, ell = self.A_SIZE, self.ELL
        ccand = tuple(range(a, a + self.C_SIZE))
        avail = [1 << k if k < a else 0 for k in range(a + ell)]
        for k in range(a + ell):
            avail[k] |= sum(1 << c for c in ccand
                            if c not in self.FEW or k in low)
        assert math.comb(self.C_SIZE, ell) > 10_000
        got = _verify_absorber(len(avail), by_color(avail), tuple(range(a)),
                               ccand, ell)
        hard = sum(1 << k for k in low)
        assert calls == [([1 << i for i in range(a)] + [hard] * ell,
                          [*range(a)] + [-1] * ell)]
        return got

    def test_accepted_candidate_makes_one_probe(self, monkeypatch):
        assert self._run(monkeypatch, low=range(6, 10)) is True

    def test_unmatched_minimum_degree_set_rejects(self, monkeypatch):
        # the four colors of minimum degree share three arcs
        assert self._run(monkeypatch, low=range(6, 9)) is False


class TestTopUpLoop:
    """With at most 10^4 top-up sets and no fewer target-arc sets, each
    ell-subset of C, in combination order, gets one perfect_matching that
    starts from A's matching with the ell top-up slots open; the first
    set that fails ends the loop."""

    # 13 target arcs: 2^13 = 8,192 arc sets are no fewer than the 8,008
    # top-up sets, so the loop runs, not Hall over arc sets
    ELL, A_SIZE, C_SIZE = 6, 7, 16
    ARCS = (1 << (A_SIZE + ELL)) - 1  # every target arc

    def _run(self, monkeypatch, arcs_of):
        """count_pushes with color c serving the target arcs in
        arcs_of[c]: A is colors 0..6, C 7..22."""
        avail = [sum(1 << c for c, arcs in enumerate(arcs_of) if arcs >> k & 1)
                 for k in range(self.A_SIZE + self.ELL)]
        assert math.comb(self.C_SIZE, self.ELL) <= min(10_000, 1 << len(avail))
        return count_pushes(monkeypatch, avail, self.A_SIZE, self.C_SIZE,
                            self.ELL)

    def test_accepted_candidate_matches_every_top_up_set(self, monkeypatch):
        # C's colors miss one arc each, so the top-up sets differ
        cmasks = [self.ARCS & ~(1 << (j % 13)) for j in range(self.C_SIZE)]
        got, pushes, calls = self._run(monkeypatch,
                                       [self.ARCS] * self.A_SIZE + cmasks)
        assert got is True
        assert pushes == self.A_SIZE
        tops = list(itertools.combinations(cmasks, self.ELL))
        assert len(calls) == len(tops) == 8_008
        # A's i-th push took the lowest free arc, i
        start = [*range(self.A_SIZE)] + [-1] * self.ELL
        assert calls == [([self.ARCS] * self.A_SIZE + list(top), start)
                         for top in tops]

    def test_first_failing_set_ends_the_loop(self, monkeypatch):
        # C's two highest colors serve only arc 0, so the first top-up set
        # holding both, (7, 8, 9, 10, 21, 22), fails: the 66th of 8,008
        arcs_of = [self.ARCS] * (self.A_SIZE + self.C_SIZE - 2) + [1, 1]
        got, pushes, calls = self._run(monkeypatch, arcs_of)
        first_bad = next(
            k for k, top in enumerate(itertools.combinations(
                range(self.C_SIZE), self.ELL)) if {14, 15} <= set(top))
        assert got is False
        assert pushes == self.A_SIZE
        assert len(calls) == first_bad + 1 == 66

    def test_a_checked_by_its_pushes(self, monkeypatch):
        # color 0 of A serves no target arc: its push rejects the candidate
        # without a separate matching of A alone, and no top-up set is tried
        arcs_of = [0] + [self.ARCS] * (self.A_SIZE + self.C_SIZE - 1)
        got, pushes, calls = self._run(monkeypatch, arcs_of)
        assert got is False
        assert pushes == 1
        assert calls == []


class TestHallOverArcSets:
    """With fewer target-arc sets than top-up sets, the every-top-up
    check is Hall's condition over the arc sets: no perfect_matching."""

    def test_agrees_with_a_check_per_top_up_set(self):
        # 10,000 shapes with k <= 9 arcs, |C| from ell to ell + 4, and
        # each color serving each arc with one probability per shape
        rng = np.random.default_rng(32)
        seen = collections.Counter()
        for _ in range(10_000):
            k = int(rng.integers(1, 10))
            ell = int(rng.integers(0, k + 1))
            c_size = ell + int(rng.integers(0, 5))
            serves = rng.random((k - ell + c_size, k)) < rng.uniform(0.2, 0.8)
            masks = [int(x) for x in serves @ (1 << np.arange(k))]
            amasks, cmasks = masks[:k - ell], masks[k - ell:]
            # colors as slots, from scratch: k slots on k arcs
            every = all(
                perfect_matching(amasks + list(top)) is not None
                for top in itertools.combinations(cmasks, ell)
            )
            assert _hall_every_topup(k, amasks, cmasks, ell) == every
            seen[every] += 1
            seen["ell = 0"] += ell == 0
            seen["empty A"] += ell == k
            seen["|C| = ell"] += c_size == ell
        assert min(seen[True], seen[False]) >= 2_500
        assert min(seen["ell = 0"], seen["empty A"], seen["|C| = ell"]) > 0

    # the shape auto-sweep runs: 6 A colors (0..5), 12 target arcs,
    # |C| = 16 (colors 6..21) and ell = 6, so 4,096 arc sets against 8,008
    # top-up sets
    ALL = (1 << 22) - 1

    def test_auto_sweep_shape_pushes_only_a(self, monkeypatch):
        assert 1 << 12 < math.comb(16, 6) <= 10_000
        got = count_pushes(monkeypatch, [self.ALL] * 12, 6, 16, 6)
        assert got == (True, 6, [])

    def test_rejects_a_top_up_set_that_shares_arcs(self, monkeypatch):
        # C's colors 6..11 serve arcs 0..4 only: as a top-up set they put
        # six colors on five arcs
        few = sum(1 << c for c in range(6, 12))
        avail = [self.ALL] * 5 + [self.ALL & ~few] * 7
        assert count_pushes(monkeypatch, avail, 6, 16, 6) == (False, 6, [])

    @pytest.mark.parametrize("c_size, branch", [
        (8, "every"),  # 2^3 arc sets = C(8, 1) top-up sets
        (9, "hall"),  # 8 < C(9, 1)
    ])
    def test_branch_boundary(self, monkeypatch, c_size, branch):
        taken = record_branches(monkeypatch)
        # 3 target arcs, A = {0, 1}, ell = 1: every color serves every arc
        avail = [(1 << (2 + c_size)) - 1] * 3
        ccand = tuple(range(2, 2 + c_size))
        assert _verify_absorber(len(avail), by_color(avail), (0, 1), ccand,
                                1) is True
        assert taken == (["hall"] if branch == "hall"
                         else ["matching"] * c_size)


# sha256 of the lemma-absorber report over sizes 8, 9, 10, 12, 16 and seeds
# 0-49, without timing.  It has no failure record: the first draws of A and
# C that miss an absorber are at n = 8, seed 354 and n = 9, seed 1148.  A
# change to how A and C, or the instances, are drawn re-baselines it.
ABSORBER_REPORT = (
    "feb7bda88a56012312c7ec08e7279a915462a13b0d674f7026ffcded91a8b12c")


def test_lemma_absorber_report_is_locked():
    report = harness.verify_lemmas("absorber", [8, 9, 10, 12, 16], range(50))
    assert report.failures == []
    text = report.to_jsonl(include_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == ABSORBER_REPORT
