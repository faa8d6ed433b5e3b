"""Bitmask bipartite matching: perfect, forced-color, and incremental."""

import collections
import itertools

import numpy as np
import pytest

from rainbow_tournaments.core import _bits
from rainbow_tournaments.matching import (
    IncrementalMatcher,
    _try_augment,
    matching_with_forced_colors,
    perfect_matching,
)


def brute_max_matching_size(avail, m):
    """Largest slot subset admitting a system of distinct colors."""
    k = len(avail)
    best = 0
    for size in range(k, 0, -1):
        for slots in itertools.combinations(range(k), size):
            for colors in itertools.permutations(range(m), size):
                if all((avail[s] >> c) & 1
                       for s, c in zip(slots, colors)):
                    return size
        if best:
            break
    return 0


def brute_forced_feasible(avail, m, forced):
    """Is there a full assignment whose color set contains all of forced?"""
    k = len(avail)
    for colors in itertools.permutations(range(m), k):
        if not set(forced) <= set(colors):
            continue
        if all((avail[s] >> c) & 1 for s, c in zip(range(k), colors)):
            return True
    return False


class TestMaxMatching:
    def test_empty(self):
        assert perfect_matching([]) == []

    def test_single_slot(self):
        assert perfect_matching([0b100]) == [2]

    def test_unmatchable_slot(self):
        assert perfect_matching([0b1, 0b1]) is None
        assert perfect_matching([0b1, 0]) is None

    def test_sizes_match_brute_force(self):
        # None exactly when the maximum matching leaves a slot unmatched
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            avail = [int(rng.integers(0, 1 << m)) for _ in range(k)]
            got = perfect_matching(avail)
            assert (got is None) == (brute_max_matching_size(avail, m) < k)
            if got is not None:
                assert len(set(got)) == k
                assert all((avail[s] >> c) & 1 for s, c in enumerate(got))

    def test_perfect_matching_none_when_short(self):
        assert perfect_matching([0b1, 0b1]) is None
        got = perfect_matching([0b01, 0b11])
        assert got == [0, 1]

    def test_start_is_extended_not_recomputed(self):
        # slot 0 keeps color 1 from the start; a from-scratch run gives 0
        assert perfect_matching([0b11, 0b100]) == [0, 2]
        assert perfect_matching([0b11, 0b100], start=[1, -1]) == [1, 2]

    def test_start_relocated_by_augmenting_path(self):
        # slot 1 only takes color 0, so slot 0 must move from 0 to 1
        assert perfect_matching([0b11, 0b01], start=[0, -1]) == [1, 0]

    def test_start_complete_or_empty(self):
        assert perfect_matching([0b11, 0b11], start=[1, 0]) == [1, 0]
        assert perfect_matching([0b11, 0b11], start=[-1, -1]) == \
            perfect_matching([0b11, 0b11])
        assert perfect_matching([], start=[]) == []

    def test_start_none_when_no_perfect_matching(self):
        assert perfect_matching([0b1, 0b1], start=[0, -1]) is None

    def test_augmenting_chain_longer_than_recursion_limit(self):
        # slot i takes color i until the last slot claims color 0; its
        # augmenting path then shifts all 1500 slots one color up
        avail = [(1 << i) | (1 << i + 1) for i in range(1500)] + [1]
        want = list(range(1, 1501)) + [0]
        assert perfect_matching(avail) == want
        im = IncrementalMatcher()
        assert all(im.push(mask) for mask in avail)
        assert im.match_of_slot == want

    def test_start_agrees_with_from_scratch(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            k = int(rng.integers(1, 6))
            m = int(rng.integers(1, 7))
            avail = [int(rng.integers(0, 1 << m)) for _ in range(k)]
            # any valid partial matching: a greedy one on a submask
            keep = int(rng.integers(0, 1 << m))
            start, used = [], 0
            for a in avail:
                free = a & keep & ~used
                low = free & -free  # 0 when no color is left: slot open
                start.append(low.bit_length() - 1)
                used |= low
            got = perfect_matching(avail, start=start)
            want = perfect_matching(avail)
            assert (got is None) == (want is None)
            if got is not None:
                assert len(set(got)) == k
                assert all((avail[s] >> c) & 1 for s, c in enumerate(got))
                # augmenting paths never unmatch a matched slot or color
                assert {c for c in start if c != -1} <= set(got)


def frozen_augment_all(avail, match_of_slot):
    """A frozen copy of matching._augment_all: every slot open at the
    start is augmented from, in slot order."""
    match_of_color = {c: s for s, c in enumerate(match_of_slot) if c != -1}
    for s in range(len(avail)):
        if match_of_slot[s] == -1 and _try_augment(
            s, avail, match_of_slot, match_of_color
        ) is None:
            return None
    return match_of_slot


class TestSameMatchingAsTheFrozenCopy:
    """perfect_matching returns the very list of the frozen copy, so a
    rewrite keeps every caller's witness colors, not only their validity."""

    def test_random_starts(self):
        rng = np.random.default_rng(25)
        outcomes = collections.defaultdict(set)
        partial = 0
        for trial in range(3_000):
            k = int(rng.integers(1, 13))
            m = k + int(rng.integers(0, 7))
            bits = rng.random((k, m)) < rng.uniform(0.1, 0.6)
            avail = (bits @ (1 << np.arange(m))).tolist()
            planted = rng.permutation(m)[:k].tolist()
            kind = trial % 3
            if trial % 2 or kind == 0:  # a perfect matching exists
                avail = [a | 1 << c for a, c in zip(avail, planted)]
            if kind == 0:  # no slot open
                start = planted
            elif kind == 1:  # some open: a greedy partial matching
                start, used = [-1] * k, 0
                for s in rng.permutation(k).tolist():
                    free = avail[s] & ~used
                    if free and rng.random() < 0.6:
                        c = int(rng.choice([*_bits(free)]))
                        start[s], used = c, used | 1 << c
            else:  # every slot open
                start = [-1] * k
            want = frozen_augment_all(avail, list(start))
            got = perfect_matching(avail, start=start)
            assert got == want
            if kind == 2:
                assert perfect_matching(avail) == want
            outcomes[kind].add(got is None)
            partial += 0 < start.count(-1) < k
        assert outcomes == {0: {False}, 1: {True, False}, 2: {True, False}}
        assert partial > 500


class TestForcedColors:
    def test_infeasible_forced(self):
        assert matching_with_forced_colors([0b01, 0b01], [1]) is None

    def test_forced_color_present(self):
        got = matching_with_forced_colors([0b11, 0b11], [1])
        assert got is not None and 1 in got

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(400):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(k, 6))
            avail = [int(rng.integers(0, 1 << m)) for _ in range(k)]
            nf = int(rng.integers(0, min(k, m) + 1))
            forced = list(rng.choice(m, size=nf, replace=False))
            got = matching_with_forced_colors(avail, forced)
            want = brute_forced_feasible(avail, m, forced)
            assert (got is not None) == want
            if got is not None:
                assert len(set(got)) == k
                assert set(forced) <= set(got)
                for s, c in enumerate(got):
                    assert (avail[s] >> c) & 1


    def test_long_relocation_chain(self):
        # the last forced color relocates every other one in turn, a chain
        # deeper than the interpreter's recursion limit
        nslots = 1501
        avail = [(1 << 0) | (1 << 1500)] + [
            (1 << (s - 1)) | (1 << s) for s in range(1, nslots)
        ]
        forced = list(range(1500)) + [1500]
        got = matching_with_forced_colors(avail, forced)
        assert got is not None
        assert sorted(got) == list(range(nslots))
        assert all((avail[s] >> c) & 1 for s, c in enumerate(got))


class TestIncrementalMatcher:
    def test_push_pop_round_trip(self):
        im = IncrementalMatcher()
        assert im.push(0b01)
        assert im.push(0b11)
        assert sorted(im.match_of_slot) == [0, 1]
        im.pop()
        assert im.match_of_slot == [0]

    def test_push_fails_cleanly(self):
        im = IncrementalMatcher()
        assert im.push(0b1)
        assert not im.push(0b1)  # color 0 is taken and nothing else offered
        # the failed push must not leave residue
        assert im.match_of_slot == [0]
        im.pop()
        assert im.match_of_slot == []

    def test_agrees_with_batch_matching(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            m = int(rng.integers(1, 7))
            avail = [int(rng.integers(1, 1 << m)) for _ in range(k)]
            im = IncrementalMatcher()
            depth = 0
            for j in range(k):
                if not im.push(avail[j]):
                    break
                depth += 1
            # incremental success through j slots iff the prefix has a
            # perfect matching (augmenting search never gets stuck early)
            for j in range(1, k + 1):
                prefix_ok = perfect_matching(avail[:j]) is not None
                if j <= depth:
                    assert prefix_ok
                else:
                    assert not prefix_ok
                    break

    def test_free_color_taken_without_search(self):
        im = IncrementalMatcher()
        assert im.push(0b011)
        assert im.push(0b011)  # color 0 is held, color 1 is free
        assert im.match_of_slot == [0, 1]
        assert not im.push(0b011)
        assert im.match_of_slot == [0, 1]
        assert im.push(0b110)  # color 2 is free
        assert im.match_of_slot == [0, 1, 2]
        im.pop()
        assert im.match_of_slot == [0, 1]

    def test_push_agrees_with_from_scratch(self):
        # random pushes and pops: each push accepts exactly when the
        # enlarged slot set has a perfect matching, and the kept matching
        # stays valid after every push and every pop
        rng = np.random.default_rng(5)
        rejected = 0
        for _ in range(300):
            m = int(rng.integers(1, 9))
            im, avail = IncrementalMatcher(), []
            for _ in range(30):
                if avail and rng.random() < 0.3:
                    im.pop()
                    avail.pop()
                else:
                    mask = int(rng.integers(0, 1 << m))
                    ok = im.push(mask)
                    assert ok == (perfect_matching(avail + [mask]) is not None)
                    rejected += not ok
                    if ok:
                        avail.append(mask)
                assert im.avail == avail
                assert len(set(im.match_of_slot)) == len(avail)
                assert all((av >> c) & 1
                           for av, c in zip(avail, im.match_of_slot))
                assert im.match_of_color == {
                    c: s for s, c in enumerate(im.match_of_slot)
                }
        assert rejected > 1_000
