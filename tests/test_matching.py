"""Bitmask bipartite matching: maximum, forced-color, and incremental."""

import itertools

import numpy as np
import pytest

from rainbow_tournaments.matching import (
    IncrementalMatcher,
    matching_with_forced_colors,
    max_matching,
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
        assert max_matching([]) == []

    def test_single_slot(self):
        assert max_matching([0b100]) == [2]

    def test_unmatchable_slot(self):
        got = max_matching([0b1, 0b1])
        assert sorted(got) == [-1, 0]

    def test_sizes_match_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            avail = [int(rng.integers(0, 1 << m)) for _ in range(k)]
            got = max_matching(avail)
            size = sum(1 for c in got if c != -1)
            assert size == brute_max_matching_size(avail, m)
            used = [c for c in got if c != -1]
            assert len(used) == len(set(used))
            for s, c in enumerate(got):
                if c != -1:
                    assert (avail[s] >> c) & 1

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
        assert max_matching(avail) == want

    def test_start_agrees_with_from_scratch(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            k = int(rng.integers(1, 6))
            m = int(rng.integers(1, 7))
            avail = [int(rng.integers(0, 1 << m)) for _ in range(k)]
            # any valid partial matching: a maximum matching of a submask
            keep = int(rng.integers(0, 1 << m))
            start = max_matching([a & keep for a in avail])
            got = perfect_matching(avail, start=start)
            want = perfect_matching(avail)
            assert (got is None) == (want is None)
            if got is not None:
                assert len(set(got)) == k
                assert all((avail[s] >> c) & 1 for s, c in enumerate(got))
                # augmenting paths never unmatch a matched slot or color
                assert {c for c in start if c != -1} <= set(got)


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
