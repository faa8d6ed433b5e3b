"""Acceptance gate: exact finite claims, constructive contracts, determinism.

Each test pins one externally checkable promise: known impossible families,
oracle cross-validation, the constructive builders' invariants at scale, and
byte-level reproducibility of the verification harness.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import all_collections, all_tournaments, is_rainbow
from rainbow_tournaments import constructive, generators, harness, oracle
from rainbow_tournaments.constructive import absorb, build_absorber
from rainbow_tournaments.oracle import FOUND, NOT_EXISTS
from rainbow_tournaments.pipeline import (
    transversal_ham_cycle,
    transversal_ham_path,
)


class TestImpossibleFamilies:
    def test_no_cycle_in_the_two_transitive_plus_tprime_family(self):
        # n=3..12, exhaustive search each time, under a minute in total
        t0 = time.perf_counter()
        for n in range(3, 13):
            tc = generators.prop14_collection(n)
            out = oracle.exact_transversal_ham_cycle(tc)
            assert out.status == NOT_EXISTS, n
        assert time.perf_counter() - t0 < 60

    def test_three_vertex_counterexamples(self):
        t0 = time.perf_counter()
        path_inst, cyc_inst = generators.fig1_counterexamples()
        assert oracle.exact_transversal_ham_path(path_inst).status \
            == NOT_EXISTS
        assert oracle.exact_transversal_ham_cycle(cyc_inst).status \
            == NOT_EXISTS
        assert time.perf_counter() - t0 < 1


class TestOracleCrossValidation:
    def test_backtracking_agrees_with_permutation_enumeration(self):
        t0 = time.perf_counter()
        for n in (4, 5, 6):
            for m in (n - 1, n):
                for seed in range(1000):
                    tc = generators.random_collection(n, m, seed=seed)
                    a = oracle.exact_transversal_ham_path(tc)
                    b = oracle.exact_transversal_ham_path_perm(tc)
                    assert a.status == b.status, (n, m, seed)
                    if a.found:
                        assert a.witness.is_hamilton(tc)
                        assert b.witness.is_hamilton(tc)
                    if m == n:
                        c = oracle.exact_transversal_ham_cycle(tc)
                        d = oracle.exact_transversal_ham_cycle_perm(tc)
                        assert c.status == d.status, (n, m, seed)
                        if c.found:
                            assert c.witness.is_hamilton(tc)
                            assert d.witness.is_hamilton(tc)
        assert time.perf_counter() - t0 < 600


class TestOneSpareAtScale:
    # measured: inspections stay well under 50 n^2 (typical growth is
    # near-linear); the bound is frozen here as the per-call budget
    C_INSPECT = 50

    def test_exhaustive_three_vertices(self):
        count = 0
        for tc in all_collections(3, 3):
            p = constructive.rainbow_ham_path_one_spare(tc)
            assert p.is_hamilton(tc)
            count += 1
        assert count == 512

    def test_hundred_thousand_random_collections(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for k in range(100_000):
            n = int(rng.integers(4, 51))
            tc = generators.random_collection(n, n, seed=k)
            stats = {}
            p = constructive.rainbow_ham_path_one_spare(tc, stats)
            assert p.is_hamilton(tc), (n, k)
            ratio = stats["arc_inspections"] / (n * n)
            worst = max(worst, ratio)
            assert ratio <= self.C_INSPECT, (n, k, stats["arc_inspections"])
        assert worst > 0


class TestPartitionContract:
    @staticmethod
    def _ells(n):
        return sorted({3, 24, max(3, -(-n // 10)), max(3, n)})

    def test_exhaustive_small_tournaments(self):
        for n in range(1, 7):
            for t in all_tournaments(n):
                for ell in self._ells(n):
                    hp = constructive.h_partition(t, ell)
                    assert hp.validate(t), (n, ell, t.out)
                for d in range(n):
                    assert constructive.low_degree_count_bound_check(t, d)

    def test_ten_thousand_random_tournaments(self):
        rng = np.random.default_rng(12)
        schedule = (
            [(3, 100)] * 9000
            + [(101, 600)] * 800
            + [(601, 1200)] * 150
            + [(1201, 2000)] * 50
        )
        for k, (lo, hi) in enumerate(schedule):
            n = int(rng.integers(lo, hi + 1))
            t = generators.random_tournament(n, seed=k)
            for ell in self._ells(n):
                hp = constructive.h_partition(t, ell)
                assert hp.validate(t), (n, ell, k)
            d = int(rng.integers(0, n))
            assert constructive.low_degree_count_bound_check(t, d)

    def test_two_thousand_vertices_within_a_second(self):
        t = generators.random_tournament(2000, seed=0)
        t0 = time.perf_counter()
        hp = constructive.h_partition(t, 24)
        assert time.perf_counter() - t0 < 1
        assert hp.validate(t)


class TestRainbowConnectivity:
    def test_all_ordered_pairs_with_ascending_colors(self):
        for n in (10, 20, 30):
            for seed in range(100):
                tc = generators.random_collection(
                    n, n - 1, seed=seed, strongly_connected_count=n - 1
                )
                for x in range(n):
                    got = constructive.rainbow_connect_all(tc, x)
                    assert set(got) == set(range(n)) - {x}
                    for y, p in got.items():
                        assert p.vertices[0] == x and p.vertices[-1] == y
                        assert p.valid(tc), (n, seed, x, y)
                        colors = list(p.colors)
                        assert colors == sorted(set(colors))


def _dense_targets(tc, count):
    arcs = []
    for u in range(0, 2 * count, 2):
        v = u + 1
        if tc.arc_color_mask(u, v).bit_count() >= tc.m // 2:
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    return arcs


class TestAbsorberContract:
    def test_desk_scale_family_exhausts_every_topup(self):
        tc = generators.random_collection(24, 40, seed=5)
        arcs = _dense_targets(tc, 12)
        ab = build_absorber(tc, arcs, range(40), ell=3, c_size=12)
        for cprime in itertools.combinations(ab.C, ab.ell):
            got = absorb(ab, cprime)
            assert is_rainbow(got)
            assert {c for _, _, c in got.arcs} == set(ab.A) | set(cprime)
            for u, v, c in got.arcs:
                assert tc.tournaments[c].has_arc(u, v)

    def test_large_family_random_and_adversarial_probes(self):
        tc = generators.random_collection(60, 120, seed=6)
        arcs = _dense_targets(tc, 20)
        # C(50, 3) > 10^4, so acceptance checked one top-up set only: the
        # minimum-degree one below; absorb() checks each set it is given
        ab = build_absorber(tc, arcs, range(120), ell=3, c_size=50)
        rng = np.random.default_rng(3)
        for _ in range(500):
            cprime = [int(c) for c in rng.choice(ab.C, 3, replace=False)]
            assert is_rainbow(absorb(ab, cprime))
        # the set acceptance checked: the colors available on the fewest
        # targets
        degree = {
            c: sum(1 for av in ab.avail if (av >> c) & 1) for c in ab.C
        }
        worst = sorted(ab.C, key=lambda c: degree[c])[:3]
        assert is_rainbow(absorb(ab, worst))


class TestPipelineAgreement:
    def test_path_and_cycle_statuses_match_the_oracle(self):
        for n in (5, 6, 7):
            for seed in range(300):
                tc = generators.random_collection(n, n - 1, seed=seed)
                got = transversal_ham_path(tc)
                ref = oracle.exact_transversal_ham_path(tc)
                assert got.status == ref.status, ("path", n, seed)
                if got.found:
                    assert got.witness.is_hamilton(tc)
                tc = generators.random_collection(
                    n, n, seed=seed, strongly_connected_count=n - 1
                )
                got = transversal_ham_cycle(tc)
                ref = oracle.exact_transversal_ham_cycle(tc)
                assert got.status == ref.status, ("cycle", n, seed)
                if got.found:
                    assert got.witness.is_hamilton(tc)


class TestConstructiveAtScale:
    def test_success_rate_positive_and_witnesses_valid(self):
        for n, seeds in ((200, range(5)), (400, range(3)), (800, range(2))):
            successes = 0
            for seed in seeds:
                tc = generators.random_collection(n, n - 1, seed=seed)
                out = transversal_ham_path(tc, mode="constructive")
                if out.found:
                    successes += 1
                    assert out.witness.is_hamilton(tc), (n, seed)
            assert successes > 0, f"no constructive success at n={n}"


class TestDeterminism:
    def test_theorem_suites_identical_across_worker_counts(self):
        for what in ("path", "cycle"):
            a = harness.verify_theorem(what, [4, 5, 6], mode="random",
                                       seeds=range(25), jobs=1)
            b = harness.verify_theorem(what, [4, 5, 6], mode="random",
                                       seeds=range(25), jobs=4)
            assert a.to_jsonl(include_timing=False) \
                == b.to_jsonl(include_timing=False)

    def test_lemma_suite_identical_across_worker_counts(self):
        a = harness.verify_lemmas("one_spare", [6, 12], range(10), jobs=1)
        b = harness.verify_lemmas("one_spare", [6, 12], range(10), jobs=4)
        assert a.to_jsonl(include_timing=False) \
            == b.to_jsonl(include_timing=False)

    def test_bench_identical_modulo_timing_column(self):
        def strip(csv):
            # drop the two timing columns, gen_millis and millis
            rows = [r.split(",") for r in csv.strip().splitlines()]
            return [r[:3] + r[5:] for r in rows]

        a = harness.bench("one_spare", [10, 20], range(3), jobs=1)
        b = harness.bench("one_spare", [10, 20], range(3), jobs=4)
        assert strip(a.stats["csv"]) == strip(b.stats["csv"])
