"""Instance generators: fixed families and seeded random instances."""

import hashlib

import numpy as np
import pytest

from conftest import directed_triangle, stream_draw, stream_row
from rainbow_tournaments import core, generators
from rainbow_tournaments.cli import _build_parser
from rainbow_tournaments.core import (Tournament, TournamentCollection,
                                      is_strongly_connected)


class TestFixedFamilies:
    def test_transitive_small(self):
        t = generators.transitive_tournament(2)
        assert list(t.arcs()) == [(0, 1)]
        t5 = generators.transitive_tournament(5)
        assert t5.out_degree(0) == 4 and t5.in_degree(0) == 0

    def test_tprime_n4(self):
        t = generators.prop14_tprime(4)
        got = set(t.arcs())
        assert {(1, 0), (2, 1), (3, 2)} <= got
        assert {(0, 2), (0, 3), (1, 3)} <= got

    def test_tprime_strongly_connected(self):
        for n in range(3, 10):
            assert is_strongly_connected(generators.prop14_tprime(n))

    def test_rotational_is_regular_for_odd_n(self):
        t = generators.rotational_tournament(7)
        assert all(t.out_degree(v) == 3 for v in range(7))

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 31, 33, 65])
    def test_rotational_arcs_follow_the_definition(self, n):
        want = {(i, j) for i in range(n) for j in range(n)
                if i != j and (j - i) % n <= (n - 1) // 2}
        assert set(generators.rotational_tournament(n).arcs()) == want

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 33, 64, 65])
    def test_tprime_arcs_follow_the_definition(self, n):
        want = {(i, j) for i in range(n) for j in range(i + 2, n)}
        want |= {(i + 1, i) for i in range(n - 1)}
        assert set(generators.prop14_tprime(n).arcs()) == want

    def test_impossibility_family_n3(self):
        tc = generators.prop14_collection(3)
        assert (tc.n, tc.m) == (3, 3)
        tprime = generators.prop14_tprime(3)
        assert set(tprime.arcs()) == {(0, 2), (1, 0), (2, 1)}
        transitive = set(generators.transitive_tournament(3).arcs())
        assert set(tc.tournaments[0].arcs()) == transitive
        assert set(tc.tournaments[1].arcs()) == transitive
        assert tc.tournaments[2] == tprime

    def test_impossibility_family_n5_shape(self):
        tc = generators.prop14_collection(5)
        assert (tc.n, tc.m) == (5, 5)
        tprime = generators.prop14_tprime(5)
        assert sum(1 for t in tc.tournaments if t == tprime) == 3

    def test_counterexample_pair_strongly_connected(self):
        path_inst, cyc_inst = generators.fig1_counterexamples()
        assert (path_inst.n, path_inst.m) == (3, 2)
        assert (cyc_inst.n, cyc_inst.m) == (3, 3)
        for tc in (path_inst, cyc_inst):
            assert all(is_strongly_connected(t) for t in tc.tournaments)

    def test_counterexample_path_instance_is_opposite_triangles(self):
        path_inst, _ = generators.fig1_counterexamples()
        got = {frozenset(t.arcs()) for t in path_inst.tournaments}
        want = {
            frozenset(directed_triangle().arcs()),
            frozenset(directed_triangle(False).arcs()),
        }
        assert got == want

    def test_counterexample_packed_rows_are_their_pair_bits(self):
        # the forward triangle 0->1->2->0 is "101", its reverse "010"
        path_inst, cyc_inst = generators.fig1_counterexamples()
        for tc, want in ((path_inst, ["101", "010"]),
                         (cyc_inst, ["101", "101", "010"])):
            assert [t.pair_bits() for t in tc.tournaments] == want
            assert tc.packed.tolist() == [
                [0b10100000] if bits == "101" else [0b01000000]
                for bits in want]


class TestRandom:
    def test_same_seed_same_output(self):
        a = generators.random_collection(8, 6, seed=13)
        b = generators.random_collection(8, 6, seed=13)
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = generators.random_collection(8, 6, seed=13)
        b = generators.random_collection(8, 6, seed=14)
        assert a.to_json() != b.to_json()

    def test_strongly_connected_triangle(self):
        tc = generators.random_collection(3, 1, 0, strongly_connected_count=1)
        t = tc.tournaments[0]
        assert frozenset(t.arcs()) in {
            frozenset(directed_triangle().arcs()),
            frozenset(directed_triangle(False).arcs()),
        }

    def test_strongly_connected_count(self):
        tc = generators.random_collection(
            7, 7, seed=5, strongly_connected_count=6
        )
        strong = sum(1 for t in tc.tournaments if is_strongly_connected(t))
        assert strong >= 6

    def test_strongly_connected_all(self):
        tc = generators.random_collection(
            10, 9, seed=1, strongly_connected_count=9
        )
        assert all(is_strongly_connected(t) for t in tc.tournaments)

    def test_negative_strongly_connected_count_rejected(self):
        with pytest.raises(ValueError, match="cannot be negative"):
            generators.random_collection(
                6, 5, seed=0, strongly_connected_count=-1
            )

    @pytest.mark.parametrize("m", [3, 12])
    def test_strongly_connected_count_is_an_int_up_to_m(self, m):
        with pytest.raises(TypeError):
            generators.random_collection(6, m, 0, strongly_connected_count=2.5)
        with pytest.raises(ValueError, match="above m"):
            generators.random_collection(6, m, 0,
                                         strongly_connected_count=m + 1)
        tc = generators.random_collection(6, m, 0, strongly_connected_count=m)
        assert all(is_strongly_connected(t) for t in tc.tournaments)

    def test_redraws_are_capped(self, monkeypatch):
        # a verdict fault that rejects every draw raises instead of hanging
        def never(scores):
            return np.zeros(len(scores), bool)

        monkeypatch.setattr(core, "_landau_strong", never)
        monkeypatch.setattr(generators, "_landau_strong", never)
        with pytest.raises(RuntimeError, match=r"member 0 \(n=5, seed=7\)"):
            generators.random_collection(5, 4, 7, strongly_connected_count=3)


# sha256 of random_collection(n, 3, seed[, strongly_connected_count=2])
# over the grid below: the JSON text and every member's out-masks.  It
# pins the per-(seed, attempt) streams, the members' windows in them and
# the pair order.
GRID_SIZES = list(range(1, 70)) + [100, 129, 130, 255, 256, 257, 600]
GRID_SEEDS = (0, 1, 12345, 2**40 + 3)
GRID_DIGEST = "82daa474fb04c359ce197aa35259bed6b8dea018394a8a24b89a54c9aa6fddfe"
# the same over random_collection(n, m, seed, strongly_connected_count=k)
# for m in {9, 10, 11, 40}, k in {0, m - 1}, seeds 0 and 2**40 + 3
BATCH_SIZES = list(range(1, 17)) + [130]
BATCH_DIGEST = (
    "8fe844c07547ecc8cf49f621d50214e9836633fc2313407bc7346d4a7c61daef")


class TestStreamLock:
    def test_collection_digest_grid(self):
        h = hashlib.sha256()
        for n in GRID_SIZES:
            for seed in GRID_SEEDS:
                for k in (None, 2):
                    if k and n < 3:
                        continue
                    tc = generators.random_collection(
                        n, 3, seed, strongly_connected_count=k
                    )
                    h.update(tc.to_json().encode())
                    for t in tc.tournaments:
                        h.update(repr(t.out).encode())
        assert h.hexdigest() == GRID_DIGEST

    def test_batched_collection_digest(self):
        # n = 1..16 covers every N mod 8, and at n = 130 a block holds 7
        # members, so m = 40 takes 6 blocks
        h = hashlib.sha256()
        for n in BATCH_SIZES:
            for m in (9, 10, 11, 40):
                for seed in (0, 2**40 + 3):
                    for k in (0, m - 1):
                        if k and n < 3:
                            continue
                        tc = generators.random_collection(
                            n, m, seed, strongly_connected_count=k)
                        h.update(tc.to_json().encode())
                        for t in tc.tournaments:
                            h.update(repr(t.out).encode())
        assert h.hexdigest() == BATCH_DIGEST


class TestDrawCount:
    """A collection reads its stream once: one _draw_tournament call fills
    all m attempt-0 rows, and each rejected draw of a strongly connected
    member is one more."""

    @staticmethod
    def count_draws(monkeypatch, *args, **kwargs):
        calls = []
        draw = generators._draw_tournament

        def counted(*a):
            calls.append(a)
            return draw(*a)

        monkeypatch.setattr(generators, "_draw_tournament", counted)
        generators.random_collection(*args, **kwargs)
        monkeypatch.undo()
        return calls

    @staticmethod
    def rejections(n, seed, index):
        attempt = 0
        while not is_strongly_connected(stream_draw(n, seed, index, attempt)):
            attempt += 1
        return attempt

    def test_uniform_draws_once_per_member(self, monkeypatch):
        # all 8 one-word rows, one after another, from the stream of
        # attempt 0 in one read
        calls = self.count_draws(monkeypatch, 9, 8, seed=4)
        assert len(calls) == 1 and calls[0][1].shape == (8,)

    def test_strongly_connected_members_add_their_rejections(
        self, monkeypatch
    ):
        n, m, k, seed = 3, 12, 9, 2
        calls = self.count_draws(
            monkeypatch, n, m, seed, strongly_connected_count=k
        )
        rejected = sum(self.rejections(n, seed, i) for i in range(k))
        assert rejected > 0
        assert len(calls) == 1 + rejected


def cleared(words, n):
    """The packed row of raw words: their first ceil(N/8) bytes, with the
    pad bits of the last one cleared."""
    size = n * (n - 1) // 2
    row = bytearray(words.tobytes()[:(size + 7) // 8])
    row[-1] &= 0xFF << (-size % 8) & 0xFF
    return bytes(row)


class TestBatchedSeeding:
    """A collection seeds its members in one pass, one stream per attempt:
    member i at attempt a is raw words [i W, (i+1) W) of
    PCG64(SeedSequence([seed, a])), read as conftest.stream_row defines
    from numpy alone."""

    # seeds of 1, 2, 3 and 5 words; the last one mixes in entropy words
    # past the pool's four
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3,
                                      2**140 + 7])
    @pytest.mark.parametrize("index", [0, 1, 999, 2**32 - 1, 2**32 + 1])
    @pytest.mark.parametrize("attempt", [0, 1, 2**32])
    def test_one_member_start_is_numpys(self, seed, index, attempt):
        n = 11  # W = 1: member index starts at raw word index
        stream = generators._stream(seed, attempt, index)
        want = np.random.PCG64(np.random.SeedSequence([seed, attempt]))
        if index < 1000:  # read up to the member, with no advance
            want.random_raw(index)
        else:
            want.advance(index)
        assert stream.state == want.state
        words = np.empty(1, "<u8")
        generators._draw_tournament(stream, words)
        assert cleared(words, n) == stream_row(n, seed, index, attempt)

    @pytest.mark.parametrize("seed", [0, 12345, 2**140 + 7])
    def test_a_batch_starts_each_member_as_numpy(self, seed):
        # members 990..1009 read one after another from one stream
        n, lo, hi = 20, 990, 1010
        width = (n * (n - 1) // 2 + 63) // 64
        stream = generators._stream(seed, 3, lo * width)
        words = np.empty((hi - lo, width), "<u8")
        for row in words:
            generators._draw_tournament(stream, row)
        for i, row in zip(range(lo, hi), words):
            assert cleared(row, n) == stream_row(n, seed, i, 3)
        tc = generators.random_collection(n, hi, seed)
        assert [t.packed.tobytes() for t in tc.tournaments[lo:]] == [
            stream_row(n, seed, i) for i in range(lo, hi)]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 12, 130])
    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_members_are_their_stream_windows(self, n, seed):
        tc = generators.random_collection(n, 8, seed)
        for k, t in enumerate(tc.tournaments):
            assert t.packed.tobytes() == stream_row(n, seed, k)
            assert t == stream_draw(n, seed, k)
        assert generators.random_tournament(n, seed) == stream_draw(n, seed, 0)

    @pytest.mark.parametrize("seed", [2, 2**64 + 3])
    def test_a_redrawn_member_is_its_attempts_window(self, seed):
        # at n = 3 three draws in four are not strongly connected
        n, m, k = 3, 12, 9
        tc = generators.random_collection(n, m, seed,
                                          strongly_connected_count=k)
        attempts = [TestDrawCount.rejections(n, seed, i) if i < k else 0
                    for i in range(m)]
        assert max(attempts) > 0
        for i, t in enumerate(tc.tournaments):
            assert t.packed.tobytes() == stream_row(n, seed, i, attempts[i])

    @pytest.mark.parametrize("m", [9, 10, 40])
    def test_members_are_their_streams_draws(self, m):
        n, k = 5, m // 2
        for seed in (0, 2**40 + 3):
            tc = generators.random_collection(
                n, m, seed, strongly_connected_count=k)
            for i, t in enumerate(tc.tournaments):
                attempt = TestDrawCount.rejections(n, seed, i) if i < k else 0
                assert t == stream_draw(n, seed, i, attempt)

    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_strong_blocks_keep_each_member_its_draw(self, seed):
        # at n = 130 a block holds 7 members: k = 10 strong candidates take
        # two blocks and the kept draws of the 6 others sit past them
        n, m, k = 130, 16, 10
        tc = generators.random_collection(n, m, seed,
                                          strongly_connected_count=k)
        for i, t in enumerate(tc.tournaments):
            attempt = TestDrawCount.rejections(n, seed, i) if i < k else 0
            assert t == stream_draw(n, seed, i, attempt)
            if i >= k:
                assert t.packed.tobytes() == stream_row(n, seed, i)

    @pytest.mark.parametrize("n, m", [(130, 70), (800, 3)])
    def test_no_read_takes_more_than_a_chunk(self, n, m, monkeypatch):
        # 9,240 and 14,982 words: the one read of the rows goes in steps
        # of at most DRAW_CHUNK_WORDS, the members' bytes unchanged
        asked, stream = [], generators._stream

        class Wrapped:
            def __init__(self, *a):
                self.stream = stream(*a)

            def random_raw(self, size):
                asked.append(size)
                return self.stream.random_raw(size)

        monkeypatch.setattr(generators, "_stream", Wrapped)
        tc = generators.random_collection(n, m, 3)
        width = (n * (n - 1) // 2 + 63) // 64
        assert m * width > generators.DRAW_CHUNK_WORDS
        assert sum(asked) == m * width
        assert max(asked) == generators.DRAW_CHUNK_WORDS
        assert [t.packed.tobytes() for t in tc.tournaments] == [
            stream_row(n, 3, i) for i in range(m)]

    @pytest.mark.parametrize("call, exc", [
        (lambda: generators.random_collection(5, 4, seed=-1), ValueError),
        (lambda: generators.random_tournament(5, seed=-1), ValueError),
        (lambda: generators.random_collection(
            5, 4, 0, strongly_connected_count=-1), ValueError),
        (lambda: generators.random_collection(5, 12, seed=-1), ValueError),
        (lambda: generators.random_collection(5, 4, seed=1.5), TypeError),
        (lambda: generators.random_collection(5, 12, seed=1.5), TypeError),
        (lambda: generators.random_tournament(5, seed="1"), TypeError),
        (lambda: generators.random_collection(0, 4, seed=0), ValueError),
        (lambda: generators.random_collection(5, 0, seed=0), ValueError),
        (lambda: generators.random_collection(
            2, 1, 0, strongly_connected_count=1), ValueError),
        (lambda: generators.random_collection(
            5, 4, 0, strongly_connected_count=0.0), TypeError),
        (lambda: generators.random_collection(
            5, 4, 0, strongly_connected_count=""), TypeError),
        (lambda: generators.random_collection(
            5, 4, 0, strongly_connected_count=[]), TypeError),
    ])
    def test_bad_arguments_keep_their_exception_types(self, call, exc):
        with pytest.raises(exc):
            call()


class TestVertexCount:
    """n goes through operator.index where generation starts, as the seed
    does: a bool is the int it stands for, a float a TypeError."""

    @pytest.mark.parametrize("kind", ["random_uniform", "transitive"])
    def test_boolean_n_writes_json_that_reads_back(self, kind):
        tc = generators.generate(kind, True, 1, 0)
        assert type(tc.n) is int and tc.to_json().startswith('{"n":1,')
        assert TournamentCollection.from_json(tc.to_json()) == tc

    def test_boolean_n_tournament_has_an_int_n(self):
        t = generators.random_tournament(True, 4)
        assert type(t.n) is int and repr(t) == "Tournament(n=1, bits='')"

    @pytest.mark.parametrize("m", [4, 12])
    def test_float_n_is_refused_before_any_draw(self, m):
        with pytest.raises(TypeError, match="'float'") as exc:
            generators.random_collection(5.0, m, seed=0)
        assert exc.traceback[-1].name == "random_collection"


class TestGenerateDispatch:
    def test_kinds_dispatch(self):
        # every kind asked for n = 5, m = 4: single tournaments come back
        # with m = 1, and the fixed families keep their own sizes
        want = {
            "transitive": (5, 1),
            "directed_cycle_tournament": (5, 1),
            "random_uniform": (5, 4),
            "random_strongly_connected": (5, 4),
            "prop14_collection": (5, 5),
            "fig1_path_counterexample": (3, 2),
            "fig1_cycle_counterexample": (3, 3),
        }
        assert set(want) == set(generators.KINDS)
        for kind, (n, m) in want.items():
            tc = generators.generate(kind, 5, 4, seed=0)
            assert (tc.n, tc.m) == (n, m), kind

    def test_kinds_are_the_gen_choices(self):
        gen = _build_parser()._subparsers._group_actions[0].choices["gen"]
        kind = next(a for a in gen._actions if a.dest == "kind")
        assert set(generators.KINDS) == set(kind.choices)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            generators.generate("nope", 5)
