"""Verification suites: counting, failure records, parallel determinism."""

import concurrent.futures

import pytest

from rainbow_tournaments import constructive, harness


class TestTheoremSweeps:
    def test_exhaustive_path_n3(self):
        rep = harness.verify_theorem("path", [3], mode="exhaustive")
        assert rep.ok
        assert rep.instances == 64
        # the opposite-triangle pair, in both orders, is the only miss
        assert rep.stats["not_exists"] == 2

    @pytest.mark.parametrize("what", ["path", "cycle"])
    def test_random_sweep(self, what):
        rep = harness.verify_theorem(what, [4, 5, 6], mode="random",
                                     seeds=range(20))
        assert rep.ok and rep.instances == 60
        assert rep.suite == f"theorem-{what}-random"

    def test_exhaustive_cycle_limit(self):
        with pytest.raises(ValueError):
            harness.verify_theorem("cycle", [3, 4], mode="exhaustive")

    def test_exhaustive_limit_reads_the_largest_size(self):
        with pytest.raises(ValueError, match="n <= 4"):
            harness.verify_theorem("path", [5, 3], mode="exhaustive")

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    def test_no_size_is_no_instance(self, mode):
        with pytest.raises(ValueError, match="no instance"):
            harness.verify_theorem("path", [], mode=mode)

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError, match="choose path or cycle"):
            harness.verify_theorem("walk", [4], seeds=range(3))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="choose exhaustive or random"):
            harness.verify_theorem("path", [4], mode="exhastive",
                                   seeds=range(2))


class TestLemmaSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            harness.verify_lemmas("nope", [5])

    def test_hpartition_checks_caps_above_n(self, monkeypatch):
        # at n <= 2 every cap exceeds n; each still partitions the tournament
        # into its one block
        caps = []
        run = constructive.h_partition

        def spy(t, ell):
            caps.append((t.n, ell))
            return run(t, ell)

        monkeypatch.setattr(constructive, "h_partition", spy)
        rep = harness.verify_lemmas("hpartition", [1, 2], seeds=range(2))
        assert rep.ok and rep.instances == 4
        for n in (1, 2):
            assert {ell for m, ell in caps if m == n} == {3, 24}

    def test_every_suite_runs_clean(self):
        sizes = {
            "hpartition": [12, 30],
            "low_degree": [6, 9],
            "one_spare": [5, 12],
            "forcing_color": [6, 10],
            "forcing_set": [60],
            "rainbow_connect": [10],
            "absorber": [20],
        }
        for suite, ns in sizes.items():
            rep = harness.verify_lemmas(suite, ns, seeds=range(3))
            assert rep.ok, (suite, rep.failures[:2])


class TestReports:
    def test_timing_fields_stripped(self):
        rep = harness.verify_theorem("path", [4], seeds=range(3))
        line = rep.to_jsonl(include_timing=False)
        assert "wall_secs" not in line
        assert "wall_secs" in rep.to_jsonl(include_timing=True)

    def test_jobs_do_not_change_report(self):
        a = harness.verify_theorem("path", [4, 5], seeds=range(8), jobs=1)
        b = harness.verify_theorem("path", [4, 5], seeds=range(8), jobs=4)
        assert a.to_jsonl(False) == b.to_jsonl(False)

    @pytest.mark.parametrize("what", ["path", "cycle"])
    def test_jobs_do_not_change_exhaustive_report(self, what):
        # exhaustive tasks carry the collections themselves to the workers
        a = harness.verify_theorem(what, [3], mode="exhaustive", jobs=1)
        b = harness.verify_theorem(what, [3], mode="exhaustive", jobs=2)
        assert a.to_jsonl(False) == b.to_jsonl(False)
        assert a.instances > 0 and a.stats["not_exists"] > 0


class TestWorkers:
    @pytest.mark.parametrize("cpus, want", [(8, 3), (2, 2)])
    def test_workers_capped(self, monkeypatch, cpus, want):
        workers = []

        class SerialPool:
            """Records max_workers and maps in this process."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert harness._run_tasks(abs, [-1, -2, -3], jobs=10**6) == [1, 2, 3]
        assert workers == [want]


class TestBench:
    def test_csv_shape(self):
        rep = harness.bench("h_partition", [20, 40], seeds=range(2))
        lines = rep.stats["csv"].strip().splitlines()
        assert lines[0] == "kind,n,seed,gen_millis,millis,extra"
        assert len(lines) == 5

    def test_cycle_kind(self):
        rep = harness.bench("cycle", [10, 30], seeds=range(2))
        lines = rep.stats["csv"].strip().splitlines()
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["cycle", "10", "0"], ["cycle", "10", "1"],
            ["cycle", "30", "0"], ["cycle", "30", "1"]]
        assert all(line.endswith(",Found") for line in lines[1:])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            harness.bench("nope", [5])

    def test_unknown_kind_rejected_before_any_task(self, monkeypatch):
        monkeypatch.setattr(harness, "_run_tasks",
                            lambda *args: pytest.fail("a task ran"))
        with pytest.raises(ValueError, match="unknown bench kind 'nope'"):
            harness.bench("nope", [5])

    @pytest.mark.parametrize("kind, least", list(harness.BENCH_KINDS.items()))
    def test_each_kind_runs_from_its_least_n(self, kind, least):
        rep = harness.bench(kind, [least], seeds=range(1))
        assert rep.instances == 1
        if least > 1:
            with pytest.raises(ValueError,
                               match=f"the {kind} kind needs n >= {least}, "
                                     f"not {least - 1}"):
                harness.bench(kind, [least - 1], seeds=range(1))

    def test_h_partition_times_the_partition_alone(self, monkeypatch):
        # the tournament's out-rows are built with it, as generation time,
        # so millis holds the partition only
        warm = []
        run = constructive.h_partition

        def spy(t, ell):
            warm.append(t._out is not None)
            return run(t, ell)

        monkeypatch.setattr(constructive, "h_partition", spy)
        rep = harness.bench("h_partition", [30], seeds=range(2))
        assert warm == [True, True]
        assert len(rep.stats["csv"].splitlines()) == 3
