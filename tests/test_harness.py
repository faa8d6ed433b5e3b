"""Verification suites: counting, failure records, parallel determinism."""

import pytest

from rainbow_tournaments import harness


class TestTheoremSweeps:
    def test_exhaustive_path_n3(self):
        rep = harness.verify_theorem("path", 3, 3, mode="exhaustive")
        assert rep.ok
        assert rep.instances == 64
        # the opposite-triangle pair, in both orders, is the only miss
        assert rep.stats["not_exists"] == 2

    @pytest.mark.parametrize("what", ["path", "cycle"])
    def test_random_sweep(self, what):
        rep = harness.verify_theorem(what, 4, 6, mode="random",
                                     seeds=range(20))
        assert rep.ok and rep.instances == 60
        assert rep.suite == f"theorem-{what}-random"

    def test_exhaustive_cycle_limit(self):
        with pytest.raises(ValueError):
            harness.verify_theorem("cycle", 3, 4, mode="exhaustive")

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError, match="choose path or cycle"):
            harness.verify_theorem("walk", 4, 4, seeds=range(3))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="choose exhaustive or random"):
            harness.verify_theorem("path", 4, 4, mode="exhastive",
                                   seeds=range(2))


class TestLemmaSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            harness.verify_lemmas("nope", [5])

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
        rep = harness.verify_theorem("path", 4, 4, seeds=range(3))
        line = rep.to_jsonl(include_timing=False)
        assert "wall_secs" not in line
        assert "wall_secs" in rep.to_jsonl(include_timing=True)

    def test_jobs_do_not_change_report(self):
        a = harness.verify_theorem("path", 4, 5, seeds=range(8), jobs=1)
        b = harness.verify_theorem("path", 4, 5, seeds=range(8), jobs=4)
        assert a.to_jsonl(False) == b.to_jsonl(False)

    @pytest.mark.parametrize("what", ["path", "cycle"])
    def test_jobs_do_not_change_exhaustive_report(self, what):
        # exhaustive tasks carry the collections themselves to the workers
        a = harness.verify_theorem(what, 3, 3, mode="exhaustive", jobs=1)
        b = harness.verify_theorem(what, 3, 3, mode="exhaustive", jobs=2)
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

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert harness._run_tasks(abs, [-1, -2, -3], jobs=10**6) == [1, 2, 3]
        assert workers == [want]


class TestBench:
    def test_csv_shape(self):
        rep = harness.bench("h_partition", [20, 40], seeds=range(2))
        lines = rep.stats["csv"].strip().splitlines()
        assert lines[0] == "kind,n,seed,gen_millis,millis,extra"
        assert len(lines) == 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            harness.bench("nope", [5])
