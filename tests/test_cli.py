"""The command-line entry point, driven through main(argv)."""

import json

import pytest

from conftest import source_collection
from rainbow_tournaments import generators, pipeline
from rainbow_tournaments.cli import main
from rainbow_tournaments.core import (
    RainbowCycle,
    TournamentCollection,
    validate_transversal,
)
from rainbow_tournaments.pipeline import transversal_ham_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_gen_to_stdout(self, capsys):
        code, out = run(capsys, "gen", "--kind", "random_uniform",
                        "-n", "6", "-m", "5", "--seed", "3")
        assert code == 0
        tc = TournamentCollection.from_json(out)
        assert (tc.n, tc.m) == (6, 5)

    def test_gen_to_file(self, tmp_path, capsys):
        dest = tmp_path / "inst.json"
        code, _ = run(capsys, "gen", "--kind", "prop14_collection", "-n", "5", "-m", "5",
                      "--out", str(dest))
        assert code == 0
        tc = TournamentCollection.from_json(dest.read_text())
        assert (tc.n, tc.m) == (5, 5)

    def test_gen_seed_changes_output(self, capsys):
        _, a = run(capsys, "gen", "--kind", "random_uniform", "-n", "6",
                   "--seed", "1")
        _, b = run(capsys, "gen", "--kind", "random_uniform", "-n", "6",
                   "--seed", "2")
        assert a != b


class TestGenErrors:
    """Arguments that name no instance exit 2 with one error line."""

    @pytest.mark.parametrize("argv, detail", [
        (["--kind", "random_uniform", "--seed", "-1"], "seed"),
        (["--kind", "random_uniform", "-n", "0"], "n must be positive"),
        (["--kind", "transitive", "-n", "0"], "n must be positive"),
        (["--kind", "random_uniform", "-m", "0"], "m must be positive"),
        (["--kind", "directed_cycle_tournament", "-n", "4"], "odd n"),
        (["--kind", "random_strongly_connected", "-n", "2"], "n >= 3"),
        (["--kind", "transitive", "-n", "5", "--seed", "-1"], "seed"),
        (["--kind", "prop14_collection", "-n", "5", "--seed", "-1"], "seed"),
    ])
    def test_bad_arguments(self, capsys, argv, detail):
        code = main(["gen", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("rainbow-tournaments: error: ")
        assert captured.err.count("\n") == 1
        assert detail in captured.err

    @pytest.mark.parametrize("argv, detail", [
        (["--kind", "fig1_path_counterexample", "-n", "10", "-m", "4"],
         "builds n = 3, m = 2, not -n 10"),
        (["--kind", "transitive", "-n", "4", "-m", "7"],
         "builds n = 4, m = 1, not -m 7"),
    ])
    def test_size_the_kind_does_not_build(self, capsys, argv, detail):
        code = main(["gen", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("rainbow-tournaments: error: ")
        assert captured.err.count("\n") == 1
        assert detail in captured.err

    def test_unwritable_output(self, tmp_path, capsys):
        dest = tmp_path / "absent" / "inst.json"
        code = main(["gen", "--kind", "transitive", "--out", str(dest)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("rainbow-tournaments: error: ")
        assert captured.err.count("\n") == 1


class TestSolve:
    @pytest.fixture()
    def inst(self, tmp_path):
        tc = generators.random_collection(6, 5, seed=3)
        p = tmp_path / "inst.json"
        p.write_text(tc.to_json())
        return str(p)

    def test_solve_exact(self, inst, capsys):
        code, out = run(capsys, "solve", "--mode", "path", "--exact", inst)
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] in ("Found", "NotExists")
        if rec["status"] == "Found":
            assert rec["witness"]["kind"] == "path"

    def test_solve_with_trace(self, inst, tmp_path, capsys):
        tr = tmp_path / "trace.jsonl"
        code, out = run(capsys, "solve", "--mode", "path",
                        "--trace", str(tr), inst)
        assert code == 0
        # small n goes straight to the oracle; the trace file still exists
        assert tr.exists()

    def test_unwritable_trace_fails_before_solving(self, inst, tmp_path,
                                                   capsys, monkeypatch):
        def solver(*args, **kwargs):
            raise AssertionError("solved despite an unwritable trace")

        monkeypatch.setattr(pipeline, "transversal_ham_path", solver)
        tr = tmp_path / "absent" / "trace.jsonl"
        code = main(["solve", "--trace", str(tr), inst])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("rainbow-tournaments: error: ")
        assert captured.err.count("\n") == 1
        assert "trace.jsonl" in captured.err

    def test_solve_budget_exhausted_exit_code(self, tmp_path, capsys):
        tc = source_collection(7, seed=0)
        p = tmp_path / "hard.json"
        p.write_text(tc.to_json())
        code, out = run(capsys, "solve", "--mode", "cycle", "--exact",
                        "--budget-nodes", "5", str(p))
        assert code == 1
        assert json.loads(out)["status"] == "BudgetExhausted"

    def test_cycle_witness_from_longest_path_machine(self, tmp_path, capsys):
        # auto mode answers this one with the longest-path machine, whose
        # vertex order comes from a numpy permutation
        dest = tmp_path / "sc.json"
        run(capsys, "gen", "--kind", "random_strongly_connected", "-n", "30",
            "-m", "30", "--seed", "1", "--out", str(dest))
        code, out = run(capsys, "solve", "--mode", "cycle", str(dest))
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] == "Found"
        w = rec["witness"]
        cyc = RainbowCycle(tuple(w["vertices"]), tuple(w["colors"]))
        tc = TournamentCollection.from_json(dest.read_text())
        assert len(cyc) == tc.n
        assert validate_transversal(tc, cyc.arcs())

    def test_count_all(self, inst, capsys):
        code, out = run(capsys, "solve", "--count-all", inst)
        assert code == 0
        assert json.loads(out)["count"] >= 0

    def test_solve_stdin(self, inst, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin",
                            io.StringIO(open(inst).read()))
        code, out = run(capsys, "solve", "--mode", "path", "-")
        assert code == 0

    def test_seed_reaches_the_solver(self, tmp_path, capsys):
        # n = 60 is answered by a constructive attempt, which the seed keys
        tc = generators.random_collection(60, 59, seed=9)
        p = tmp_path / "inst.json"
        p.write_text(tc.to_json())
        want = transversal_ham_path(tc, seed=4)
        assert want.witness != transversal_ham_path(tc).witness
        code, out = run(capsys, "solve", "--seed", "4", str(p))
        assert code == 0
        w = json.loads(out)["witness"]
        assert (tuple(w["vertices"]), tuple(w["colors"])) == (
            want.witness.vertices, want.witness.colors)


class TestMalformedInput:
    """Unreadable instances exit 2 with one error line, no traceback."""

    def solve_text(self, capsys, monkeypatch, text):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(["solve", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("rainbow-tournaments: error: ")
        assert captured.err.count("\n") == 1
        return captured.err

    def test_missing_key(self, capsys, monkeypatch):
        err = self.solve_text(capsys, monkeypatch, '{"n":3}')
        assert "'m'" in err

    def test_invalid_json(self, capsys, monkeypatch):
        self.solve_text(capsys, monkeypatch, '{"n":3,')

    def test_wrong_length_bit_string(self, capsys, monkeypatch):
        err = self.solve_text(capsys, monkeypatch,
                              '{"n":3,"m":1,"tournaments":["01"]}')
        assert "length 3" in err

    def test_non_integer_vertex_count(self, capsys, monkeypatch):
        err = self.solve_text(capsys, monkeypatch,
                              '{"n":3.0,"m":1,"tournaments":["010"]}')
        assert "integer" in err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "absent.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("rainbow-tournaments: error: ")
        assert captured.err.count("\n") == 1


class TestBadSuiteArguments:
    """Sizes, ranges and modes a suite cannot run exit 2 with one error
    line, no traceback (exit 1 would read as failures found)."""

    @pytest.mark.parametrize("argv, detail", [
        (["verify", "--suite", "lemma-one_spare", "--sizes", "5,x"], "5,x"),
        (["verify", "--suite", "lemma-one_spare", "--sizes", "0"], "'0'"),
        (["bench", "--kind", "one_spare", "--sizes", "5,x"], "5,x"),
        (["bench", "--kind", "one_spare", "--sizes", "0"], "'0'"),
        (["verify", "--suite", "theorem-path", "--mode", "exhaustive",
          "--n-max", "5"], "n <= 4"),
        (["verify", "--suite", "lemma-forcing_set", "--sizes", "5"],
         "n >= 25"),
        (["solve", "--seed", "-1", "absent.json"], "negative"),
        (["verify", "--suite", "lemma-absorber", "--sizes", "6"],
         "n >= 7"),
        (["verify", "--suite", "theorem-path", "--seeds", "0"],
         "no instance"),
        (["verify", "--suite", "theorem-path", "--seeds", "-1"],
         "no instance"),
        (["verify", "--suite", "theorem-path", "--n-min", "5",
          "--n-max", "3"], "no instance"),
        (["bench", "--kind", "one_spare", "--seeds", "0"], "no instance"),
        (["solve", "--budget-nodes", "-5", "absent.json"], "negative"),
        (["solve", "--budget-secs", "-1", "absent.json"], "negative"),
        (["verify", "--suite", "lemma-hpartition", "--mode", "exhaustive",
          "--sizes", "5", "--seeds", "1"], "theorem suites only"),
        (["solve", "--exact", "--budget-secs", "nan", "absent.json"], "NaN"),
    ])
    def test_rejected(self, capsys, argv, detail):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("rainbow-tournaments: error: ")
        assert captured.err.count("\n") == 1
        assert detail in captured.err


class TestVerify:
    def test_theorem_path_exhaustive(self, capsys):
        code, out = run(capsys, "verify", "--suite", "theorem-path",
                        "--mode", "exhaustive", "--n-min", "3",
                        "--n-max", "3", "--no-timing")
        assert code == 0
        rec = json.loads(out)
        assert rec["instances"] == 64
        assert rec["stats"]["not_exists"] == 2
        assert "wall_secs" not in rec

    def test_lemma_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "lemma-one_spare",
                        "--sizes", "5,8", "--seeds", "4", "--no-timing")
        assert code == 0
        assert json.loads(out)["failures"] == 0


class TestBench:
    def test_csv_output(self, capsys):
        code, out = run(capsys, "bench", "--kind", "one_spare",
                        "--sizes", "10,20", "--seeds", "2",
                        "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,n,seed,gen_millis,millis,extra"
        assert len(lines) == 5

    def test_json_output(self, capsys):
        code, out = run(capsys, "bench", "--kind", "h_partition",
                        "--sizes", "15", "--seeds", "1")
        assert code == 0
        assert json.loads(out)["suite"] == "bench-h_partition"


class TestParsing:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_conflicting_modes(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--exact", "--constructive", "x.json"])

    # flags a subcommand once accepted and ignored, and the solver knobs
    # that are constants now
    @pytest.mark.parametrize("argv", [
        ["solve", "--mu", "0.01"],
        ["solve", "--gamma", "0.05"],
        ["solve", "--beta", "0.1"],
        ["solve", "--fallback-n", "9"],
        ["solve", "--jobs", "2"],
        ["solve", "--format", "csv"],
        ["gen", "--kind", "transitive", "--jobs", "2"],
        ["gen", "--kind", "transitive", "--format", "csv"],
        ["gen", "--kind", "transitive", "--budget-nodes", "5"],
        ["gen", "--kind", "transitive", "--budget-secs", "1"],
        ["verify", "--suite", "lemma-one_spare", "--seed", "1"],
        ["verify", "--suite", "lemma-one_spare", "--format", "csv"],
        ["verify", "--suite", "lemma-one_spare", "--budget-nodes", "5"],
        ["verify", "--suite", "lemma-one_spare", "--budget-secs", "1"],
        ["bench", "--kind", "one_spare", "--seed", "1"],
        ["bench", "--kind", "one_spare", "--budget-nodes", "5"],
        ["bench", "--kind", "one_spare", "--budget-secs", "1"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_removed_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["x.json"] * (argv[0] == "solve"))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
