"""The command-line entry point, driven through main(argv)."""

import argparse
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from conftest import source_collection
from rainbow_tournaments import generators, harness, oracle, pipeline
from rainbow_tournaments.cli import _build_parser, main
from rainbow_tournaments.core import (
    RainbowCycle,
    TournamentCollection,
    majority_subtournament,
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

    # count: the number of transversal Hamilton paths (n <= 7), which reads
    # the instance and no other flag

    def test_count_all(self, inst, capsys):
        code, out = run(capsys, "count", inst)
        tc = TournamentCollection.from_json(open(inst).read())
        assert code == 0
        assert json.loads(out) == {
            "count": oracle.count_transversal_ham_paths(tc)}

    def test_count_all_rejects_cycle_mode(self, tmp_path, capsys):
        # it counts paths only: solve --count-all --mode cycle used to print
        # the path count
        dest = tmp_path / "sc.json"
        run(capsys, "gen", "--kind", "random_strongly_connected", "-n", "5",
            "-m", "5", "--seed", "146", "--out", str(dest))
        code, out = run(capsys, "count", str(dest))
        assert (code, json.loads(out)) == (0, {"count": 896})
        with pytest.raises(SystemExit) as exc:
            main(["count", "--mode", "cycle", str(dest)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        # argparse reads "cycle" as the input file; the error names the
        # flag alone, not the file left over after it
        assert captured.err.endswith("unrecognized arguments: --mode\n")

    @pytest.mark.parametrize("flags", [
        ["--exact"], ["--constructive"], ["--budget-nodes", "1"],
        ["--budget-secs", "5"], ["--seed", "1"], ["--trace", "TRACE"],
    ])
    def test_count_all_rejects_flags_it_ignores(self, inst, tmp_path,
                                                capsys, flags):
        trace = tmp_path / "t.jsonl"
        flags = [str(trace) if f == "TRACE" else f for f in flags]
        with pytest.raises(SystemExit) as exc:
            main(["count", *flags, inst])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.endswith(
            f"unrecognized arguments: {flags[0]}\n")
        assert not trace.exists()

    def test_count_reads_stdin(self, inst, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(open(inst).read()))
        assert run(capsys, "count", "-") == run(capsys, "count", inst)

    def test_count_above_seven_vertices_exits_2(self, tmp_path, capsys):
        p = tmp_path / "n8.json"
        p.write_text(generators.random_collection(8, 7, seed=1).to_json())
        code = main(["count", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("rainbow-tournaments: error: ")
        assert captured.err.count("\n") == 1
        assert "n <= 7" in captured.err

    @pytest.mark.parametrize("argv, detail", [
        (["--constructive", "--budget-nodes", "5"], "--budget-nodes"),
        (["--constructive", "--budget-secs", "1"], "--budget-secs"),
        (["--exact", "--seed", "3"], "--exact does not take --seed"),
    ])
    def test_flag_its_mode_does_not_read(self, tmp_path, capsys, argv,
                                         detail):
        # checked before the instance is read: the file need not exist
        code = main(["solve", *argv, str(tmp_path / "absent.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("rainbow-tournaments: error: ")
        assert captured.err.count("\n") == 1
        assert detail in captured.err
        assert "absent.json" not in captured.err

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
    """Unreadable instances exit 2 with one error line, no traceback, from
    both commands that read one."""

    def rejected(self, capsys, monkeypatch, text, detail=""):
        import io

        for cmd in ("solve", "count"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code = main([cmd, "-"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("rainbow-tournaments: error: ")
            assert captured.err.count("\n") == 1
            assert detail in captured.err

    def test_missing_key(self, capsys, monkeypatch):
        self.rejected(capsys, monkeypatch, '{"n":3}', "'m'")

    def test_invalid_json(self, capsys, monkeypatch):
        self.rejected(capsys, monkeypatch, '{"n":3,')

    def test_wrong_length_bit_string(self, capsys, monkeypatch):
        self.rejected(capsys, monkeypatch,
                      '{"n":3,"m":1,"tournaments":["01"]}', "length 3")

    def test_non_integer_vertex_count(self, capsys, monkeypatch):
        self.rejected(capsys, monkeypatch,
                      '{"n":3.0,"m":1,"tournaments":["010"]}', "integer")

    @pytest.mark.parametrize("text, detail", [
        ("[" * 100_000 + "]" * 100_000, "nested"),
        ('{"n":true,"m":1,"tournaments":[""]}', "integer"),
        ('{"n":3,"m":1.0,"tournaments":["010"]}', "integer"),
        ('{"n":3,"m":true,"tournaments":["010"]}', "integer"),
        ('[3, 1, ["010"]]', "object"),
        ('{"n":3,"m":1}', "'tournaments'"),
        # a string is no list, though its characters are bit strings
        ('{"n":2,"m":3,"tournaments":"010"}', "list"),
        ('{"n":3,"m":2,"tournaments":["010"]}', "list of m"),
    ], ids=["deep-nesting", "boolean-n", "float-m", "boolean-m",
            "not-an-object", "no-tournaments", "string-tournaments",
            "count-mismatch"])
    def test_malformed_document(self, capsys, monkeypatch, text, detail):
        self.rejected(capsys, monkeypatch, text, detail)

    def test_missing_file(self, tmp_path, capsys):
        for cmd in ("solve", "count"):
            code = main([cmd, str(tmp_path / "absent.json")])
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
          "--sizes", "3,5"], "n <= 4"),
        (["verify", "--suite", "lemma-forcing_set", "--sizes", "5"],
         "n >= 25"),
        (["solve", "--seed", "-1", "absent.json"], "negative"),
        (["verify", "--suite", "lemma-absorber", "--sizes", "6"],
         "n >= 7"),
        (["verify", "--suite", "theorem-path", "--seeds", "0"],
         "no instance"),
        (["verify", "--suite", "theorem-path", "--seeds", "-1"],
         "no instance"),
        # no 2-vertex tournament is strongly connected
        (["verify", "--suite", "theorem-cycle", "--mode", "exhaustive",
          "--sizes", "2"], "no instance"),
        (["bench", "--kind", "one_spare", "--seeds", "0"], "no instance"),
        (["solve", "--budget-nodes", "-5", "absent.json"], "negative"),
        (["solve", "--budget-secs", "-1", "absent.json"], "negative"),
        (["verify", "--suite", "lemma-hpartition", "--mode", "exhaustive",
          "--sizes", "5", "--seeds", "1"], "theorem suites only"),
        (["solve", "--exact", "--budget-secs", "nan", "absent.json"], "NaN"),
        # the size the user gave is named, not the derived color count
        (["bench", "--kind", "oracle", "--sizes", "3,1"],
         "the oracle kind needs n >= 2, not 1"),
        (["bench", "--kind", "pipeline", "--sizes", "1"],
         "the pipeline kind needs n >= 2, not 1"),
        (["bench", "--kind", "cycle", "--sizes", "2"],
         "the cycle kind needs n >= 3, not 2"),
        # no worker count below 1 falls back to a serial run
        (["verify", "--suite", "lemma-one_spare", "--jobs", "0"],
         "--jobs 0 is below 1"),
        (["verify", "--suite", "theorem-path", "--jobs", "-2"],
         "--jobs -2 is below 1"),
        (["bench", "--kind", "one_spare", "--jobs", "0"],
         "--jobs 0 is below 1"),
        (["bench", "--kind", "majority", "--jobs", "-1"],
         "--jobs -1 is below 1"),
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
                        "--mode", "exhaustive", "--sizes", "3",
                        "--no-timing")
        assert code == 0
        rec = json.loads(out)
        assert rec["instances"] == 64
        assert rec["stats"]["not_exists"] == 2
        assert "wall_secs" not in rec

    def test_theorem_suite_runs_the_listed_sizes(self, capsys, monkeypatch):
        real, sizes = harness._run_tasks, []

        def recorded(fn, tasks, jobs):
            sizes.extend(n for _, _, n, _ in tasks)
            return real(fn, tasks, jobs)

        monkeypatch.setattr(harness, "_run_tasks", recorded)
        code, out = run(capsys, "verify", "--suite", "theorem-path",
                        "--sizes", "3,5", "--seeds", "4", "--no-timing")
        assert code == 0
        assert sizes == [3] * 4 + [5] * 4
        assert json.loads(out)["instances"] == 8

    # sha256 prefixes of the reports that the same grids gave as
    # --n-min/--n-max ranges, before --sizes replaced those flags
    @pytest.mark.parametrize("argv, digest", [
        (["--suite", "theorem-path", "--sizes", "4,5,6", "--seeds", "5"],
         "e73c24ccbb38e4ef"),
        (["--suite", "theorem-cycle", "--mode", "exhaustive", "--sizes", "3"],
         "fea5278998b274f7"),
    ])
    def test_report_as_the_range_flags_gave_it(self, capsys, argv, digest):
        code, out = run(capsys, "verify", *argv, "--no-timing")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

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

    def test_majority_kind(self, capsys):
        code, out = run(capsys, "bench", "--kind", "majority",
                        "--sizes", "2,40", "--seeds", "2", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for kind, n, seed, _, _, extra in rows:
            tc = generators.random_collection(int(n), int(n) - 1, int(seed))
            tmaj = majority_subtournament(tc)
            assert kind == "majority"
            assert extra == hashlib.sha256(tmaj.packed).hexdigest()[:16]
        assert len(rows) == 4

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
        ["verify", "--suite", "theorem-path", "--n-min", "3"],
        ["verify", "--suite", "theorem-path", "--n-max", "3"],
        ["bench", "--kind", "one_spare", "--seed", "1"],
        ["bench", "--kind", "one_spare", "--budget-nodes", "5"],
        ["bench", "--kind", "one_spare", "--budget-secs", "1"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_removed_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["x.json"] * (argv[0] == "solve"))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _readme_command_lines():
    """The rainbow-tournaments lines of the README's "Command line" block,
    without their comments and redirections."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n+```sh\n(.*?)```", text, re.S)
    lines = [line.split("#")[0] for line in block.group(1).splitlines()]
    return [re.sub(r"\s[<>]\s*\S+", "", line).strip() for line in lines
            if line.startswith("rainbow-tournaments ")]


def _readme_flag_rows():
    """(subcommand, flags) of each row of the README's subcommand table:
    the backticked tokens that start with a dash."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = re.search(r"\| Subcommand \| Flags \|\n(.*?)\n\n", text, re.S)
    rows = re.findall(r"^\| `(\w+)` *\|(.*)\|$", table.group(1), re.M)
    return [(cmd, set(re.findall(r"`(--?[a-z][\w-]*)", flags)))
            for cmd, flags in rows]


class TestReadme:
    def test_the_block_has_every_subcommand(self):
        used = {shlex.split(line)[1] for line in _readme_command_lines()}
        assert used == {"gen", "solve", "count", "verify", "bench"}

    def test_the_table_has_every_subcommand(self):
        assert [cmd for cmd, _ in _readme_flag_rows()] == [
            "gen", "solve", "count", "verify", "bench"]

    @pytest.mark.parametrize("cmd, flags", _readme_flag_rows())
    def test_table_row_names_the_parser_flags(self, cmd, flags):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        defined = {o for a in sub.choices[cmd]._actions
                   for o in a.option_strings} - {"-h", "--help"}
        assert flags == defined

    def test_bench_row_names_every_kind(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        kinds = re.search(r"\| `bench` +\| `--kind \{([\w,]+)\}`", text)
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        kind = next(a for a in sub.choices["bench"]._actions
                    if "--kind" in a.option_strings)
        assert kinds.group(1).split(",") == kind.choices
        assert kind.choices == list(harness.BENCH_KINDS)

    @pytest.mark.parametrize("line", _readme_command_lines())
    def test_command_line_parses(self, line):
        # parsed only: nothing runs
        _build_parser().parse_args(shlex.split(line)[1:])
