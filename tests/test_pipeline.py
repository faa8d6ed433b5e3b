"""End-to-end solvers: constructive pipeline, exchange step, cycle closing."""

import pytest

from rainbow_tournaments import core, generators, oracle, pipeline
from rainbow_tournaments.core import (
    RainbowPath,
    TournamentCollection,
    validate_transversal,
)
from rainbow_tournaments.errors import (
    AbsorberConstructionError,
    AbsorptionFailedError,
)
from rainbow_tournaments.oracle import (
    BUDGET_EXHAUSTED,
    FOUND,
    NOT_EXISTS,
    SearchBudget,
)
from rainbow_tournaments.pipeline import (
    exchange_step,
    transversal_ham_cycle,
    transversal_ham_path,
)


class TestPathSolver:
    def test_too_few_colors(self):
        tc = generators.random_collection(6, 3, seed=0)
        out = transversal_ham_path(tc)
        assert out.status == NOT_EXISTS

    def test_small_delegates_to_oracle(self):
        for seed in range(50):
            tc = generators.random_collection(6, 5, seed=seed)
            out = transversal_ham_path(tc)
            ref = oracle.exact_transversal_ham_path(tc)
            assert out.status == ref.status
            if out.found:
                assert out.witness.is_hamilton(tc)

    def test_extra_colors_reduced(self):
        tc = generators.random_collection(6, 9, seed=1)
        out = transversal_ham_path(tc)
        if out.found:
            assert set(out.witness.colors) <= set(range(5))

    def test_counterexample_not_exists(self):
        path_inst, _ = generators.fig1_counterexamples()
        out = transversal_ham_path(path_inst)
        assert out.status == NOT_EXISTS

    def test_constructive_at_moderate_size(self):
        tc = generators.random_collection(80, 79, seed=11)
        trace = []
        out = transversal_ham_path(tc, mode="constructive", trace=trace)
        assert out.status == FOUND
        assert out.witness.is_hamilton(tc)
        assert any(ev.get("stage") == "reduce" or ev for ev in trace)

    def test_exact_mode_forces_oracle(self):
        tc = generators.random_collection(7, 6, seed=3)
        out = transversal_ham_path(tc, mode="exact")
        ref = oracle.exact_transversal_ham_path(tc)
        assert out.status == ref.status

    def test_never_claims_not_exists_constructively(self):
        # constructive mode can only answer Found or BudgetExhausted
        for seed in range(30):
            tc = generators.random_collection(12, 11, seed=seed)
            out = transversal_ham_path(tc, mode="constructive")
            assert out.status in (FOUND, BUDGET_EXHAUSTED)
            if out.found:
                assert out.witness.is_hamilton(tc)


    def test_invalid_constructive_witness_never_returned(self, monkeypatch):
        tc = generators.random_collection(80, 79, seed=11)
        good = transversal_ham_path(tc, mode="constructive").witness
        short = RainbowPath(good.vertices[:-1], good.colors[:-1])
        # every arc turned around: no tournament holds both directions
        reversed_ = RainbowPath(good.vertices[::-1], good.colors[::-1])
        assert short.valid(tc) and not reversed_.valid(tc)
        partitions = []
        real_partition = pipeline._partition_for
        monkeypatch.setattr(
            pipeline, "_partition_for",
            lambda *a: partitions.append(1) or real_partition(*a),
        )
        for bad in (short, reversed_):
            monkeypatch.setattr(pipeline, "_constructive_path",
                                lambda *a, **k: bad)
            trace = []
            out = transversal_ham_path(tc, mode="constructive", trace=trace)
            assert out.status == BUDGET_EXHAUSTED
            fails = [ev["error"] for ev in trace
                     if ev["stage"] == "attempt-failed"]
            assert len(fails) == pipeline.DHP_RETRIES
            assert all(e.startswith("[path-assemble]") for e in fails)
        # one partition per solve, however many attempts
        assert len(partitions) == 2

    @pytest.mark.parametrize("what", ["path", "cycle"])
    def test_too_few_blocks_is_not_retried(self, what):
        # the partition does not depend on the seed, so neither does this
        n = 20
        if what == "path":
            tc = generators.random_collection(n, n - 1, seed=3)
            solver = transversal_ham_path
        else:
            tc = generators.random_collection(n, n, seed=3,
                                              strongly_connected_count=n - 1)
            solver = transversal_ham_cycle
        trace = []
        solver(tc, mode="constructive", trace=trace)
        fails = [ev["error"] for ev in trace
                 if ev["stage"] == "attempt-failed"]
        assert fails == [f"[{what}-pre] too few blocks for the assembly"]


class TestExchangeStep:
    def test_prepend_splice_append(self):
        tc = generators.random_collection(10, 10, seed=5)
        # start from a single vertex and grow to Hamilton
        p = RainbowPath((0,), ())
        unused = set(range(10))
        while len(p.vertices) < 10:
            q = exchange_step(p, unused - set(p.colors), tc)
            assert q is not None
            assert len(q.vertices) == len(p.vertices) + 1
            assert q.valid(tc)
            p = q
        assert p.is_hamilton(tc)

    def test_saturated_path_returns_none(self):
        tc = generators.random_collection(6, 6, seed=1)
        p = RainbowPath((0,), ())
        unused = set(range(6))
        while len(p.vertices) < 6:
            p = exchange_step(p, unused - set(p.colors), tc)
        assert exchange_step(p, unused - set(p.colors), tc) is None


class TestCycleSolver:
    def test_small_delegates_to_oracle(self):
        for seed in range(50):
            tc = generators.random_collection(
                6, 6, seed=seed, strongly_connected_count=5
            )
            out = transversal_ham_cycle(tc)
            ref = oracle.exact_transversal_ham_cycle(tc)
            assert out.status == ref.status
            if out.found:
                assert out.witness.is_hamilton(tc)

    def test_counterexample_not_exists(self):
        _, cyc_inst = generators.fig1_counterexamples()
        out = transversal_ham_cycle(cyc_inst)
        assert out.status == NOT_EXISTS

    def test_impossibility_family(self):
        for n in (5, 8):
            out = transversal_ham_cycle(generators.prop14_collection(n))
            assert out.status == NOT_EXISTS

    @pytest.mark.parametrize("n", [22, 40])
    def test_impossibility_family_past_the_oracle_size(self, n):
        # every constructive route fails; the oracle fallback refutes it
        # with the chain-cut bound instead of running out of nodes
        out = transversal_ham_cycle(generators.prop14_collection(n))
        assert out.status == NOT_EXISTS
        assert "oracle fallback" in out.notes

    def test_too_few_colors(self):
        tc = generators.random_collection(6, 5, seed=0)
        out = transversal_ham_cycle(tc)
        assert out.status == NOT_EXISTS

    def test_connectivity_precondition_noted(self):
        # all-transitive members cannot close a cycle; the violation is
        # reported in the notes and the verdict still comes from the search
        t = generators.transitive_tournament(6)
        from rainbow_tournaments.core import TournamentCollection

        tc = TournamentCollection([t] * 6)
        out = transversal_ham_cycle(tc)
        assert out.status == NOT_EXISTS
        assert "strongly connected" in out.notes

    def test_constructive_at_moderate_size(self):
        tc = generators.random_collection(
            80, 80, seed=2, strongly_connected_count=79
        )
        out = transversal_ham_cycle(tc, mode="constructive")
        assert out.status == FOUND
        assert out.witness.is_hamilton(tc)

    def test_no_closing_arc_falls_to_the_longest_path_machine(self):
        # every color is prop14_tprime, whose only backward arcs join
        # consecutive vertices: no arc runs from the last outer block back
        # to the first, so every attempt fails at the closing arc
        tc = TournamentCollection([generators.prop14_tprime(100)] * 100)
        trace = []
        out = transversal_ham_cycle(tc, mode="constructive", trace=trace)
        failed = [r for r in trace if r["stage"] == "attempt-failed"]
        assert [r["attempt"] for r in failed] == list(range(8))
        assert all(r["error"].startswith("[cycle-case1]") for r in failed)
        assert out.status == FOUND
        assert out.notes == "longest-path machine"
        assert validate_transversal(tc, out.witness.arcs())
        assert out.witness.is_hamilton(tc)


class TestLongestPathMachine:
    def test_refresh_reads_no_arcs(self, monkeypatch):
        tc = generators.random_collection(
            12, 12, seed=4, strongly_connected_count=11
        )
        p = RainbowPath((0,), ())
        for _ in range(5):
            p = exchange_step(p, set(range(tc.m)) - set(p.colors), tc)
        state = pipeline.CycleSearchState(P=p)
        monkeypatch.setattr(core.Tournament, "has_arc", _raise_index_error)
        state.refresh(tc)
        assert state.D_unused == set(range(tc.m)) - set(p.colors)

    def test_arc_reads_grow_with_n_squared(self, monkeypatch):
        n = 200
        tc = TournamentCollection([generators.prop14_tprime(n)] * n)
        has_arc = core.Tournament.has_arc
        calls = []

        def counted(self, u, v):
            calls.append(1)
            return has_arc(self, u, v)

        monkeypatch.setattr(core.Tournament, "has_arc", counted)
        cyc = pipeline._case3_machine(tc, 0, None)
        assert cyc is not None and cyc.is_hamilton(tc)
        assert len(calls) <= n * n


def _raise_index_error(*args, **kwargs):
    raise IndexError("list index out of range")


def _raise_absorber_error(*args, **kwargs):
    raise AbsorberConstructionError("absorber retries exhausted")


def _raise_absorption_error(*args, **kwargs):
    raise AbsorptionFailedError("no rainbow coloring with this top-up set")


class TestInternalErrors:
    """An exception other than StageFailure fails an attempt, not the solve."""

    def test_absorber_failure_is_a_stage_failure(self, monkeypatch):
        # an expected dead end, so not traced as [internal]
        monkeypatch.setattr(pipeline, "build_absorber", _raise_absorber_error)
        tc = generators.random_collection(60, 59, seed=5)
        trace = []
        out = transversal_ham_path(tc, trace=trace)
        fails = [ev["error"] for ev in trace
                 if ev["stage"] == "attempt-failed"]
        assert fails == (["[dhp-step2] absorber retries exhausted"]
                         * pipeline.DHP_RETRIES)
        assert out.found and out.witness.is_hamilton(tc)

    def test_absorption_failure_is_a_stage_failure(self, monkeypatch):
        # a top-up set the sampled absorber check missed: a dead end too
        monkeypatch.setattr(pipeline, "absorb", _raise_absorption_error)
        tc = generators.random_collection(60, 59, seed=5)
        trace = []
        out = transversal_ham_path(tc, trace=trace)
        fails = [ev["error"] for ev in trace
                 if ev["stage"] == "attempt-failed"]
        assert fails == (
            ["[dhp-step4] no rainbow coloring with this top-up set"]
            * pipeline.DHP_RETRIES
        )
        assert out.found and out.witness.is_hamilton(tc)

    def test_constructive_mode_exhausts_instead_of_raising(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_constructive_path",
                            _raise_index_error)
        tc = generators.random_collection(30, 29, seed=5)
        trace = []
        out = transversal_ham_path(tc, mode="constructive", trace=trace)
        assert out.status == BUDGET_EXHAUSTED
        fails = [ev["error"] for ev in trace
                 if ev["stage"] == "attempt-failed"]
        assert fails == (
            ["[internal] IndexError: list index out of range"]
            * pipeline.DHP_RETRIES
        )

    @pytest.mark.parametrize("budget", [None, SearchBudget(max_nodes=5)])
    @pytest.mark.parametrize("what,tc", [
        ("path", generators.random_collection(12, 11, seed=1)),
        ("cycle", generators.random_collection(
            12, 12, seed=1, strongly_connected_count=11)),
        ("cycle", generators.prop14_collection(10)),
    ])
    def test_auto_mode_not_exists_only_from_the_oracle(
        self, monkeypatch, what, tc, budget
    ):
        monkeypatch.setattr(pipeline, f"_constructive_{what}",
                            _raise_index_error)
        name = f"exact_transversal_ham_{what}"
        real = getattr(oracle, name)
        statuses = []

        def recorded(*args, **kwargs):
            out = real(*args, **kwargs)
            statuses.append(out.status)
            return out

        monkeypatch.setattr(oracle, name, recorded)
        if what == "path":
            out = transversal_ham_path(tc, budget=budget)
        else:
            out = transversal_ham_cycle(tc, budget=budget)
        if out.status == NOT_EXISTS:
            assert statuses == [NOT_EXISTS]
        if out.found:
            assert out.witness.is_hamilton(tc)
        if budget is not None and not statuses:
            # the longest-path machine answered before any oracle call
            assert out.found

    @staticmethod
    def _route_failures(trace):
        return [(ev["route"], ev["error"]) for ev in trace
                if ev["stage"] == "route-failed"]

    @pytest.mark.parametrize("mode", ["auto", "constructive"])
    def test_longest_path_machine_fault(self, monkeypatch, mode):
        monkeypatch.setattr(pipeline, "_constructive_cycle",
                            _raise_index_error)
        monkeypatch.setattr(pipeline, "_case3_machine", _raise_index_error)
        tc = generators.random_collection(12, 12, seed=1,
                                          strongly_connected_count=11)
        trace = []
        out = transversal_ham_cycle(tc, mode=mode, trace=trace)
        assert self._route_failures(trace) == [
            ("longest-path machine",
             "[internal] IndexError: list index out of range")
        ]
        if mode == "constructive":
            assert out.status == BUDGET_EXHAUSTED
        else:
            # the oracle fallback still runs and answers
            assert out.found and out.witness.is_hamilton(tc)
            assert out.notes.endswith("oracle fallback")

    @pytest.mark.parametrize("what", ["path", "cycle"])
    def test_oracle_fallback_fault_is_budget_exhausted(self, monkeypatch,
                                                       what):
        monkeypatch.setattr(pipeline, f"_constructive_{what}",
                            _raise_index_error)
        monkeypatch.setattr(pipeline, "_case3_machine", lambda *a: None)
        monkeypatch.setattr(oracle, f"exact_transversal_ham_{what}",
                            _raise_index_error)
        trace = []
        if what == "path":
            tc = generators.random_collection(12, 11, seed=1)
            out = transversal_ham_path(tc, trace=trace)
        else:
            tc = generators.prop14_collection(10)
            out = transversal_ham_cycle(tc, trace=trace)
        assert out.status == BUDGET_EXHAUSTED
        assert self._route_failures(trace) == [
            ("oracle fallback",
             "[internal] IndexError: list index out of range")
        ]
        assert out.notes.endswith("internal error; oracle fallback")

    @pytest.mark.parametrize("what", ["path", "cycle"])
    def test_partition_fault(self, monkeypatch, what):
        monkeypatch.setattr(pipeline, "_partition_for", _raise_index_error)
        monkeypatch.setattr(pipeline, "_case3_machine", lambda *a: None)
        if what == "path":
            tc = generators.random_collection(30, 29, seed=5)
            solver = transversal_ham_path
        else:
            tc = generators.random_collection(30, 30, seed=5,
                                              strongly_connected_count=29)
            solver = transversal_ham_cycle
        trace = []
        out = solver(tc, mode="constructive", trace=trace)
        assert out.status == BUDGET_EXHAUSTED
        assert self._route_failures(trace) == [
            ("constructive", "[internal] IndexError: list index out of range")
        ]
        # in auto mode the oracle fallback still runs and answers
        out = solver(tc)
        assert out.found and out.witness.is_hamilton(tc)
        assert out.notes.endswith("oracle fallback")

    @pytest.mark.parametrize("mode", ["auto", "exact"])
    @pytest.mark.parametrize("what", ["path", "cycle"])
    def test_direct_oracle_fault_is_budget_exhausted(self, monkeypatch,
                                                     what, mode):
        monkeypatch.setattr(oracle, f"exact_transversal_ham_{what}",
                            _raise_index_error)
        tc = generators.random_collection(6, 6, seed=1,
                                          strongly_connected_count=5)
        solver = (transversal_ham_path if what == "path"
                  else transversal_ham_cycle)
        trace = []
        out = solver(tc, mode=mode, trace=trace)
        assert out.status == BUDGET_EXHAUSTED
        assert out.notes == "internal error"
        assert self._route_failures(trace) == [
            ("oracle", "[internal] IndexError: list index out of range")
        ]


class TestArguments:
    SOLVERS = [transversal_ham_path, transversal_ham_cycle]

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_unknown_mode_rejected(self, solve):
        tc = generators.random_collection(12, 12, seed=0)
        with pytest.raises(ValueError, match="unknown mode 'Exact'"):
            solve(tc, mode="Exact")

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_negative_seed_rejected(self, solve):
        tc = generators.random_collection(12, 12, seed=0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            solve(tc, seed=-1)


class TestDeterminism:
    def test_same_params_same_witness(self):
        tc = generators.random_collection(60, 59, seed=9)
        a = transversal_ham_path(tc, seed=4, mode="constructive")
        b = transversal_ham_path(tc, seed=4, mode="constructive")
        assert a.status == b.status == FOUND
        assert a.witness == b.witness
