"""End-to-end solvers: constructive pipeline, exchange step, cycle closing."""

import functools

import numpy as np
import pytest

from rainbow_tournaments import core, generators, oracle, pipeline
from rainbow_tournaments.core import (
    RainbowCycle,
    RainbowPath,
    TournamentCollection,
    validate_transversal,
)
from rainbow_tournaments.errors import (
    AbsorberConstructionError,
    AbsorptionFailedError,
    StageFailure,
)
from rainbow_tournaments.matching import perfect_matching
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

    def test_extra_colors_answer_as_the_oracle_on_all_colors(self):
        # n = 6 in auto mode: the oracle answers, reading all 9 colors
        tc = generators.random_collection(6, 9, seed=1)
        out = transversal_ham_path(tc)
        assert out.status == FOUND
        assert out.witness.is_hamilton(tc)
        assert out.status == oracle.exact_transversal_ham_path(tc).status

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
        # m = k: nothing is reduced, and the answering attempt (the last,
        # from its outer record on) runs the four steps in order
        stages = [ev["stage"] for ev in trace]
        assert "reduce" not in stages
        last = len(stages) - 1 - stages[::-1].index("outer")
        assert stages[last:] == ["outer", "step1", "step2", "step3", "step4"]

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


class TestAssemblyCounts:
    """rainbow_dhp's color counts follow from r and the block sizes, so it
    checks none of them: the separator arcs leave 4 colors of D, the
    one-spare paths one of B per plain block, B is sized to the plain
    blocks, and ell colors of C are left to absorb."""

    @pytest.mark.parametrize("n", [60, 80, 130, 200, 400])
    @pytest.mark.parametrize("cyclic", [False, True], ids=["path", "cycle"])
    def test_step_records_hold_the_identities(self, cyclic, n):
        checked = 0
        for seed in range(3):
            if cyclic:
                tc = generators.random_collection(
                    n, n, seed=seed, strongly_connected_count=n)
            else:
                tc = generators.random_collection(n, n - 1, seed=seed)
            solve = transversal_ham_cycle if cyclic else transversal_ham_path
            trace = []
            assert solve(tc, mode="constructive", trace=trace).found
            middle = pipeline._partition_for(tc)[1].blocks[1:-1]
            # one attempt per outer record, each reaching rainbow_dhp
            starts = [i for i, ev in enumerate(trace)
                      if ev["stage"] == "outer"]
            for a, b in zip(starts, starts[1:] + [len(trace)]):
                rec = {ev["stage"]: ev for ev in trace[a:b]}
                if "step4" not in rec:
                    continue
                l2 = rec["step1"]["l2"]
                assert rec["step3"]["D_star"] == 4
                assert rec["step3"]["B_star"] == len(l2)
                assert rec["step2"]["B"] == sum(len(middle[i]) for i in l2)
                assert rec["step4"]["C_star"] == rec["step2"]["ell"]
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("blocks, ends, m", [
        ([[1, 2, 3]], [0, 4], 4),
        ([[1, 2], [4, 5]], [0, 3], 5),
        ([[1, 2], [4, 5]], [0, 3, 6], 5),
    ], ids=["one-block", "ends-short", "m-not-n-1"])
    def test_bad_input_is_a_pre_failure(self, blocks, ends, m):
        tc = generators.random_collection(7, 6, seed=0)
        tmaj = core.majority_subtournament(tc)
        with pytest.raises(StageFailure) as exc:
            pipeline.rainbow_dhp(tc, tmaj, blocks, ends, range(m), 0, None)
        assert exc.value.stage == "dhp-pre"


def _close_per_color(tc, p):
    """The closing as one matching per color c of the closing arc, over
    the path arcs with c removed: the reference the one matching of
    pipeline._close_from_ham_path must agree with."""
    masks = tc.arc_color_masks(zip(p.vertices, p.vertices[1:]))
    for c in core._bits(tc.arc_color_mask(p.vertices[-1], p.vertices[0])):
        got = perfect_matching([mk & ~(1 << c) for mk in masks])
        if got is not None:
            return RainbowCycle(p.vertices, (*got, c))
    return None


class TestLongestPathMachine:
    @pytest.mark.parametrize("seed", range(4))
    def test_closing_matches_the_per_color_reference(self, seed):
        outcomes = set()
        for n in range(4, 13):
            tc = generators.random_collection(n, n, seed=seed)
            rng = np.random.default_rng([n, seed])
            for _ in range(10):
                p = RainbowPath(tuple(rng.permutation(n).tolist()),
                                tuple(range(n - 1)))
                cyc = pipeline._close_from_ham_path(tc, p)
                assert (cyc is None) == (_close_per_color(tc, p) is None)
                if cyc is not None:
                    assert cyc.vertices == p.vertices
                    assert cyc.is_hamilton(tc)
                outcomes.add(cyc is None)
        assert outcomes == {False, True}  # both answers are exercised

    @pytest.mark.parametrize("n,starts", [(8, 8), (12, 10), (30, 19)])
    def test_failing_machine_pays_one_matching_a_start(self, n, starts,
                                                        monkeypatch):
        # prop14 has no transversal cycle, so every closing fails; the 24
        # restarts draw `starts` distinct start vertices
        calls = []

        def counted(avail):
            calls.append(1)
            return perfect_matching(avail)

        monkeypatch.setattr(pipeline, "perfect_matching", counted)
        trace = []
        assert pipeline._case3_machine(generators.prop14_collection(n), 0,
                                       trace) is None
        assert trace == [{"stage": "case3", "restarts_used": 24,
                          "closed": False}]
        assert len(calls) == starts

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

    def test_each_start_vertex_grown_once(self, monkeypatch):
        # prop14 has no transversal cycle, so all 24 restarts fail; their
        # draws hold 10 distinct start vertices, each grown by 11 steps
        calls = []

        def counted(*args):
            calls.append(1)
            return exchange_step(*args)

        monkeypatch.setattr(pipeline, "exchange_step", counted)
        out = transversal_ham_cycle(generators.prop14_collection(12),
                                    mode="constructive")
        assert out.status == BUDGET_EXHAUSTED
        assert len(calls) == 110


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

    @pytest.mark.parametrize("mode", ["auto", "constructive"])
    def test_non_hamilton_machine_cycle_is_not_found(self, monkeypatch,
                                                      mode):
        # a transversal 3-cycle of a 12-vertex instance: valid, not Hamilton
        short = RainbowCycle((0, 1, 2), (0, 2, 1))
        monkeypatch.setattr(pipeline, "_constructive_cycle",
                            _raise_index_error)
        monkeypatch.setattr(pipeline, "_case3_machine", lambda *a: short)
        tc = generators.random_collection(12, 12, seed=13,
                                          strongly_connected_count=11)
        assert short.valid(tc)
        trace = []
        out = transversal_ham_cycle(tc, mode=mode, trace=trace)
        assert self._route_failures(trace) == [
            ("longest-path machine", "invalid witness")
        ]
        if mode == "constructive":
            assert out.status == BUDGET_EXHAUSTED
        else:
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

    @pytest.mark.parametrize("mode", ["exact", "auto"])
    @pytest.mark.parametrize("what", ["path", "cycle"])
    def test_invalid_oracle_witness_is_budget_exhausted(self, monkeypatch,
                                                        what, mode):
        # at n = 12, auto mode reaches the oracle as the fallback
        search = getattr(oracle, f"exact_transversal_ham_{what}")

        def every_arc_reversed(tc, budget):
            out = search(tc, budget)
            w = out.witness
            assert out.found and w.is_hamilton(tc)
            cols = (w.colors[::-1] if what == "path"
                    else w.colors[-2::-1] + w.colors[-1:])
            out.witness = type(w)(w.vertices[::-1], cols)
            return out

        monkeypatch.setattr(oracle, f"exact_transversal_ham_{what}",
                            every_arc_reversed)
        monkeypatch.setattr(pipeline, f"_constructive_{what}",
                            _raise_index_error)
        monkeypatch.setattr(pipeline, "_case3_machine", lambda *a: None)
        tc = generators.random_collection(12, 11 + (what == "cycle"), seed=1,
                                          strongly_connected_count=11)
        solver = (transversal_ham_path if what == "path"
                  else transversal_ham_cycle)
        trace = []
        out = solver(tc, mode=mode, trace=trace)
        route = "oracle" if mode == "exact" else "oracle fallback"
        assert (out.status, out.witness) == (BUDGET_EXHAUSTED, None)
        assert out.notes.endswith(
            "invalid witness" + "; oracle fallback" * (mode == "auto"))
        assert self._route_failures(trace) == [(route, "invalid witness")]


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

    @pytest.mark.parametrize("mode", ["auto", "constructive", "exact"])
    @pytest.mark.parametrize("solve", SOLVERS)
    def test_non_integer_seed_rejected(self, solve, mode):
        # constructive mode used to answer BudgetExhausted ("constructive
        # attempts exhausted"): every attempt died of a TypeError inside
        tc = generators.random_collection(60, 60, seed=1)
        with pytest.raises(TypeError, match="'float'"):
            solve(tc, seed=1.5, mode=mode)


class TestSmallCollections:
    MODES = ["auto", "exact", "constructive"]

    def test_one_vertex_path(self):
        tc = generators.random_collection(1, 2, seed=0)
        for mode in ("auto", "exact"):
            out = transversal_ham_path(tc, mode=mode)
            assert out.status == FOUND
            assert out.witness == RainbowPath((0,), ())
        out = transversal_ham_path(tc, mode="constructive")
        assert out.status == BUDGET_EXHAUSTED

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 5)
                                      for m in range(1, n + 2)])
    def test_every_entry_answers(self, n, m):
        """The four oracle entries and both solvers in every mode answer;
        a collection too small for the witness gets NotExists and one
        note from all of them."""
        tc = generators.random_collection(n, m, seed=0)
        for cyclic in (False, True):
            kind = "cycle" if cyclic else "path"
            solve = transversal_ham_cycle if cyclic else transversal_ham_path
            runs = [getattr(oracle, f"exact_transversal_ham_{kind}{perm}")
                    for perm in ("", "_perm")]
            runs += [functools.partial(solve, mode=mode)
                     for mode in self.MODES]
            note = None
            if m < (n if cyclic else n - 1):
                note = "fewer colors than arcs needed"
            elif cyclic and n < 3:
                note = "cycles need at least 3 vertices"
            for run in runs:
                out = run(tc)
                assert out.status in (FOUND, NOT_EXISTS, BUDGET_EXHAUSTED)
                if note is not None:
                    assert (out.status, out.notes) == (NOT_EXISTS, note)
                elif out.found:
                    assert out.witness.is_hamilton(tc)


class TestDroppedColors:
    """With m > k colors (k = n - 1 for a path, n for a cycle) the oracle
    routes read all m: where only a color past the first k gives a
    witness, the solve finds it, and no note marks colors as dropped."""

    @staticmethod
    def fig1_plus_triangle(cyclic):
        path_tc, cycle_tc = generators.fig1_counterexamples()
        fig1 = cycle_tc if cyclic else path_tc
        extra = fig1.tournaments[0]  # the forward triangle in both
        return TournamentCollection([*fig1.tournaments, extra])

    @pytest.mark.parametrize("mode", ["auto", "exact"])
    @pytest.mark.parametrize("cyclic", [False, True], ids=["path", "cycle"])
    def test_found_on_all_colors_with_no_note(self, cyclic, mode):
        tc = self.fig1_plus_triangle(cyclic)
        search = (oracle.exact_transversal_ham_cycle if cyclic
                  else oracle.exact_transversal_ham_path)
        whole = search(tc)
        assert whole.found and max(whole.witness.colors) == tc.m - 1
        solve = transversal_ham_cycle if cyclic else transversal_ham_path
        out = solve(tc, mode=mode)
        assert out.found and out.witness.is_hamilton(tc)
        assert out.notes == ""

    @pytest.mark.parametrize("mode", ["auto", "exact"])
    @pytest.mark.parametrize("cyclic", [False, True], ids=["path", "cycle"])
    def test_only_constructive_routes_restrict_colors(self, cyclic, mode):
        # only the oracle runs here, on all m colors: nothing is reduced
        tc = self.fig1_plus_triangle(cyclic)
        solve = transversal_ham_cycle if cyclic else transversal_ham_path
        trace = []
        assert solve(tc, mode=mode, trace=trace).found
        assert [r for r in trace if r["stage"] == "reduce"] == []

    def test_constructive_route_reduces_first(self):
        tc = generators.random_collection(80, 82, seed=11)
        trace = []
        transversal_ham_path(tc, mode="constructive", trace=trace)
        assert trace[0] == {"stage": "reduce", "kept_colors": 79}

    def test_strong_count_reads_the_first_n_members(self):
        # the strong members all sit past the first n colors, in a mode
        # where no color is dropped
        n = 4
        tc = TournamentCollection([generators.transitive_tournament(n)] * n
                                  + [generators.prop14_tprime(n)] * n)
        out = transversal_ham_cycle(tc, mode="exact")
        assert out.notes.startswith(
            "precondition unmet: only 0 of 4 tournaments strongly connected")


class TestSolverContract:
    """A seeded mix of sizes, color counts and member families, solved as
    a path and as a cycle in every mode: each answer is one of the three
    statuses, each Found is Hamilton, and at n <= 7 each Found or NotExists
    is the exact oracle's answer on the whole collection."""

    NS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 30, 40, 61)
    KINDS = ("random", "transitive", "prop14", "rotational", "relabelled")
    INSTANCES = 75
    MODES = ("auto", "constructive", "exact")

    @staticmethod
    def member(n, kind, rng):
        """A member of the kind; transitive where prop14 (n < 3) or
        rotational (n < 3 or n even) is not defined."""
        if kind == "prop14" and n >= 3:
            return generators.prop14_tprime(n)
        if kind == "rotational" and n >= 3 and n % 2:
            return generators.rotational_tournament(n)
        if kind == "relabelled":
            perm = rng.permutation(n).tolist()
            return core.Tournament.from_arcs(n, [
                (perm[i], perm[j]) for i in range(n)
                for j in range(i + 1, n)])
        if kind == "random":
            return generators.random_tournament(
                n, seed=int(rng.integers(2**31)))
        return generators.transitive_tournament(n)

    def instance(self, rng):
        n = int(rng.choice(self.NS))
        m = int(rng.integers(max(1, n - 3), n + 5))
        distinct = min(m, int(rng.choice([1, 2, 3, m])))
        members = [self.member(n, str(rng.choice(self.KINDS)), rng)
                   for _ in range(distinct)]
        picks = [*range(distinct), *rng.integers(distinct, size=m - distinct)]
        return TournamentCollection(
            [members[i] for i in rng.permutation(picks)])

    @pytest.mark.parametrize("seed", range(4))
    def test_contract(self, seed):
        rng = np.random.default_rng([seed, 9])
        for _ in range(self.INSTANCES):
            tc = self.instance(rng)
            for cyclic in (False, True):
                solve = (transversal_ham_cycle if cyclic
                         else transversal_ham_path)
                want = None
                if tc.n <= 7:
                    want = (oracle.exact_transversal_ham_cycle if cyclic
                            else oracle.exact_transversal_ham_path)(tc)
                for mode in self.MODES:
                    budget = (None if mode == "constructive"
                              else SearchBudget(max_nodes=2000))
                    out = solve(tc, mode=mode, budget=budget)
                    where = (tc.n, tc.m, cyclic, mode)
                    assert out.status in (FOUND, NOT_EXISTS,
                                          BUDGET_EXHAUSTED), where
                    if out.found:
                        assert out.witness.is_hamilton(tc), where
                    if want is not None and out.status != BUDGET_EXHAUSTED:
                        assert out.status == want.status, where


class TestDeterminism:
    def test_same_params_same_witness(self):
        tc = generators.random_collection(60, 59, seed=9)
        a = transversal_ham_path(tc, seed=4, mode="constructive")
        b = transversal_ham_path(tc, seed=4, mode="constructive")
        assert a.status == b.status == FOUND
        assert a.witness == b.witness
