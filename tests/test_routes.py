"""The solvers' route loop: which route answers, in what words, how often
its witness is checked, and how much of the solve its time covers."""

import time

import pytest

from rainbow_tournaments import core, generators, pipeline
from rainbow_tournaments.oracle import BUDGET_EXHAUSTED, FOUND, NOT_EXISTS
from rainbow_tournaments.pipeline import (
    transversal_ham_cycle,
    transversal_ham_path,
)


def _path_30():
    return generators.random_collection(30, 29, seed=1)


def _strong_cycle_30():
    return generators.random_collection(30, 30, seed=1,
                                        strongly_connected_count=29)


# (solver, instance, mode, status, notes) for the modes and routes the
# behaviour lock does not digest
PINS = {
    "exact-chain-cut": (
        transversal_ham_cycle, lambda: generators.prop14_collection(8),
        "exact", NOT_EXISTS,
        "precondition unmet: only 6 of 8 tournaments strongly connected; "
        "chain-cut bound, index order"),
    "constructive-cycle-exhausted": (
        transversal_ham_cycle, lambda: generators.prop14_collection(12),
        "constructive", BUDGET_EXHAUSTED,
        "precondition unmet: only 10 of 12 tournaments strongly connected; "
        "constructive attempts exhausted"),
    "constructive-path-exhausted": (
        transversal_ham_path, _path_30, "constructive", BUDGET_EXHAUSTED,
        "constructive attempts exhausted"),
    "auto-path-fallback": (
        transversal_ham_path, _path_30, "auto", FOUND, "oracle fallback"),
    "constructive-cycle-machine": (
        transversal_ham_cycle, _strong_cycle_30, "constructive", FOUND,
        "longest-path machine"),
    "auto-path-direct-oracle": (
        transversal_ham_path,
        lambda: generators.random_collection(6, 5, seed=1),
        "auto", FOUND, ""),
}


@pytest.mark.parametrize("case", PINS)
def test_status_and_notes_pinned(case):
    solve, make, mode, status, notes = PINS[case]
    tc = make()
    out = solve(tc, mode=mode)
    assert (out.status, out.notes) == (status, notes)
    if out.found:
        assert out.witness.is_hamilton(tc)


@pytest.mark.parametrize("solve,make,mode,note", [
    (transversal_ham_path,
     lambda: generators.random_collection(80, 79, seed=11),
     "constructive", "constructive, attempt 0"),
    (transversal_ham_cycle, _strong_cycle_30, "constructive",
     "longest-path machine"),
    (transversal_ham_path, _path_30, "auto", "oracle fallback"),
    (transversal_ham_path,
     lambda: generators.random_collection(6, 5, seed=1), "exact", ""),
], ids=["constructive", "machine", "oracle-fallback", "oracle"])
def test_each_found_witness_is_checked_once(monkeypatch, solve, make, mode,
                                            note):
    tc = make()
    calls = []
    real = core.validate_transversal

    def counted(coll, d):
        calls.append(d)
        return real(coll, d)

    monkeypatch.setattr(core, "validate_transversal", counted)
    out = solve(tc, mode=mode)
    assert (out.status, out.notes) == (FOUND, note)
    assert calls == [out.witness]


def test_fallback_answer_times_the_whole_solve(monkeypatch):
    # the partition's 20 ms belong to the solve the fallback answers
    def slow_fault(*args):
        time.sleep(0.02)
        raise IndexError("list index out of range")

    monkeypatch.setattr(pipeline, "_partition_for", slow_fault)
    out = transversal_ham_path(_path_30())
    assert (out.status, out.notes) == (FOUND, "oracle fallback")
    assert out.millis >= 20
