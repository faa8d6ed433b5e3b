"""The names the benchmark's tracer (perfbench/tracing.py) resolves exist.

The tracer wraps functions by name: the public functions of each traced
module, a few methods and private functions, and every ``from .x import y``
copy of a traced function.  A refactor that deletes or renames one of them
otherwise shows up only in the slow benchmark self-test; installing and
removing the tracer here resolves every such name in well under a second.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import stream_draw

PACKAGE = "rainbow_tournaments"
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# traced function -> the modules that must hold a binding of it
BINDINGS = {
    "core.induced_collection": ("core", "constructive", "pipeline"),
    "core.majority_subtournament":
        ("core", "constructive", "pipeline", "harness"),
    "core.is_strongly_connected": ("core", "generators", "pipeline"),
    "matching.perfect_matching":
        ("matching", "constructive", "pipeline", "oracle"),
    "constructive.build_absorber": ("constructive", "pipeline"),
    "constructive.tournament_ham_path": ("constructive", "pipeline"),
    "constructive.rainbow_ham_path_one_spare": ("constructive", "pipeline"),
    "matching.matching_with_forced_colors":
        ("matching", "constructive", "pipeline"),
    "pipeline.exchange_step": ("pipeline",),
    # the oracle.backtrack.* metrics; the callers reach both through the
    # oracle module
    "oracle.exact_transversal_ham_path": ("oracle",),
    "oracle.exact_transversal_ham_cycle": ("oracle",),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    for name in mod.MODULES:
        importlib.import_module(f"{PACKAGE}.{name}")
    return mod


def _module(name):
    return sys.modules[f"{PACKAGE}.{name}"]


def test_tracer_installs_and_restores(tracing):
    originals = {
        func: getattr(_module(func.split(".")[0]), func.split(".")[1])
        for func in BINDINGS
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for func, modules in BINDINGS.items():
            name = func.split(".")[1]
            for m in modules:
                bound = getattr(_module(m), name)
                assert bound is not originals[func], f"{m}.{name} not wrapped"
    finally:
        tracer.remove()
    for func, modules in BINDINGS.items():
        name = func.split(".")[1]
        for m in modules:
            assert getattr(_module(m), name) is originals[func]


def _rejections(n, seed, index):
    """Draws of member index at attempt = 0, 1, ... that are not strongly
    connected before the first that is, each read by conftest.stream_draw
    (the draw the generator makes)."""
    core = _module("core")
    for attempt in range(1000):
        if core.is_strongly_connected(stream_draw(n, seed, index, attempt)):
            return attempt
    raise AssertionError("no strong draw in 1000 attempts")


@pytest.mark.parametrize("m, k", [(4, 3), (12, 9), (12, 0)])
def test_tracer_counts_every_draw_and_strong_test(tracing, m, k):
    """One random_collection counts one stream read for its m attempt-0
    rows plus one per rejected draw, and one strong-connectivity test per
    strong candidate: k plus the rejected."""
    n, seed = 3, 2
    rejected = sum(_rejections(n, seed, i) for i in range(k))
    assert rejected > 0 or k == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _module("generators").random_collection(
            n, m, seed, strongly_connected_count=k)
    finally:
        tracer.remove()
    assert tracer.counts["generators.random_tournament.calls"] == 1 + rejected
    strong_tests = tracer.span_stats().get("core.is_strongly_connected", {})
    assert strong_tests.get("calls", 0) == k + rejected


def test_constructive_cycle_counts_the_pinned_core_metrics(tracing):
    """perfbench requires core.TournamentCollection.arc_color_mask.calls and
    core.is_strongly_connected calls to be nonzero on construct-large: a
    constructive cycle solve reads its closing arc with arc_color_mask and
    counts its strong members with is_strongly_connected."""
    tc = _module("generators").random_collection(
        60, 60, 5, strongly_connected_count=59)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = _module("pipeline").transversal_ham_cycle(
            tc, mode="constructive")
    finally:
        tracer.remove()
    assert out.status == "Found" and "constructive, attempt" in out.notes
    assert tracer.counts["core.TournamentCollection.arc_color_mask.calls"] >= 1
    strong_tests = tracer.span_stats()["core.is_strongly_connected"]
    assert strong_tests["calls"] == 60 and strong_tests["busy_s"] > 0
