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
