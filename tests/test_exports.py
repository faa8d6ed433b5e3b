"""Every name a package module lists in ``__all__`` exists in it, and a
submodule defines every function and class it lists.

Deleting a function from a submodule while a re-export or an ``__all__``
entry still names it otherwise shows up only as an ``AttributeError`` on
``from rainbow_tournaments import *``.  The benchmark's tracer
(perfbench/tracing.py) wraps only the functions a module lists and
defines, and skips the others without a word.

Constructors take only what their callers set: the fields a search or a
sweep fills in are not arguments, a NoProgressError spells its own
message from the colour, and a StageFailure must be given one.
"""

import importlib
import inspect
import pkgutil

import pytest

import rainbow_tournaments
from rainbow_tournaments import NoProgressError, SearchBudget, StageFailure
from rainbow_tournaments.harness import SuiteReport

MODULES = ["rainbow_tournaments"] + [
    f"rainbow_tournaments.{info.name}"
    for info in pkgutil.iter_modules(rainbow_tournaments.__path__)
]


@pytest.mark.parametrize("modname", MODULES)
def test_every_exported_name_resolves(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("modname", MODULES[1:])
def test_exported_definitions_live_in_their_module(modname):
    mod = importlib.import_module(modname)
    borrowed = [
        name for name in getattr(mod, "__all__", ())
        if (inspect.isfunction(obj := getattr(mod, name))
            or inspect.isclass(obj))
        and obj.__module__ != modname
    ]
    assert borrowed == []


@pytest.mark.parametrize("build", [
    lambda: SearchBudget(nodes=1),
    lambda: SearchBudget(_deadline=1.0),
    lambda: SuiteReport("x", instances=1),
    lambda: SuiteReport("x", failures=[]),
    lambda: SuiteReport("x", wall_secs=1.0),
    lambda: SuiteReport("x", stats={}),
    lambda: NoProgressError(3, "m"),
    lambda: StageFailure("dhp-step1"),
], ids=["budget-nodes", "budget-deadline", "report-instances",
        "report-failures", "report-wall_secs", "report-stats",
        "no-progress-message", "stage-failure-without-message"])
def test_constructor_rejects_arguments_no_caller_sets(build):
    with pytest.raises(TypeError):
        build()
