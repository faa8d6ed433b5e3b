"""Every name a package module lists in ``__all__`` exists in it, and a
submodule defines every function and class it lists.

Deleting a function from a submodule while a re-export or an ``__all__``
entry still names it otherwise shows up only as an ``AttributeError`` on
``from rainbow_tournaments import *``.  The benchmark's tracer
(perfbench/tracing.py) wraps only the functions a module lists and
defines, and skips the others without a word.
"""

import importlib
import inspect
import pkgutil

import pytest

import rainbow_tournaments

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
