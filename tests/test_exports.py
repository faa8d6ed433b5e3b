"""Every name a package module lists in ``__all__`` exists in it.

Deleting a function from a submodule while a re-export or an ``__all__``
entry still names it otherwise shows up only as an ``AttributeError`` on
``from rainbow_tournaments import *``.
"""

import importlib
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
