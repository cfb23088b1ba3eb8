"""The export lists: every module's __all__ names attributes it has, and
every name the package re-exports is exported by the module that defines
it, through its __all__ or, for a module without one (errors), as a
public name."""

import importlib

import pytest

import antifk

MODULES = ["antifk", "antifk.cli", "antifk.errors", "antifk.hyperbolicity",
           "antifk.interactions", "antifk.lattice", "antifk.potentials",
           "antifk.solver"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_reexports_listed_at_home():
    unlisted = []
    for name in antifk.__all__:
        home = importlib.import_module(getattr(antifk, name).__module__)
        if name not in getattr(home, "__all__", [name]):
            unlisted.append(f"{home.__name__}.{name}")
    assert unlisted == []
