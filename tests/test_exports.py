"""The export lists: every module's __all__ names attributes it has, and
the package exports exactly its modules' __all__ lists, joined, so that
each public name is listed once, in its home module."""

import importlib

import pytest

import antifk

HOMES = ["antifk.errors", "antifk.hyperbolicity", "antifk.interactions",
         "antifk.lattice", "antifk.potentials", "antifk.solver"]
MODULES = ["antifk", "antifk.cli"] + HOMES


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_package_all_joins_module_lists():
    joined = [n for home in HOMES for n in importlib.import_module(home).__all__]
    assert antifk.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_reexports_listed_at_home():
    unlisted = []
    for name in antifk.__all__:
        home = importlib.import_module(getattr(antifk, name).__module__)
        if name not in home.__all__:
            unlisted.append(f"{home.__name__}.{name}")
    assert unlisted == []
