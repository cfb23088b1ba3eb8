"""The export lists: every module's __all__ names attributes it has, and
the package exports exactly its modules' __all__ lists, joined, so that
each public name is listed once, in its home module. Every script in
scripts/ imports, so a renamed or removed name it uses fails here."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

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


ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda path: path.name)
def test_script_imports(script):
    # a fresh interpreter that finds antifk in src/ only runs the script's
    # top level, its imports, and not its main()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", "import runpy, sys; runpy.run_path(sys.argv[1])", str(script)],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
