"""Every layer the benchmark tracer wraps must exist in the library.

bench/tracer.py fails a traced run on a name the library no longer
defines; resolving its targets here makes such a deletion fail the test
suite as well. The tracer module is loaded from its file and not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("_antifk_bench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

TARGETS = [(m, p) for m, p, _ in tracer.SPANS + tracer.ROW_COUNTERS]


@pytest.mark.parametrize("module, path", TARGETS,
                         ids=[f"{m}.{p}" for m, p in TARGETS])
def test_target_resolves(module, path):
    owner, attr = tracer._resolve(importlib.import_module(f"antifk.{module}"), path)
    assert callable(getattr(owner, attr))
