"""Every patch site of the benchmark's tracer still names a library function.

perfbench/tracing.py wraps mlabeam functions at the names their callers look
them up under. A renamed or deleted function would only surface when a traced
benchmark run fails, so this loads the tracer by path and resolves each site
the way Tracer.installed does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _site_function(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


@pytest.mark.parametrize("module_name, path, span_name", tracing.PATCH_SITES,
                         ids=[f"{m}:{p}" for m, p, _ in tracing.PATCH_SITES])
def test_patch_site_resolves(module_name, path, span_name):
    assert callable(_site_function(module_name, path))

