"""The benchmark's code still finds the library names it uses, and its
configs are README's samples.

perfbench/tracing.py wraps mlabeam functions at the names their callers look
them up under, and perfbench/workloads.py imports names from mlabeam's
modules. A renamed or deleted function would only surface when a benchmark
run fails, so this loads both files by path, resolves each patch site the way
Tracer.installed does, and imports the workloads. perfbench/configs holds
copies of README sample configs, read here and never written.
"""

import importlib
import sys
from pathlib import Path

import pytest

from pathload import load_file
from test_samples import readme_samples

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
tracing = load_file("perfbench_tracing", _PERFBENCH / "tracing.py")


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


def test_workloads_import(monkeypatch):
    """workloads.py imports its sibling modules checks and tracing by bare
    name, as perfbench/run.py's workers do with perfbench/ on sys.path."""
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    try:
        workloads = load_file("perfbench_workloads", _PERFBENCH / "workloads.py")
    finally:
        for name in ("checks", "tracing"):
            sys.modules.pop(name, None)
    assert {"se_2d", "beam_figures"} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("config", sorted((_PERFBENCH / "configs").glob("*.cfg")),
                         ids=lambda path: path.stem)
def test_benchmark_configs_are_readme_samples(config):
    """Each benchmark config sets the keys and values of the README sample of
    its name, line for line; only the leading comment may differ."""
    def settings(text):
        return [line for line in text.splitlines() if not line.startswith("#")]

    sample = readme_samples()[config.stem]
    assert settings(config.read_text(encoding="utf-8")) == settings(sample)
