"""The benchmark tracer wraps phmor functions by name; every name it lists
must exist, or a rename shows up only as a crash in a traced run."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


@pytest.mark.parametrize("stem, module, name", [
    (stem, module, name)
    for stem, (module, names) in _layers().items() for name in names
])
def test_traced_layer_resolves(stem, module, name):
    assert callable(getattr(importlib.import_module(f"phmor.{module}"), name))


@pytest.mark.parametrize("module, name", [
    ("transfer", "eval_transfer"), ("transfer", "evaluate"), ("cli", "main")])
def test_traced_hook_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"phmor.{module}"), name))
