"""The benchmark tracer wraps phmor functions by name, and the harness
calls some more; every such name must exist, or a rename shows up only as
a crash in a benchmark run."""

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


#: phmor attributes the harness calls outside the tracer
#: (``perfbench/worker.py`` and ``perfbench/checks.py``); a dotted name is a
#: class attribute.  No phmor module calls ``ReducedModel.transfer_eval``.
HARNESS_NAMES = [
    ("containers", "read_manifest"),
    ("containers", "save_reduced"),
    ("containers", "load_reduced"),
    ("containers", "load_phdae"),
    ("systems", "validate_structure"),
    ("reducers", "ReducedModel.transfer_eval"),
]


@pytest.mark.parametrize("module, name", HARNESS_NAMES)
def test_harness_name_resolves(module, name):
    obj = importlib.import_module(f"phmor.{module}")
    for attr in name.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
