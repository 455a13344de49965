"""The benchmark's trace points still exist in the package.

`perfbench/spans.py::BINDINGS` lists each (module, attribute) through which
the benchmark wraps a call between cadent's layers. A binding whose
attribute is gone is skipped with no more than a warning, and the spans and
counts it gave vanish: without `cadent.harness.train_teacher`, the grid's
env-step count loses every teacher step. So a refactor that renames or
moves one of these names fails here instead.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# bindings to code the harness no longer has; the benchmark is to drop them
RETIRED = {("cadent.harness", "load_knowledge"),
           ("cadent.harness", "records_from_result")}


def _bindings():
    bindings = runpy.run_path(str(SPANS))["BINDINGS"]
    return [(module, attr) for module, attr, _name, _attrs in bindings]


@pytest.mark.parametrize(
    "module,attr", [b for b in _bindings() if b not in RETIRED])
def test_benchmark_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"{module}.{attr} is gone; the benchmark would no longer trace it")
