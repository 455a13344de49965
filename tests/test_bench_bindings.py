"""The benchmark's trace points still exist in the package.

`perfbench/spans.py::BINDINGS` lists each (module, attribute) through which
the benchmark wraps a call between cadent's layers. A binding whose
attribute is gone is skipped with no more than a warning, and the spans and
counts it gave vanish: without `cadent.harness.train_teacher`, the grid's
env-step count loses every teacher step. So a refactor that renames or
moves one of these names fails here instead. A traced grid must also
record every kernel call the grid makes.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from cadent import harness
from cadent.harness import ExperimentConfig, run_experiment, teacher_stream
from cadent.teacher import train_teacher

from oracles import read_run_csv

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


def test_traced_grid_records_every_kernel_call(tmp_path):
    spans = runpy.run_path(str(SPANS))
    config = ExperimentConfig(
        environments=("dungeon_quest", "blind_craftsman"),
        variants=("cadent", "no_transfer"), seeds=(1, 2),
        episodes={"dungeon_quest": 40, "blind_craftsman": 40},
        teacher_episodes=300, threshold_window=10)
    tracer = spans["Tracer"]()
    with spans["installed"](tracer, spans["BINDINGS"]):
        run_experiment(config, tmp_path)
    metrics = spans["layer_metrics"](tracer.spans)
    runs = sorted((tmp_path / "runs").iterdir())
    teacher_steps = sum(
        int(train_teacher(harness._env(e, "source", config),
                          params=config.base.learn,
                          episodes=config.teacher_episodes,
                          seed=config.teacher_seed,
                          stream=teacher_stream(e)).ep_steps.sum())
        for e in config.environments)
    assert len(runs) == 8
    assert metrics["kernels.run_training.calls"] == len(runs) + 2
    assert metrics["kernels.env_steps"] == teacher_steps + sum(
        read_run_csv(path).cumulative_steps[-1] for path in runs)
