"""Tests for the grid benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import json
import os
import statistics
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from measure import quartiles, scan_artifacts, tree_digest  # noqa: E402
from spans import (Span, Tracer, installed, kernel_family,  # noqa: E402
                   layer_metrics, redundant_ratio, self_times, union_length)

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_nested_children():
    spans = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0),
             Span("a.inner", 2.0, 3.0, 1), Span("b", 5.0, 6.0, 0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # overlapping children are subtracted once; one that runs past the
    # parent's end is clipped
    spans = [Span("root", 0.0, 10.0, -1), Span("c1", 1.0, 6.0, 0),
             Span("c2", 3.0, 8.0, 0), Span("c3", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 5.0)]) == \
        pytest.approx(3.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert q2 == statistics.median(values)
    with pytest.raises(statistics.StatisticsError):
        quartiles([2.5])


def _write_tree(root, files):
    for rel, blob in files:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)


def test_digest_is_stable_and_sensitive(tmp_path):
    files = [("runs/a.csv", b"x,1\n"), ("summary.json", b"{}\n"),
             ("curves/c.csv", b"0.5\n")]
    _write_tree(tmp_path / "one", files)
    _write_tree(tmp_path / "two", list(reversed(files)))
    d1, n1 = scan_artifacts(tmp_path / "one")
    d2, n2 = scan_artifacts(tmp_path / "two")
    assert d1 == d2 and n1 == n2 == 4 + 3 + 4
    assert set(d1) == {"runs/a.csv", "summary.json", "curves/c.csv"}
    assert tree_digest(d1) == tree_digest(d2)
    (tmp_path / "two" / "runs" / "a.csv").write_bytes(b"x,2\n")
    d3, _ = scan_artifacts(tmp_path / "two")
    assert tree_digest(d3) != tree_digest(d1)
    assert run.run_artifacts(d3) == {"runs/a.csv": d3["runs/a.csv"]}


def test_redundant_ratio():
    assert redundant_ratio([]) == 0.0
    assert redundant_ratio(["a", "b"]) == 0.0
    assert redundant_ratio(["a", "a", "b", "a", "b"]) == pytest.approx(3 / 5)


def test_kernel_family():
    assert kernel_family({"use_guidance": False, "use_gate": False}) == \
        "no_transfer"
    assert kernel_family({"use_guidance": True, "use_gate": True}) == "gated"
    assert kernel_family({"use_guidance": True, "use_gate": False}) == \
        "fixed"


@pytest.fixture
def fake_layer(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    mod.leaf, mod.outer = leaf, outer
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_installed_wraps_nests_and_restores(fake_layer):
    leaf, outer = fake_layer.leaf, fake_layer.outer
    tracer = Tracer()
    bindings = [
        (fake_layer.__name__, "outer", "layer.outer", None),
        (fake_layer.__name__, "leaf", "layer.leaf",
         lambda args, kwargs, out: {"out": out}),
        (fake_layer.__name__, "gone", "layer.gone", None),
    ]
    with installed(tracer, bindings) as missing:
        assert fake_layer.outer(1) == 4
    assert missing == [f"{fake_layer.__name__}.gone"]
    assert fake_layer.leaf is leaf and fake_layer.outer is outer
    names = [(s.name, s.parent, s.attrs) for s in tracer.spans]
    assert names == [("layer.outer", -1, {}), ("layer.leaf", 0, {"out": 2})]
    assert all(s.end >= s.start for s in tracer.spans)


def _grid_spans():
    kern = {"steps": 100, "dense_bytes": 240}
    return [
        Span("harness.run_experiment", 0.0, 10.0, -1),
        Span("kernels.run_training", 0.0, 1.0, 0,
             dict(kern, family="no_transfer")),
        Span("envs.compile_env", 1.0, 2.0, 0, {"states": 7, "key": "s"}),
        Span("kernels.run_training", 2.0, 4.0, 0, dict(kern, family="gated")),
        Span("envs.compile_env", 4.0, 5.0, 0, {"states": 7, "key": "s"}),
        Span("kernels.run_training", 5.0, 9.0, 0, dict(kern, family="fixed")),
    ]


def test_layer_metrics_totals():
    m = layer_metrics(_grid_spans())
    assert m["kernels.run_training.calls"] == 3
    assert m["kernels.env_steps"] == 300
    assert m["kernels.dense_bytes"] == 720
    assert m["kernels.steps_per_s.no_transfer"] == pytest.approx(100.0)
    assert m["kernels.steps_per_s.gated"] == pytest.approx(50.0)
    assert m["kernels.steps_per_s.fixed"] == pytest.approx(25.0)
    assert m["envs.compile_env.states"] == 14
    assert m["envs.compile_env.redundant_ratio"] == pytest.approx(0.5)
    assert m["harness.run_experiment.self_s"] == pytest.approx(1.0)
    assert m["teacher.load_knowledge.calls"] == 0


def test_benchmark_json_matches_the_metrics_printed():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(
        run.END_TO_END_UNITS)
    for m in bench["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    per_layer = set(layer_metrics(_grid_spans())) | {
        "harness.bytes_written", "harness.cells", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == per_layer
    for m in bench["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])


def test_pinned_records_are_complete():
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)
    assert set(expected) == set(run.WORKLOADS)
    for workload, by_seed in expected.items():
        w = run.WORKLOADS[workload]
        cells = len(w["environments"]) * len(run.VARIANTS) * w["seeds"]
        for record in by_seed.values():
            assert record["cells"] == len(record["runs"]) == cells
            assert record["digest"] and record["env_steps"] > 0


def test_student_seeds_are_distinct_across_workload_seeds():
    seen = set()
    for seed in range(50):
        seeds = run.student_seeds(seed, 2)
        assert len(set(seeds)) == 2 and not seen & set(seeds)
        seen |= set(seeds)
