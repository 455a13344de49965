"""Spans timed from outside cadent, around the calls between its layers.

A span is (name, start, end, parent) plus a few counts taken from the call's
arguments or result. Spans are kept in memory and written out when the
benchmark ends. Wrappers go on the names where callers bound them: `from
.envs.tables import compile_env` copies the function into `cadent.student`,
so patching only the defining module would miss those calls. The originals
are restored when the traced block exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field

FAMILIES = ("no_transfer", "gated", "fixed")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                 # index of the enclosing span, -1 at the root
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans of one grid; create a fresh one per traced grid."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """`fn` recording one span per call.

        `attrs(args, kwargs, result)` returns counts to keep on the span.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, out))
            return out
        return wrapper


@contextlib.contextmanager
def installed(tracer, bindings):
    """Wrap every (module, attribute, span name, attrs) binding.

    A binding whose module no longer has the attribute is skipped and
    reported through the yielded list, so a refactor that moves a call
    changes the trace, not whether the benchmark runs.
    """
    saved, missing = [], []
    try:
        for modname, attr, name, attrs in bindings:
            mod = importlib.import_module(modname)
            if not hasattr(mod, attr):
                missing.append(f"{modname}.{attr}")
                continue
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, tracer.wrap(name, orig, attrs))
        yield missing
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def union_length(intervals):
    """Total length covered by possibly overlapping (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover
    (the union of their intervals, clipped to the parent's)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = union_length(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children[i])
        out.append((s.end - s.start) - covered)
    return out


def redundant_ratio(keys):
    """Share of calls, in call order, whose key an earlier call had."""
    if not keys:
        return 0.0
    return (len(keys) - len(set(keys))) / len(keys)


def kernel_family(kwargs):
    """Variant family of a run_training call from its guidance flags.

    Teachers train without guidance, so their calls count as no_transfer.
    """
    if not kwargs.get("use_guidance"):
        return "no_transfer"
    return "gated" if kwargs.get("use_gate") else "fixed"


def _compile_attrs(args, kwargs, tables):
    spec = args[0].spec
    return {"states": int(tables.n_states),
            "key": json.dumps(spec.to_json(), sort_keys=True)}


def _kernel_attrs(args, kwargs, res):
    tables, cdfa = args[0], args[1]
    cells = int(tables.n_states) * int(cdfa.delta.shape[0]) * int(
        tables.n_actions)
    # q and volatility are float64, visit counts int64: 24 bytes per entry
    return {"steps": int(res.ep_steps.sum()), "family": kernel_family(kwargs),
            "dense_bytes": 24 * cells}


def _teacher_attrs(args, kwargs, result):
    return {"steps": int(result.ep_steps.sum())}


def _load_attrs(args, kwargs, knowledge):
    return {"key": os.fspath(args[0])}


# (module, attribute, span name, attrs): every name through which
# harness, student and teacher reach envs, kernels, teacher and student
BINDINGS = (
    ("cadent.harness", "make_env", "envs.make_env", None),
    ("cadent.student", "compile_env", "envs.compile_env", _compile_attrs),
    ("cadent.teacher", "compile_env", "envs.compile_env", _compile_attrs),
    ("cadent.student", "run_training", "kernels.run_training",
     _kernel_attrs),
    ("cadent.teacher", "run_training", "kernels.run_training",
     _kernel_attrs),
    ("cadent.harness", "train_teacher", "teacher.train_teacher",
     _teacher_attrs),
    ("cadent.harness", "build_knowledge", "teacher.build_knowledge", None),
    ("cadent.harness", "save_knowledge", "teacher.save_knowledge", None),
    ("cadent.harness", "load_knowledge", "teacher.load_knowledge",
     _load_attrs),
    ("cadent.student", "dense_knowledge", "teacher.dense_knowledge", None),
    ("cadent.harness", "train_student", "student.train_student", None),
    ("cadent.harness", "_train_cell", "harness.train_cell", None),
    ("cadent.harness", "records_from_result", "harness.records_from_result",
     None),
    ("cadent.harness", "write_run_csv", "harness.write_run_csv", None),
    ("cadent.harness", "write_curve_csv", "harness.write_curve_csv", None),
    ("cadent.harness", "aggregate_per_episode", "harness.aggregate", None),
    ("cadent.harness", "aggregate_vs_cumulative_steps", "harness.aggregate",
     None),
    ("cadent.harness", "build_summary", "harness.build_summary", None),
)


def layer_metrics(spans):
    """Per-layer totals of one grid's spans (times in seconds)."""
    selfs = self_times(spans)

    def pick(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def incl(name):
        return sum(spans[i].end - spans[i].start for i in pick(name))

    def excl(name):
        return sum(selfs[i] for i in pick(name))

    kern = [spans[i] for i in pick("kernels.run_training")]
    comp = [spans[i] for i in pick("envs.compile_env")]
    loads = [spans[i] for i in pick("teacher.load_knowledge")]
    m = {
        "kernels.run_training.s": incl("kernels.run_training"),
        "kernels.run_training.calls": len(kern),
        "kernels.env_steps": sum(s.attrs["steps"] for s in kern),
        "kernels.dense_bytes": sum(s.attrs["dense_bytes"] for s in kern),
    }
    for fam in FAMILIES:
        runs = [s for s in kern if s.attrs["family"] == fam]
        busy = sum(s.end - s.start for s in runs)
        m[f"kernels.steps_per_s.{fam}"] = (
            sum(s.attrs["steps"] for s in runs) / busy if busy > 0 else 0.0)
    m.update({
        "envs.compile_env.s": incl("envs.compile_env"),
        "envs.compile_env.calls": len(comp),
        "envs.compile_env.states": sum(s.attrs["states"] for s in comp),
        "envs.compile_env.redundant_ratio": redundant_ratio(
            [s.attrs["key"] for s in comp]),
        "envs.make_env.s": incl("envs.make_env"),
        "student.train_student.s": incl("student.train_student"),
        "student.train_student.self_s": excl("student.train_student"),
        "teacher.dense_knowledge.s": incl("teacher.dense_knowledge"),
        "teacher.train_teacher.s": incl("teacher.train_teacher"),
        "teacher.train_teacher.self_s": excl("teacher.train_teacher"),
        "teacher.build_knowledge.s": incl("teacher.build_knowledge"),
        "teacher.save_knowledge.s": incl("teacher.save_knowledge"),
        "teacher.load_knowledge.s": incl("teacher.load_knowledge"),
        "teacher.load_knowledge.calls": len(loads),
        "teacher.load_knowledge.redundant_ratio": redundant_ratio(
            [s.attrs["key"] for s in loads]),
        "harness.run_experiment.self_s": excl("harness.run_experiment"),
        "harness.train_cell.self_s": excl("harness.train_cell"),
        "harness.records_from_result.s": incl("harness.records_from_result"),
        "harness.write_run_csv.s": incl("harness.write_run_csv"),
        "harness.write_curve_csv.s": incl("harness.write_curve_csv"),
        "harness.aggregate.s": incl("harness.aggregate"),
        "harness.build_summary.s": incl("harness.build_summary"),
    })
    return m
