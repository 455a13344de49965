#!/usr/bin/env python3
"""Grid benchmark for cadent: wall time and throughput of experiment grids.

    python3 perfbench/run.py --workload gridworld_grid --seed 1 \\
        --seconds 20 --trace 0

Each workload runs `cadent.harness.run_experiment` on one fixed grid (a
teacher per environment, then five student variants across a few seeds),
one grid at a time, for `--seconds`. The workload seed picks the student seeds.
Every grid's artifacts are hashed and checked against the first grid of the
run and, for the seeds pinned in `expected.json`, against recorded digests
and exact counts; a cell whose run CSV differs, or any grid whose other
artifacts or counts differ, counts as failed.

`--trace 0` times whole grids untraced and prints the end-to-end metrics.
`--trace 1` alternates untraced grids with grids whose calls between layers
are wrapped (spans.py) and prints the per-layer metrics, including the
tracing overhead. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Run it from the root of a
source checkout: the package is imported from `src/`.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from measure import quartiles, scan_artifacts, tree_digest
from spans import BINDINGS, Tracer, installed, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

VARIANTS = ("cadent", "ad", "pd", "no_transfer", "no_trust_gate")
# Serial grids, sized so one takes a few seconds on a 2-core machine
# without numba. Warehouse compiles its 26,487-state target once per cell,
# so it gets one student seed. A 2-process variant of the warehouse grid
# was left out: its run-to-run spread was too wide on a shared 2-core host.
WORKLOADS = {
    "gridworld_grid": {
        "environments": ("blind_craftsman", "dungeon_quest"),
        "seeds": 2, "episodes": 12, "teacher_episodes": 500,
        "why": "the shape of the grid users and the acceptance tests run; "
               "kernel-bound, with env tables small enough that compiling "
               "them weighs little"},
    "warehouse_grid": {
        "environments": ("warehouse_robotics",),
        "seeds": 1, "episodes": 150, "teacher_episodes": 1000,
        "why": "26,487-state target tables and short episodes: env "
               "compilation, sparse rebuild and per-call kernel setup "
               "dominate"},
}
# per-layer metric prefix -> the end-to-end metrics and workloads it
# should move
LAYER_MAP = {
    "kernels": "grid_wall_s, env_steps_per_s: most on gridworld_grid, less "
               "on warehouse_grid, where per-call cost (dense_bytes) "
               "weighs more than per-step speed",
    "envs": "grid_wall_s on warehouse_grid most, on gridworld_grid less; "
            "a cache lowering redundant_ratio may raise peak_rss_mb",
    "student": "grid_wall_s on warehouse_grid (sparse rebuild, bound)",
    "teacher": "grid_wall_s on both grids",
    "harness": "nothing today; guards grid_wall_s against file-writing "
               "overhead",
}
END_TO_END_UNITS = {"grid_wall_s": "s", "env_steps_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB",
                    "cell_ok_ratio": "ratio"}
SETUP_REPEATS = 7
MIN_SAMPLES = 2
# a fresh interpreter importing cadent and finishing one training episode
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import cadent
from cadent.baselines import resolve_preset
from cadent.envs import default_spec, make_env
from cadent.student import train_student
train_student(make_env(default_spec("dungeon_quest", "target")), None,
              resolve_preset("no_transfer"), episodes=1, seed=1)
"""


def per_layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if ".steps_per_s." in name:
        return "1/s"
    if name == "kernels.dense_bytes":
        return "B_computed"
    if name == "harness.bytes_written":
        return "B"
    return "count"


def student_seeds(seed, n):
    """`n` distinct student seeds picked by the workload seed."""
    return tuple(n * seed + i + 1 for i in range(n))


def make_config(workload, seed):
    from cadent.harness import ExperimentConfig
    g = WORKLOADS[workload]
    return ExperimentConfig(
        environments=g["environments"], variants=VARIANTS,
        seeds=student_seeds(seed, g["seeds"]),
        episodes={e: g["episodes"] for e in g["environments"]},
        teacher_episodes=g["teacher_episodes"])


def logged_steps(grid_dir):
    """Env steps the students took: the last cumulative_steps of each run
    CSV (column 7 of the harness's fixed schema)."""
    total = 0
    for path in sorted((grid_dir / "runs").glob("*.csv")):
        last = path.read_text().rstrip("\n").rsplit("\n", 1)[-1]
        total += int(last.split(",")[6])
    return total


def run_artifacts(digests):
    """The per-cell run CSVs among a grid's artifact digests."""
    return {k: v for k, v in digests.items() if k.startswith("runs/")}


def machine_info():
    import numpy
    from cadent import kernels
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "backend": kernels.BACKEND,
        "CADENT_NUMBA": os.environ.get("CADENT_NUMBA", "unset"),
    }


class GridRunner:
    """Runs one grid repeatedly and checks every run's artifacts."""

    def __init__(self, config, workdir, expected):
        self.config = config
        self.workdir = workdir
        self.expected = expected        # pinned record for this seed or None
        self.reference = None           # {artifact: sha256} of the first run
        self.reference_bytes = None
        self.student_steps = None       # env steps the first run's CSVs log
        self.counts = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.untraced = set()           # bindings a refactor removed

    def run(self, tracer=None):
        """One grid into an empty directory; its wall seconds, or None if it
        raised."""
        from cadent.harness import run_experiment
        grid_dir = self.workdir / "grid"
        shutil.rmtree(grid_dir, ignore_errors=True)
        fn = run_experiment
        if tracer is not None:
            fn = tracer.wrap("harness.run_experiment", run_experiment)
        cells = len(self.config.environments) * len(VARIANTS) * len(
            self.config.seeds)
        self.attempted += cells
        t0 = time.perf_counter()
        try:
            fn(self.config, grid_dir)
        except Exception:
            self.failed += cells
            self.problems.append(traceback.format_exc())
            return None
        wall = time.perf_counter() - t0
        digests, nbytes = scan_artifacts(grid_dir)
        if self.student_steps is None:
            self.student_steps = logged_steps(grid_dir)
        shutil.rmtree(grid_dir)
        self._check(digests, nbytes, cells)
        return wall

    def run_traced(self):
        """One grid with every layer binding wrapped; returns (wall, spans)."""
        tracer = Tracer()
        with installed(tracer, BINDINGS) as missing:
            wall = self.run(tracer)
        self.untraced.update(missing)
        return wall, tracer.spans

    def _check(self, digests, nbytes, cells):
        if self.reference is None:
            self.reference, self.reference_bytes = digests, nbytes
        want = self.expected or {"digest": tree_digest(self.reference),
                                 "bytes_written": self.reference_bytes,
                                 "runs": run_artifacts(self.reference)}
        runs = run_artifacts(digests)
        bad = sorted(k for k in set(want["runs"]) | set(runs)
                     if want["runs"].get(k) != runs.get(k))
        if (tree_digest(digests) != want["digest"]
                or nbytes != want["bytes_written"] or len(runs) != cells):
            self.failed += cells
            self.problems.append(
                f"grid artifacts differ: digest {tree_digest(digests)}, "
                f"{nbytes} bytes, {len(runs)} run files; mismatched runs "
                f"{bad}")
        elif bad:
            self.failed += len(bad)
            self.problems.append(f"run artifacts differ: {bad}")

    def record_counts(self, spans):
        """Exact counts of the reference grid, checked against the pins.

        Env steps are the teachers' (from their results) plus the students'
        (from the run CSVs); env states are summed over the distinct env
        tables, so a cache that skips recompiling leaves both unchanged.
        """
        teacher_steps = sum(s.attrs["steps"] for s in spans
                            if s.name == "teacher.train_teacher")
        tables = {s.attrs["key"]: s.attrs["states"] for s in spans
                  if s.name == "envs.compile_env"}
        self.counts = {
            "env_steps": teacher_steps + self.student_steps,
            "env_states": sum(tables.values()),
            "cells": len(run_artifacts(self.reference)),
            "bytes_written": self.reference_bytes,
        }
        if self.expected is not None:
            pinned = {k: self.expected[k] for k in self.counts}
            if pinned != self.counts:
                self.problems.append(
                    f"counts {self.counts} differ from pinned {pinned}")


def measure_setup(repeats):
    """Wall times of fresh processes importing cadent and training one
    episode, timed from outside so interpreter start-up counts."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb():
    """Peak resident memory of this process, which runs every grid."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def backend_parity():
    """Bit-identity of the compiled and interpreted kernels.

    Runs only where numba imports and is enabled; returns (ok, note).
    """
    import numpy as np
    from cadent import kernels
    from cadent.baselines import resolve_preset
    from cadent.envs import default_spec, make_env
    from cadent.student import train_student
    from cadent.teacher import build_knowledge, train_teacher
    if not kernels.NUMBA_ENABLED:
        return True, "not measured: numba is not importable or is disabled"
    config = resolve_preset("cadent")
    source = make_env(default_spec("dungeon_quest", "source"))
    teacher = train_teacher(source, episodes=2000, seed=7)
    knowledge = build_knowledge(teacher, source.dfa, tau=config.learn.tau)
    target = make_env(default_spec("dungeon_quest", "target"))
    results, times = {}, {}
    for backend in ("numba", "numba", "python"):     # first numba run warms
        t0 = time.perf_counter()
        results[backend] = train_student(target, knowledge, config,
                                         episodes=300, seed=1,
                                         backend=backend)
        times[backend] = time.perf_counter() - t0
    a, b = results["python"], results["numba"]
    same = (dict(a.qtable.items()) == dict(b.qtable.items())
            and np.array_equal(a.ep_reward, b.ep_reward)
            and np.array_equal(a.ep_steps, b.ep_steps)
            and np.array_equal(a.ep_accept, b.ep_accept))
    speedup = times["python"] / times["numba"]
    return same, (f"{'bit-identical' if same else 'OUTPUTS DIFFER'}; numba "
                  f"{speedup:.1f}x the interpreted kernel (dungeon_quest "
                  f"target, cadent, 300 episodes)")


def timed_loop(deadline, step):
    """Call step() until the next call would likely end past `deadline`."""
    walls = []
    while True:
        wall = step()
        if wall is not None:
            walls.append(wall)
        typical = statistics.median(walls) if walls else 0.0
        if (len(walls) >= MIN_SAMPLES
                and time.perf_counter() + typical > deadline):
            return walls
        if not walls and time.perf_counter() > deadline:
            return walls


def describe(name, value, unit, samples=None):
    line = f"{name}: {value:.6g} {unit}"
    if samples is not None and len(samples) > 1:
        q1, _q2, q3 = quartiles(samples)
        line += f"  (median of n={len(samples)}, quartiles {q1:.6g}-{q3:.6g})"
    print(line)


def fail(runner):
    """Report grids that raised; no result line is printed."""
    for problem in runner.problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cadent" / "__init__.py").is_file():
        print(f"perfbench: no cadent sources under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)[args.workload].get(str(args.seed))
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = make_config(args.workload, args.seed)
    runner = GridRunner(config, workdir, expected)

    info = machine_info()
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"workload: {args.workload} (student seeds "
          f"{list(config.seeds)}): {workload['why']}")
    for layer, moves in LAYER_MAP.items():
        print(f"layer {layer} -> {moves}")
    if args.trace == 0:
        parity_ok, note = backend_parity()
        print(f"backend parity (numba vs python): {note}")
        if not parity_ok:
            runner.problems.append(f"backend parity: {note}")

    # reference grid, traced for the exact counts; untimed, it also lets
    # caches fill and lazy set-up finish
    ref_wall, ref_spans = runner.run_traced()
    if ref_wall is None:
        return fail(runner)
    runner.record_counts(ref_spans)
    digest = tree_digest(runner.reference)
    print(f"digest: {digest} "
          f"({'pinned' if expected else 'not pinned for this seed'})")
    print(f"counts: {json.dumps(runner.counts, sort_keys=True)}")
    print("observed: " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "digest": digest,
         **runner.counts,
         "runs": run_artifacts(runner.reference)}, sort_keys=True))

    deadline = time.perf_counter() + args.seconds
    record = {"workload": args.workload, "seed": args.seed, "machine": info,
              "why": workload["why"], "layer_map": LAYER_MAP,
              "digest": digest, "counts": runner.counts}
    if args.trace == 0:
        walls = timed_loop(deadline, runner.run)
        if not walls:
            return fail(runner)
        rss = peak_rss_mb()
        setup = measure_setup(SETUP_REPEATS)
        wall = statistics.median(walls)
        values = {
            "grid_wall_s": (wall, walls),
            "env_steps_per_s": (runner.counts["env_steps"] / wall,
                                [runner.counts["env_steps"] / w
                                 for w in walls]),
            "setup_s": (statistics.median(setup), setup),
            "peak_rss_mb": (rss, None),
            "cell_ok_ratio": (1.0 - runner.failed / runner.attempted, None),
        }
        metrics = {}
        for name, (value, samples) in values.items():
            unit = END_TO_END_UNITS[name]
            describe(name, value, unit, samples)
            metrics[name] = {"value": value, "unit": unit}
        record["samples"] = {k: s for k, (_v, s) in values.items() if s}
    else:
        walls, traced, layers, all_spans = [], [], [], []

        def step():
            if len(walls) <= len(traced):
                wall = runner.run()
                if wall is not None:
                    walls.append(wall)
                return wall
            wall, spans = runner.run_traced()
            if wall is not None:
                traced.append(wall)
                layers.append(layer_metrics(spans))
                all_spans.append([[s.name, s.start, s.end, s.parent, s.attrs]
                                  for s in spans])
            return wall

        timed_loop(deadline, step)
        if not traced or not walls:
            return fail(runner)
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in layers[0]}
        if any(m["kernels.env_steps"] != runner.counts["env_steps"]
               for m in layers):
            print(f"warning: traced kernel calls do not add up to the "
                  f"{runner.counts['env_steps']} env steps the grid took; "
                  f"some calls were not traced")
        metrics["harness.bytes_written"] = runner.counts["bytes_written"]
        metrics["harness.cells"] = runner.counts["cells"]
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(walls))
        for name, value in metrics.items():
            describe(name, value, per_layer_unit(name))
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in metrics.items()}
        record["samples"] = {"untraced_wall_s": walls,
                             "traced_wall_s": traced}
        with open(workdir / "spans.json", "w") as fh:
            json.dump(all_spans, fh)

    for name in sorted(runner.untraced):
        print(f"warning: not traced, binding absent: {name}")
    correct = runner.failed == 0 and not runner.problems
    for problem in runner.problems:
        print(f"problem: {problem}", file=sys.stderr)
    record["metrics"] = metrics
    with open(workdir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
