"""Experiment harness: grids of (environment, variant, seed) runs.

One experiment trains a teacher per environment on its source variant,
distills knowledge once, then trains every requested student variant across
seeds on the target variant, spreading the student runs over the usable
CPUs. Outputs are plain files: per-run episode CSVs, aggregate curves (mean
and standard error), distilled knowledge, and a summary with the
sample-efficiency and final-performance tables. Everything written is a pure
function of the config, so reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .automaton import progress_edges
from .baselines import canonical_variant, preset_names
from .envs import (ACCEPT_BONUS, DEFAULT_EPISODES, ENV_NAMES, PROGRESS_BONUS,
                   STEP_PENALTY, EnvSpec, canonical_name, make_env)
from .envs.tables import compile_env, product_tables
from .files import Config, is_integer, is_number, json_text, write_atomic
from .student import StudentConfig, train_student, uses_teacher
from .teacher import (AGGREGATION_MODES, build_knowledge, save_knowledge,
                      train_teacher)

CURVE_POINTS = 200
RUN_CSV_HEADER = "variant,env,seed,episode,reward,steps,cumulative_steps,reached_accept"
CURVE_CSV_HEADER = "x,mean,stderr,n"

DEFAULT_SEEDS = (1, 2, 3, 4, 5)


def _config_item(value, where, integer, lowest, what, highest=math.inf):
    """An ExperimentConfig field, or an item of one of its arrays or
    mappings, as an int if `integer` else a float; a ValueError naming
    `where` unless it is such a JSON number (bools are not) in [`lowest`,
    `highest`] (NaN is not)."""
    if (not (is_integer if integer else is_number)(value)
            or not lowest <= value <= highest):
        try:
            shown = json.dumps(value)
        except TypeError:
            shown = repr(value)
        raise ValueError(f"ExperimentConfig.{where} must be {what}, "
                         f"not {shown}")
    return int(value) if integer else float(value)


def _env_mapping(mapping, where, integer, lowest, what):
    """An ExperimentConfig {env: number} mapping with canonical env names
    and checked items; a ValueError when two keys name one environment."""
    out = {}
    for key, value in mapping.items():
        name = canonical_name(key)
        if name in out:
            raise ValueError(f"ExperimentConfig.{where} names {name} twice")
        out[name] = _config_item(value, f"{where}[{key}]", integer, lowest,
                                 what)
    return out


@dataclass(frozen=True)
class ExperimentConfig(Config):
    environments: tuple = ENV_NAMES
    variants: tuple = ("cadent", "ad", "pd", "no_transfer", "no_trust_gate")
    seeds: tuple = DEFAULT_SEEDS
    episodes: dict = field(default_factory=dict)   # env -> override
    layout_seed: int = 12
    teacher_episodes: int = 5000
    teacher_seed: int = 7
    base: StudentConfig = field(default_factory=StudentConfig)
    aggregation: str = "visitation_weighted"
    # "auto": 0.8 x the no_transfer final-100 mean, per environment;
    # otherwise a {env: float} mapping
    threshold: object = "auto"
    threshold_window: int = 20
    omega0: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "environments",
                           tuple(canonical_name(e) for e in self.environments))
        object.__setattr__(self, "variants",
                           tuple(canonical_variant(v) for v in self.variants))
        object.__setattr__(self, "seeds", tuple(
            _config_item(s, f"seeds[{i}]", True, 0,
                         "a non-negative JSON integer")
            for i, s in enumerate(self.seeds)))
        object.__setattr__(self, "episodes", _env_mapping(
            self.episodes, "episodes", True, 1, "a positive JSON integer"))
        for where, lowest, what in (
                ("layout_seed", 0, "a non-negative JSON integer"),
                ("teacher_episodes", 1, "a positive JSON integer"),
                ("teacher_seed", 0, "a non-negative JSON integer"),
                ("threshold_window", 1, "a positive JSON integer")):
            object.__setattr__(self, where, _config_item(
                getattr(self, where), where, True, lowest, what))
        object.__setattr__(self, "omega0", _config_item(
            self.omega0, "omega0", False, 0, "a JSON number in [0, 1]", 1))
        if not self.environments:
            raise ValueError("need at least one environment")
        if not self.variants:
            raise ValueError("need at least one variant")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for where in ("environments", "variants", "seeds"):
            items = getattr(self, where)   # aliases canonicalized
            if len(set(items)) != len(items):
                raise ValueError(f"ExperimentConfig.{where} must be distinct, "
                                 f"not {list(items)}")
        if self.aggregation not in AGGREGATION_MODES:
            raise ValueError(f"aggregation must be one of {AGGREGATION_MODES}")
        if self.threshold != "auto":
            if not isinstance(self.threshold, dict):
                raise ValueError("threshold must be 'auto' or an {env: float} "
                                 "mapping")
            object.__setattr__(self, "threshold", _env_mapping(
                self.threshold, "threshold", False, -math.inf,
                "a JSON number"))
        if self.threshold == "auto" and "no_transfer" not in self.variants:
            raise ValueError("auto thresholds need the no_transfer variant "
                             "in the grid")
        unknown = set(self.episodes) - set(self.environments)
        if unknown:
            raise ValueError(f"episode overrides for unknown environments "
                             f"{sorted(unknown)}")

    def episodes_for(self, env_name):
        return self.episodes.get(env_name, DEFAULT_EPISODES[env_name])

    def config_hash(self):
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class EpisodeRecord:
    variant: str
    env: str
    seed: int
    episode: int
    reward: float
    steps: int
    cumulative_steps: int
    reached_accept: bool

    def csv_row(self):
        return (f"{self.variant},{self.env},{self.seed},{self.episode},"
                f"{self.reward!r},{self.steps},{self.cumulative_steps},"
                f"{int(self.reached_accept)}")


def records_from_result(env_name, variant, seed, result):
    """Flatten one training result into per-episode records."""
    records = []
    cumulative = 0
    for ep in range(len(result.ep_reward)):
        cumulative += int(result.ep_steps[ep])
        records.append(EpisodeRecord(
            variant=variant, env=env_name, seed=seed, episode=ep,
            reward=float(result.ep_reward[ep]),
            steps=int(result.ep_steps[ep]),
            cumulative_steps=cumulative,
            reached_accept=bool(result.ep_accept[ep])))
    return records


def write_run_csv(path, records):
    lines = [RUN_CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    write_atomic(path, "\n".join(lines) + "\n")


def read_run_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != RUN_CSV_HEADER:
        raise ValueError(f"{path}: missing or wrong header")
    records = []
    for line in lines[1:]:
        v, e, seed, ep, rew, steps, cum, acc = line.split(",")
        records.append(EpisodeRecord(
            variant=v, env=e, seed=int(seed), episode=int(ep),
            reward=float(rew), steps=int(steps), cumulative_steps=int(cum),
            reached_accept=bool(int(acc))))
    return records


def _curve_rows(xs, table):
    """(x, mean, stderr, n) for each row of a (points, runs) table: the
    sample mean and standard error over n runs, stderr 0.0 for one run.
    Reduced along the contiguous axis, each row sums in the order of a 1-D
    reduction (an axis-0 sum would not), so every row has the bits of a
    table of that row alone."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    n = table.shape[1]
    mean = table.mean(axis=1).tolist()
    err = ((table.std(axis=1, ddof=1) / math.sqrt(n)).tolist() if n > 1
           else [0.0] * len(mean))
    return [(x, m, e, n) for x, m, e in zip(xs, mean, err)]


def _mean_stderr(values):
    """Sample mean and standard error; a single sample has stderr 0.0."""
    _x, mean, err, _n = _curve_rows([None], [values])[0]
    return mean, err


def aggregate_per_episode(runs, metric):
    """Per-episode mean/stderr across runs of equal length.

    `metric` picks the record field ("reward" or "steps"). Returns a list of
    (episode, mean, stderr, n) rows.
    """
    lengths = {len(r) for r in runs}
    if len(lengths) != 1:
        raise ValueError(f"runs have unequal lengths {sorted(lengths)}")
    table = np.array([[getattr(rec, metric) for rec in run] for run in runs],
                     dtype=np.float64).T
    return _curve_rows(range(lengths.pop()), table)


def aggregate_vs_cumulative_steps(runs, points=CURVE_POINTS):
    """Reward against environment steps consumed, on a common grid.

    Each run is a step function of cumulative steps (last value carried
    forward; the first episode's value backfills the region before it
    completes). The grid spans up to the smallest run total so every grid
    point averages over all runs.
    """
    total = min(run[-1].cumulative_steps for run in runs)
    grid = sorted({max(1, round(total * (i + 1) / points))
                   for i in range(points)})
    columns = []
    for run in runs:
        cum = np.array([rec.cumulative_steps for rec in run])
        reward = np.array([rec.reward for rec in run], dtype=np.float64)
        # the last episode finished by x, else the first (backfill)
        last = np.searchsorted(cum, grid, side="right") - 1
        columns.append(reward[np.maximum(last, 0)])
    return _curve_rows(grid, np.stack(columns, axis=1))


def write_curve_csv(path, rows):
    lines = [CURVE_CSV_HEADER]
    for x, mean, err, n in rows:
        lines.append(f"{x},{mean!r},{err!r},{n}")
    write_atomic(path, "\n".join(lines) + "\n")


def steps_to_threshold(records, threshold, window):
    """Cumulative steps when the trailing-window mean reward first clears
    `threshold`. Only full windows count; None when never reached."""
    if window < 1:
        raise ValueError("window must be positive")
    if len(records) < window:
        return None
    acc = 0.0
    for i, rec in enumerate(records):
        acc += rec.reward
        if i >= window:
            acc -= records[i - window].reward
        if i >= window - 1 and acc / window >= threshold:
            return records[i].cumulative_steps
    return None


def final_window_mean(records, window=100):
    tail = records[-window:]
    return sum(r.reward for r in tail) / len(tail)


def _sorted_grid(config):
    return [(e, v, s) for e in config.environments
            for v in config.variants for s in config.seeds]


def _run_stream(env_name, variant):
    """Stable stream id per (env, variant), independent of config order."""
    return ENV_NAMES.index(env_name) * 16 + preset_names().index(variant)


# one Environment per EnvSpec per process, keyed by the spec's sorted JSON;
# compile_env memoizes each env's tables, so a spec compiles once
_ENVS = {}


def _env(name, variant, config):
    """This process's environment for (name, variant) at the config's layout."""
    spec = EnvSpec(name=name, variant=variant, layout_seed=config.layout_seed)
    key = json.dumps(spec.to_json(), sort_keys=True)
    if key not in _ENVS:
        _ENVS[key] = make_env(spec)
    return _ENVS[key]


def _train_cell(config, env_name, variant, seed, knowledge):
    """One (env, variant, seed) student run, guided by `knowledge` (None for
    a variant without a teacher); used by worker processes too. Returns the
    run's episode records and its diagnostics."""
    env = _env(env_name, "target", config)
    student_cfg = config.base.with_(variant=variant, omega0=config.omega0)
    result = train_student(env, knowledge, student_cfg,
                           episodes=config.episodes_for(env_name),
                           seed=seed, stream=_run_stream(env_name, variant))
    records = records_from_result(env_name, variant, seed, result)
    diag = {
        "novel_transitions": result.diagnostics.novel_transitions,
        "max_abs_update": result.diagnostics.max_abs_update,
        "soft_violations": result.diagnostics.soft_violations,
        "bound": result.bound,
    }
    return records, diag


class CellError(RuntimeError):
    """A grid cell's run failed; the message names its (env, variant, seed)."""


def _worker_count(parallel):
    """Processes to run a grid's cells: `parallel`, or for None the CPUs
    this process may run on."""
    if parallel is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:          # no sched_getaffinity (macOS)
            return os.cpu_count() or 1
    if not is_integer(parallel) or parallel < 1:
        raise ValueError(f"parallel must be None or a positive integer, "
                         f"not {parallel!r}")
    return int(parallel)


def run_experiment(config, out_dir, only=None, parallel=None, progress=None):
    """Execute the full grid and write all artifacts under `out_dir`.

    `only` optionally restricts to (env, variant) pairs, e.g.
    {"env": {"dungeon_quest"}, "variant": {"cadent"}}; filtered runs produce
    byte-identical results to the same cells of the full grid. Returns the
    summary dict.

    `parallel` processes run the student cells, never more than there are
    cells. None, the default, means every CPU this process may run on; at 1
    the cells run in this process, with no pool. The target env tables are
    built before the pool starts, so forked workers share them. Cells that
    need no teacher start at once; this process trains each env's teacher
    meanwhile and, once its knowledge is saved, starts that env's guided
    cells with the knowledge as an argument. The artifacts are byte-identical whatever `parallel` is.
    """
    workers = _worker_count(parallel)
    out_dir = os.path.abspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    for sub in ("knowledge", "runs", "curves"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    config.save(os.path.join(out_dir, "config.json"))
    grid = _sorted_grid(config)
    if only:
        envs = only.get("env")
        variants = only.get("variant")
        grid = [(e, v, s) for (e, v, s) in grid
                if (not envs or e in envs) and (not variants or v in variants)]
        if not grid:
            raise ValueError("the only-filter removed every run")
    say = progress or (lambda msg: None)
    env_names = sorted({e for (e, _v, _s) in grid})
    # built before the pool starts, so that forked workers share them
    for env_name in env_names:
        env = _env(env_name, "target", config)
        product_tables(compile_env(env), env.dfa.compiled())

    results = {}
    diags = {}
    workers = min(workers, len(grid))
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:

        def start(cell, knowledge=None):
            """A call giving the cell's result: the worker's, or a run in
            this process when there is no pool. A worker gets the config
            and the knowledge pickled with its task."""
            task = (_train_cell, config, *cell, knowledge)
            return (pool.submit(*task).result if pool
                    else functools.partial(*task))

        try:
            outcomes = {c: start(c) for c in grid if not uses_teacher(c[1])}
            # a teacher and its distilled knowledge per environment, then
            # that environment's guided cells
            for env_name in env_names:
                guided = [c for c in grid
                          if c[0] == env_name and uses_teacher(c[1])]
                if not guided:
                    continue
                say(f"teacher: {env_name}")
                env = _env(env_name, "source", config)
                result = train_teacher(env, params=config.base.learn,
                                       episodes=config.teacher_episodes,
                                       seed=config.teacher_seed,
                                       stream=ENV_NAMES.index(env_name))
                knowledge = build_knowledge(result, env.dfa,
                                            tau=config.base.learn.tau,
                                            aggregation=config.aggregation)
                save_knowledge(knowledge, os.path.join(
                    out_dir, "knowledge", f"{env_name}.json"))
                outcomes.update((c, start(c, knowledge)) for c in guided)
            for cell in grid:
                try:
                    records, diag = outcomes[cell]()
                except Exception as exc:
                    e, v, s = cell
                    raise CellError(f"cell ({e}, {v}, seed {s}) failed: "
                                    f"{type(exc).__name__}: {exc}") from exc
                say(f"run: {cell}")
                results[cell] = records
                diags[cell] = diag
        except BaseException:
            if pool:
                pool.shutdown(cancel_futures=True)
            raise
    for (e, v, s), records in sorted(results.items()):
        path = os.path.join(out_dir, "runs", f"{e}__{v}__seed{s}.csv")
        write_run_csv(path, records)

    # aggregation and summary
    cells = sorted({(e, v) for (e, v, _s) in results})
    for (e, v) in cells:
        runs = [results[(e, v, s)] for s in config.seeds
                if (e, v, s) in results]
        base = os.path.join(out_dir, "curves", f"{e}__{v}__")
        write_curve_csv(base + "reward_per_episode.csv",
                        aggregate_per_episode(runs, "reward"))
        write_curve_csv(base + "steps_per_episode.csv",
                        aggregate_per_episode(runs, "steps"))
        write_curve_csv(base + "reward_vs_cumulative_steps.csv",
                        aggregate_vs_cumulative_steps(runs))
    summary = build_summary(config, results, diags)
    write_atomic(os.path.join(out_dir, "summary.json"), json_text(summary))
    return summary


def _thresholds(config, results):
    """Per-env reward threshold: explicit, or 0.8 x no_transfer final mean."""
    out = {}
    for env_name in sorted({e for (e, _v, _s) in results}):
        if config.threshold != "auto":
            if env_name not in config.threshold:
                raise ValueError(f"no threshold configured for {env_name}")
            out[env_name] = float(config.threshold[env_name])
            continue
        finals = [final_window_mean(records)
                  for (e, v, _s), records in sorted(results.items())
                  if e == env_name and v == "no_transfer"]
        if not finals:
            raise ValueError(f"auto threshold for {env_name} needs "
                             f"no_transfer runs")
        out[env_name] = 0.8 * (sum(finals) / len(finals))
    return out


def build_summary(config, results, diags):
    """Sample-efficiency and final-performance tables plus provenance."""
    thresholds = _thresholds(config, results)
    cells = sorted({(e, v) for (e, v, _s) in results})
    table = {}
    for (e, v) in cells:
        seeds = [s for s in config.seeds if (e, v, s) in results]
        runs = [results[(e, v, s)] for s in seeds]
        stt, censored = [], 0
        for records in runs:
            val = steps_to_threshold(records, thresholds[e],
                                     config.threshold_window)
            if val is None:
                censored += 1
                val = records[-1].cumulative_steps
            stt.append(val)
        finals = [final_window_mean(records) for records in runs]
        f_mean, f_err = _mean_stderr(finals)
        s_mean, s_err = _mean_stderr([float(x) for x in stt])
        accepts = [sum(r.reached_accept for r in records[-100:]) /
                   min(100, len(records)) for records in runs]
        table.setdefault(e, {})[v] = {
            "seeds": seeds,
            "steps_to_threshold": stt,
            "steps_to_threshold_mean": s_mean,
            "steps_to_threshold_stderr": s_err,
            "censored_runs": censored,
            "final_reward": finals,
            "final_reward_mean": f_mean,
            "final_reward_stderr": f_err,
            "final_accept_rate_mean": float(np.mean(accepts)),
            "novel_transitions": [diags[(e, v, s)]["novel_transitions"]
                                  for s in seeds],
            "soft_bound_violations": [diags[(e, v, s)]["soft_violations"]
                                      for s in seeds],
            "max_abs_update": max(diags[(e, v, s)]["max_abs_update"]
                                  for s in seeds),
            "update_bound": max(diags[(e, v, s)]["bound"] for s in seeds),
        }
    norm = {}
    for env_name in table:
        env = _env(env_name, "target", config)
        norm[env_name] = {
            "reward_min": env.max_steps * STEP_PENALTY,
            "reward_max": (len(progress_edges(env.dfa)) * PROGRESS_BONUS
                           + ACCEPT_BONUS),
        }
    return {
        "config": config.to_json(),
        "config_hash": config.config_hash(),
        "thresholds": thresholds,
        "threshold_window": config.threshold_window,
        "normalization": norm,
        "results": table,
    }
