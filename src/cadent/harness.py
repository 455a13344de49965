"""Experiment harness: grids of (environment, variant, seed) runs.

One experiment trains a teacher per environment on its source variant,
distills knowledge once, then trains every requested student variant across
seeds on the target variant, one cell after another in this process. A
student run comes back as its episode arrays and diagnostics (a `CellRun`);
its Q tables are dropped as the cell returns. Outputs are plain files: per-run
episode CSVs, aggregate curves (mean and standard error), distilled
knowledge, and a summary with the sample-efficiency and final-performance
tables, all read from those arrays. Everything written is a pure function of
the config, so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .automaton import progress_edges
from .baselines import canonical_variant, preset_names
from .envs import (ACCEPT_BONUS, DEFAULT_EPISODES, ENV_NAMES, PROGRESS_BONUS,
                   STEP_PENALTY, EnvSpec, canonical_name, make_env)
from .files import (Config, is_integer, is_number, json_text, shown,
                    write_atomic)
from .kernels import sum_in_order
from .student import VARIANTS, StudentConfig, train_student, uses_teacher
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
        raise ValueError(f"ExperimentConfig.{where} must be {what}, "
                         f"not {shown(value)}")
    return int(value) if integer else float(value)


def _names(items, where, canonical):
    """The items of ExperimentConfig.`where`, canonicalized; a ValueError
    naming the first that is not a JSON string."""
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise ValueError(f"ExperimentConfig.{where}[{i}] must be a JSON "
                             f"string, not {shown(item)}")
    return tuple(canonical(item) for item in items)


def _env_mapping(mapping, where, *check):
    """An ExperimentConfig {env: number} mapping with canonical env names
    and items checked by `_config_item` with the arguments `check`; a
    ValueError when two keys name one environment."""
    out = {}
    for key, value in mapping.items():
        name = canonical_name(key)
        if name in out:
            raise ValueError(f"ExperimentConfig.{where} names {name} twice")
        out[name] = _config_item(value, f"{where}[{key}]", *check)
    return out


@dataclass(frozen=True)
class ExperimentConfig(Config):
    environments: tuple = ENV_NAMES
    variants: tuple = tuple(VARIANTS)
    seeds: tuple = DEFAULT_SEEDS
    episodes: dict = field(default_factory=dict)   # env -> override
    layout_seed: int = EnvSpec.layout_seed
    teacher_episodes: int = 5000
    teacher_seed: int = 7
    base: StudentConfig = field(default_factory=StudentConfig)
    aggregation: str = "visitation_weighted"
    # "auto": 0.8 x the no_transfer final-100 mean, per environment;
    # otherwise a {env: float} mapping
    threshold: object = "auto"
    threshold_window: int = 20
    omega0: float = StudentConfig.omega0

    def __post_init__(self):
        object.__setattr__(self, "environments", _names(
            self.environments, "environments", canonical_name))
        object.__setattr__(self, "variants", _names(
            self.variants, "variants", canonical_variant))
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
            # finite bounds: JSON has no Infinity for config.json to hold
            object.__setattr__(self, "threshold", _env_mapping(
                self.threshold, "threshold", False, -sys.float_info.max,
                "a JSON number", sys.float_info.max))
        if self.threshold == "auto" and "no_transfer" not in self.variants:
            raise ValueError("auto thresholds need the no_transfer variant "
                             "in the grid")
        # extra keys stay allowed, here and in `episodes`, so a subset of a
        # config's environments keeps its thresholds and episode overrides
        if self.threshold != "auto":
            missing = [e for e in self.environments if e not in self.threshold]
            if missing:
                raise ValueError(f"ExperimentConfig.threshold has no value "
                                 f"for {missing}")

    def episodes_for(self, env_name):
        return self.episodes.get(env_name, DEFAULT_EPISODES[env_name])

    def config_hash(self):
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


class CellRun(NamedTuple):
    """What a grid cell hands back: its run's episode arrays, as the kernel
    wrote them, and its update diagnostics. The run's Q, volatility and
    visit counts are not kept, so a grid holds one cell's tables at a time."""

    ep_reward: np.ndarray
    ep_steps: np.ndarray
    ep_accept: np.ndarray
    novel_transitions: int
    max_abs_update: float
    soft_violations: int
    bound: float


def write_run_csv(path, variant, env, seed, run):
    """One row per episode of `run`, anything with the episode arrays
    `ep_reward`, `ep_steps` and `ep_accept` (a CellRun or a RunResult)."""
    rows = zip(run.ep_reward.tolist(), run.ep_steps.tolist(),
               np.cumsum(run.ep_steps).tolist(), run.ep_accept.tolist())
    lines = [RUN_CSV_HEADER]
    lines.extend(f"{variant},{env},{seed},{ep},{reward!r},{steps},{cum},"
                 f"{int(accept)}"
                 for ep, (reward, steps, cum, accept) in enumerate(rows))
    write_atomic(path, "\n".join(lines) + "\n")


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


def aggregate_per_episode(runs):
    """Per-episode mean/stderr across runs of equal length, one per-episode
    array (rewards or steps) per run. Returns a list of (episode, mean,
    stderr, n) rows.
    """
    lengths = {len(r) for r in runs}
    if len(lengths) != 1:
        raise ValueError(f"runs have unequal lengths {sorted(lengths)}")
    table = np.array(runs, dtype=np.float64).T
    return _curve_rows(range(lengths.pop()), table)


def aggregate_vs_cumulative_steps(runs, points=CURVE_POINTS):
    """Reward against environment steps consumed, on a common grid.

    Each run is a step function of cumulative steps (last value carried
    forward; the first episode's value backfills the region before it
    completes). The grid spans up to the smallest run total so every grid
    point averages over all runs.
    """
    cums = [np.cumsum(run.ep_steps) for run in runs]
    total = min(int(cum[-1]) for cum in cums)
    grid = sorted({max(1, round(total * (i + 1) / points))
                   for i in range(points)})
    columns = []
    for run, cum in zip(runs, cums):
        # the last episode finished by x, else the first (backfill)
        last = np.searchsorted(cum, grid, side="right") - 1
        columns.append(run.ep_reward[np.maximum(last, 0)])
    return _curve_rows(grid, np.stack(columns, axis=1))


def write_curve_csv(path, rows):
    lines = [CURVE_CSV_HEADER]
    for x, mean, err, n in rows:
        lines.append(f"{x},{mean!r},{err!r},{n}")
    write_atomic(path, "\n".join(lines) + "\n")


def steps_to_threshold(run, threshold, window):
    """Cumulative steps when the trailing-window mean reward of `run` first
    clears `threshold`. Only full windows count; None when never reached."""
    if window < 1:
        raise ValueError("window must be positive")
    rewards = run.ep_reward.tolist()
    acc = 0.0
    for i, reward in enumerate(rewards):
        acc += reward
        if i >= window:
            acc -= rewards[i - window]
        if i >= window - 1 and acc / window >= threshold:
            return int(run.ep_steps[:i + 1].sum())
    return None


def final_window_mean(run, window=100):
    """Mean reward of the last `window` episodes of `run`."""
    tail = run.ep_reward[-window:].tolist()
    return sum_in_order(tail) / len(tail)


def _pairs(config):
    return [(e, v) for e in config.environments for v in config.variants]


def _sorted_grid(config):
    return [(e, v, s) for (e, v) in _pairs(config) for s in config.seeds]


def teacher_stream(env_name):
    """The random stream of an env's teacher, independent of config order."""
    return ENV_NAMES.index(env_name)


def cell_stream(env_name, variant):
    """The random stream of an (env, variant) cell, shared by its seeds."""
    return ENV_NAMES.index(env_name) * 16 + preset_names().index(variant)


# one Environment per (name, variant, layout_seed), the only fields of its
# EnvSpec that a grid sets; compile_env memoizes each env's tables, so a
# spec compiles once per process
_ENVS = {}


def _env(name, variant, config):
    """This process's environment for (name, variant) at the config's layout."""
    key = (name, variant, config.layout_seed)
    if key not in _ENVS:
        _ENVS[key] = make_env(EnvSpec(name=name, variant=variant,
                                      layout_seed=config.layout_seed))
    return _ENVS[key]


def _train_cell(config, env_name, variant, seed, knowledge):
    """One (env, variant, seed) student run, guided by `knowledge` (None for
    a variant without a teacher), on the target env that `_env` caches.
    Returns the run's CellRun."""
    env = _env(env_name, "target", config)
    student_cfg = config.base.with_(variant=variant, omega0=config.omega0)
    run = train_student(env, knowledge, student_cfg,
                        episodes=config.episodes_for(env_name),
                        seed=seed, stream=cell_stream(env_name, variant))
    return CellRun(run.ep_reward, run.ep_steps, run.ep_accept,
                   run.novel_transitions, run.max_abs_update,
                   run.n_soft_violations, run.bound)


class CellError(RuntimeError):
    """A grid cell's run failed; the message names its (env, variant, seed)."""


def run_experiment(config, out_dir, progress=None):
    """Execute the config's grid and write all artifacts under `out_dir`.
    Returns the summary dict. A cell's run CSV and curves do not depend on
    the other cells, so a grid of a subset of `environments`, `variants` or
    `seeds` writes them byte-identical to the larger grid's.

    This process first trains the teacher of each environment that has a
    guided cell and saves its distilled knowledge, then runs every cell in
    grid order. Run CSVs, curves and the summary are written once the last
    cell has returned, each file atomically, so an interrupted grid leaves
    no run CSV behind.
    """
    out_dir = os.path.abspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    for sub in ("knowledge", "runs", "curves"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    config.save(os.path.join(out_dir, "config.json"))
    grid = _sorted_grid(config)
    say = progress or (lambda msg: None)
    knowledge = {}
    for env_name in sorted({e for e, v, _s in grid if uses_teacher(v)}):
        say(f"teacher: {env_name}")
        env = _env(env_name, "source", config)
        run = train_teacher(env, params=config.base.learn,
                            episodes=config.teacher_episodes,
                            seed=config.teacher_seed,
                            stream=teacher_stream(env_name))
        knowledge[env_name] = build_knowledge(run, env,
                                              tau=config.base.learn.tau,
                                              aggregation=config.aggregation)
        save_knowledge(knowledge[env_name], os.path.join(
            out_dir, "knowledge", f"{env_name}.json"))

    results = {}
    for cell in grid:
        e, v, s = cell
        guide = knowledge[e] if uses_teacher(v) else None
        try:
            results[cell] = _train_cell(config, e, v, s, guide)
        except Exception as exc:
            raise CellError(f"cell ({e}, {v}, seed {s}) failed: "
                            f"{type(exc).__name__}: {exc}") from exc
        say(f"run: {cell}")
    for (e, v, s) in grid:
        path = os.path.join(out_dir, "runs", f"{e}__{v}__seed{s}.csv")
        write_run_csv(path, v, e, s, results[(e, v, s)])

    # aggregation and summary
    for (e, v) in _pairs(config):
        runs = [results[(e, v, s)] for s in config.seeds]
        base = os.path.join(out_dir, "curves", f"{e}__{v}__")
        write_curve_csv(base + "reward_per_episode.csv",
                        aggregate_per_episode([r.ep_reward for r in runs]))
        write_curve_csv(base + "steps_per_episode.csv",
                        aggregate_per_episode([r.ep_steps for r in runs]))
        write_curve_csv(base + "reward_vs_cumulative_steps.csv",
                        aggregate_vs_cumulative_steps(runs))
    summary = build_summary(config, results)
    write_atomic(os.path.join(out_dir, "summary.json"), json_text(summary))
    return summary


def _thresholds(config, results):
    """Per-env reward threshold: explicit, or 0.8 x no_transfer final mean."""
    if config.threshold != "auto":
        return {e: config.threshold[e] for e in config.environments}
    out = {}
    for env_name in config.environments:
        # summed in ascending seed order, whatever the config's order
        cells = [(env_name, "no_transfer", s) for s in sorted(config.seeds)]
        if not all(c in results for c in cells):
            raise ValueError(f"auto threshold for {env_name} needs "
                             f"no_transfer runs")
        finals = [final_window_mean(results[c]) for c in cells]
        out[env_name] = 0.8 * (sum_in_order(finals) / len(finals))
    return out


def build_summary(config, results):
    """Sample-efficiency and final-performance tables plus provenance, over
    the config's cells: `results` holds one CellRun per cell."""
    thresholds = _thresholds(config, results)
    seeds = config.seeds
    table = {}
    for (e, v) in _pairs(config):
        runs = [results[(e, v, s)] for s in seeds]
        stt, censored = [], 0
        for run in runs:
            val = steps_to_threshold(run, thresholds[e],
                                     config.threshold_window)
            if val is None:
                censored += 1
                val = int(run.ep_steps.sum())
            stt.append(val)
        finals = [final_window_mean(run) for run in runs]
        f_mean, f_err = _mean_stderr(finals)
        s_mean, s_err = _mean_stderr([float(x) for x in stt])
        accepts = [int(run.ep_accept[-100:].sum()) / len(run.ep_accept[-100:])
                   for run in runs]
        table.setdefault(e, {})[v] = {
            "seeds": list(seeds),
            "steps_to_threshold": stt,
            "steps_to_threshold_mean": s_mean,
            "steps_to_threshold_stderr": s_err,
            "censored_runs": censored,
            "final_reward": finals,
            "final_reward_mean": f_mean,
            "final_reward_stderr": f_err,
            "final_accept_rate_mean": float(np.mean(accepts)),
            "novel_transitions": [run.novel_transitions for run in runs],
            "soft_bound_violations": [run.soft_violations for run in runs],
            "max_abs_update": max(run.max_abs_update for run in runs),
            "update_bound": max(run.bound for run in runs),
        }
    norm = {}
    for env_name in config.environments:
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
