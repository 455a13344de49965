"""Experiment configuration, CSV artifacts, aggregation, and the runner."""

import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from cadent import files, harness, student, teacher
from cadent.automaton import ProductState
from cadent.cli import main
from cadent.envs import bundled_dfa
from cadent.harness import (CURVE_CSV_HEADER, RUN_CSV_HEADER, CellRun,
                            ExperimentConfig, _mean_stderr,
                            aggregate_per_episode,
                            aggregate_vs_cumulative_steps, build_summary,
                            cell_stream, final_window_mean, run_experiment,
                            steps_to_threshold, teacher_stream,
                            write_curve_csv, write_run_csv)
from cadent.kernels import sum_in_order
from cadent.student import StudentConfig, TrustParams, uses_teacher
from cadent.teacher import (TeacherKnowledge, load_knowledge, save_knowledge,
                            save_qtable)

from oracles import read_run_csv, toy_teacher


# ---------------------------------------------------------------------------
# configuration


def test_config_canonicalizes_names():
    cfg = ExperimentConfig(environments=("dungeon", "craftsman"),
                           variants=("none", "AD-Only"),
                           threshold={"dungeon": 1.0, "craftsman": 2.0},
                           episodes={"dungeon": 30})
    assert cfg.environments == ("dungeon_quest", "blind_craftsman")
    assert cfg.variants == ("no_transfer", "ad")
    assert cfg.threshold == {"dungeon_quest": 1.0, "blind_craftsman": 2.0}
    assert cfg.episodes == {"dungeon_quest": 30}


def test_config_validation_errors():
    with pytest.raises(ValueError):
        ExperimentConfig(environments=())
    with pytest.raises(ValueError):
        ExperimentConfig(variants=())
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=(1, 1))
    with pytest.raises(ValueError):
        ExperimentConfig(aggregation="median")
    with pytest.raises(ValueError):
        ExperimentConfig(threshold=3.0)
    with pytest.raises(ValueError):
        ExperimentConfig(variants=("cadent",))  # auto needs no_transfer
    with pytest.raises(ValueError):
        ExperimentConfig(threshold_window=0)
    with pytest.raises(ValueError):
        ExperimentConfig(episodes={"atari": 100})
    with pytest.raises(ValueError):
        ExperimentConfig(omega0=1.5)
    for field, value, what in (
            ("teacher_episodes", 0, "a positive JSON integer"),
            ("teacher_episodes", True, "a positive JSON integer"),
            ("teacher_episodes", 2.5, "a positive JSON integer"),
            ("teacher_seed", -1, "a non-negative JSON integer"),
            ("layout_seed", -2, "a non-negative JSON integer"),
            # a float window trained every cell and failed in build_summary
            ("threshold_window", 0, "a positive JSON integer"),
            ("threshold_window", 2.5, "a positive JSON integer"),
            ("threshold_window", 3.0, "a positive JSON integer"),
            ("threshold_window", True, "a positive JSON integer"),
            ("omega0", 1.5, "a JSON number in [0, 1]"),
            ("omega0", -0.1, "a JSON number in [0, 1]"),
            ("omega0", True, "a JSON number in [0, 1]"),
            ("omega0", math.nan, "a JSON number in [0, 1]")):
        with pytest.raises(ValueError, match=(
                rf"^ExperimentConfig.{field} must be {re.escape(what)}, "
                rf"not {json.dumps(value)}$")):
            ExperimentConfig(**{field: value})
    # config.json and summary.json would hold them, and JSON has no NaN
    # or Infinity
    for value, text in ((math.nan, "NaN"), (math.inf, "Infinity"),
                        (-math.inf, "-Infinity")):
        with pytest.raises(ValueError, match=(
                r"^ExperimentConfig.threshold\[dungeon\] must be a JSON "
                rf"number, not {text}$")):
            ExperimentConfig(threshold={"dungeon": value})


def test_config_rejects_names_repeated_after_canonicalization():
    # each would train the (dungeon_quest, no_transfer, 1) cell four times
    with pytest.raises(ValueError, match=(
            r"^ExperimentConfig.environments must be distinct, not "
            r"\['dungeon_quest', 'dungeon_quest'\]$")):
        ExperimentConfig(environments=("dungeon", "dungeon_quest"),
                         variants=("none", "no_transfer"), seeds=(1,))
    with pytest.raises(ValueError, match=(
            r"^ExperimentConfig.variants must be distinct, not "
            r"\['no_transfer', 'no_transfer'\]$")):
        ExperimentConfig(environments=("dungeon",),
                         variants=("none", "no_transfer"), seeds=(1,))


@pytest.mark.parametrize("field", ["episodes", "threshold"])
def test_config_rejects_two_keys_for_one_env(field):
    with pytest.raises(ValueError, match=(
            f"^ExperimentConfig.{field} names dungeon_quest twice$")):
        ExperimentConfig(**{field: {"dungeon": 10, "dungeon_quest": 20}})


def test_config_requires_threshold_coverage():
    # checked here, a missing env fails before any cell trains
    with pytest.raises(ValueError, match=(
            r"^ExperimentConfig.threshold has no value for "
            r"\['blind_craftsman'\]$")):
        ExperimentConfig(environments=("dungeon", "craftsman"),
                         threshold={"dungeon": 1.0})
    # the per-item checks come first
    with pytest.raises(ValueError, match=(
            r"^ExperimentConfig.threshold\[dungeon\] must be a JSON number")):
        ExperimentConfig(environments=("dungeon", "craftsman"),
                         threshold={"dungeon": "high"})
    # extra keys stay, so a subset of the environments keeps its thresholds
    cfg = ExperimentConfig(environments=("dungeon",),
                           threshold={"dungeon": 1.0, "craftsman": 2.0})
    assert cfg.threshold == {"dungeon_quest": 1.0, "blind_craftsman": 2.0}


def test_config_keeps_episode_overrides_outside_the_grid():
    # as with thresholds, --envs can take a subset of a config file's envs
    cfg = ExperimentConfig(episodes={"dungeon": 30, "craftsman": 40})
    sub = cfg.with_(environments=("dungeon",))
    assert sub.episodes == {"dungeon_quest": 30, "blind_craftsman": 40}
    assert sub.episodes_for("dungeon_quest") == 30
    # an env name that is no environment is still rejected
    with pytest.raises(ValueError, match="unknown environment 'atari'"):
        sub.with_(episodes={"atari": 100})


def test_config_from_json_names_unknown_keys():
    payload = ExperimentConfig().to_json()
    payload["seed"] = [1]
    payload["variantz"] = ["cadent"]
    with pytest.raises(ValueError,
                       match="unknown ExperimentConfig keys: seed, variantz"):
        ExperimentConfig.from_json(payload)


def test_config_explicit_threshold_frees_variant_choice():
    cfg = ExperimentConfig(variants=("cadent",),
                           threshold={e: 0.0 for e in
                                      ("blind_craftsman", "dungeon_quest",
                                       "mountain_car_collection",
                                       "warehouse_robotics")})
    assert cfg.variants == ("cadent",)


def test_config_episodes_for():
    cfg = ExperimentConfig(episodes={"dungeon_quest": 123})
    assert cfg.episodes_for("dungeon_quest") == 123
    assert cfg.episodes_for("blind_craftsman") == 1500
    assert cfg.episodes_for("mountain_car_collection") == 3000


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(environments=("dungeon_quest",),
                           seeds=(3, 5),
                           episodes={"dungeon_quest": 50},
                           base=StudentConfig(trust=TrustParams(theta=0.7)),
                           threshold={"dungeon_quest": 1.5})
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg
    path = tmp_path / "config.json"
    cfg.save(path)
    assert ExperimentConfig.load(path) == cfg


def test_config_hash_tracks_content():
    a = ExperimentConfig(seeds=(1, 2))
    b = ExperimentConfig(seeds=(1, 2))
    c = ExperimentConfig(seeds=(1, 3))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_run_stream_is_order_independent():
    assert cell_stream("blind_craftsman", "cadent") == 0
    assert cell_stream("dungeon_quest", "cadent") == 16
    assert cell_stream("blind_craftsman", "no_transfer") == 3
    assert cell_stream("warehouse_robotics", "no_trust_gate") == 52
    pairs = [(e, v) for e in ("blind_craftsman", "dungeon_quest")
             for v in ("cadent", "no_transfer")]
    assert len({cell_stream(e, v) for e, v in pairs}) == len(pairs)


def test_default_grid_draws_each_run_from_its_own_words():
    # every teacher and cell of the default grid starts from a distinct
    # (seed, stream) pair; teacher streams 0-3 are also cell streams (of
    # blind_craftsman), so a student seed equal to teacher_seed would not
    config = ExperimentConfig()
    pairs = [(config.teacher_seed, teacher_stream(e))
             for e in config.environments]
    pairs += [(s, cell_stream(e, v)) for e in config.environments
              for v in config.variants for s in config.seeds]
    assert len(set(pairs)) == len(pairs)


# ---------------------------------------------------------------------------
# a cell's run and the run CSV


def _records(rewards, steps=None, accepts=None):
    """A cell's run with these episodes and fixed diagnostics."""
    steps = steps or [10] * len(rewards)
    accepts = accepts or [r > 0 for r in rewards]
    return CellRun(np.array(rewards, dtype=np.float64),
                   np.array(steps, dtype=np.int64),
                   np.array(accepts, dtype=np.bool_), 2, 3.5, 0, 1099.0)


def test_train_cell_omega0_on_a_pinned_base(monkeypatch):
    # a base read from JSON may name any variant and omega0; each cell
    # still runs the kernel at the experiment's omega0
    seen = []

    class Stop(Exception):
        pass

    def capture(*args, **kwargs):
        seen.append(kwargs["omega_fixed"])
        raise Stop

    config = ExperimentConfig(
        variants=("no_transfer", "no_trust_gate"), omega0=0.8,
        base=StudentConfig(variant="no_trust_gate"))
    env = harness._env("dungeon_quest", "target", config)
    knowledge = TeacherKnowledge(
        q_ad={}, pi={}, tau=2.0, n_actions=env.n_actions,
        alphabet=tuple(env.dfa.alphabet), aggregation="visitation_weighted")
    monkeypatch.setattr(student, "run_training", capture)
    for variant in config.variants:
        with pytest.raises(Stop):
            harness._train_cell(config, "dungeon_quest", variant, 1,
                                knowledge if uses_teacher(variant) else None)
    assert seen == [0.8, 0.8]


def test_cell_returns_only_episode_arrays_and_scalars():
    # Q, volatility and counts are dropped as the cell returns: it keeps
    # its three episode arrays and four diagnostics
    config = ExperimentConfig(**MINI)
    cell = harness._train_cell(config, "dungeon_quest", "no_transfer", 1,
                               None)
    arrays = [x for x in cell if isinstance(x, np.ndarray)]
    assert [(x.ndim, len(x)) for x in arrays] == [(1, 40)] * 3
    assert all(type(x) in (int, float) for x in cell
               if not isinstance(x, np.ndarray))


def test_run_csv_rows_come_from_the_episode_arrays(tmp_path):
    path = tmp_path / "run.csv"
    write_run_csv(path, "cadent", "dungeon_quest", 3,
                  _records([0.5, -1.0], steps=[7, 9], accepts=[True, False]))
    assert path.read_text().splitlines() == [
        RUN_CSV_HEADER,
        "cadent,dungeon_quest,3,0,0.5,7,7,1",
        "cadent,dungeon_quest,3,1,-1.0,9,16,0"]


def test_run_csv_round_trip(tmp_path):
    run = _records([0.99, -5.0, 10.99, 0.1 + 0.2], steps=[3, 500, 42, 1])
    path = tmp_path / "run.csv"
    write_run_csv(path, "cadent", "dungeon_quest", 1, run)
    back = read_run_csv(path)
    for name in ("ep_reward", "ep_steps", "ep_accept"):
        assert getattr(back, name).tobytes() == getattr(run, name).tobytes()
    assert back.cumulative_steps == [3, 503, 545, 546]
    assert back.episode == [0, 1, 2, 3]


def test_run_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "run.csv"
    write_run_csv(path, "cadent", "dungeon_quest", 1, _records([]))
    assert path.read_text() == RUN_CSV_HEADER + "\n"


def test_curve_csv_format(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(path, [(1, 0.5, 0.0, 2), (2, 1.5, 0.25, 2)])
    lines = path.read_text().splitlines()
    assert lines[0] == CURVE_CSV_HEADER
    assert lines[1] == "1,0.5,0.0,2"
    assert lines[2] == "2,1.5,0.25,2"


# ---------------------------------------------------------------------------
# atomic writes

def _save_toy_qtable(path, value):
    dfa = bundled_dfa("dungeon_quest")
    key = (ProductState(0, dfa.start), 1)
    save_qtable(*toy_teacher(dfa, {key: value}, 2, visits={key: 1}), path)


# each writer writes version i (0 or 1) of its file to a path
WRITERS = {
    "config": lambda path, i: ExperimentConfig(seeds=(i + 1,)).save(path),
    "qtable": lambda path, i: _save_toy_qtable(path, float(i)),
    "knowledge": lambda path, i: save_knowledge(TeacherKnowledge(
        q_ad={(0, 1): float(i)}, pi={0: np.array([0.5, 0.5])}, tau=2.0,
        n_actions=2, alphabet=("a",), aggregation="visitation_weighted"),
        path),
    "run_csv": lambda path, i: write_run_csv(path, "cadent", "dungeon_quest",
                                             1, _records([float(i)])),
    "curve_csv": lambda path, i: write_curve_csv(path, [(1, float(i), 0.0,
                                                         1)]),
}


class _DiskFull:
    """A file that takes half of what is written to it, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def _fail_rename(src, dst):
    assert os.path.getsize(src) > 0
    raise OSError(18, "Invalid cross-device link")


@pytest.mark.parametrize("failure", ["disk_full", "rename"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_the_old_file(tmp_path, monkeypatch, writer,
                                          failure):
    path = tmp_path / "artifact"
    WRITERS[writer](path, 0)
    old = path.read_bytes()
    if failure == "disk_full":
        monkeypatch.setattr(files, "open",
                            lambda *a, **kw: _DiskFull(open(*a, **kw)),
                            raising=False)
    else:
        monkeypatch.setattr(files.os, "replace", _fail_rename)
    with pytest.raises(OSError):
        WRITERS[writer](path, 1)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["artifact"]
    WRITERS[writer](path, 1)
    assert path.read_bytes() != old
    assert os.listdir(tmp_path) == ["artifact"]


# ---------------------------------------------------------------------------
# aggregation


def test_mean_stderr():
    assert _mean_stderr([4.0]) == (4.0, 0.0)
    mean, err = _mean_stderr([1.0, 3.0])
    assert mean == 2.0 and err == pytest.approx(1.0, abs=1e-12)


def test_aggregate_per_episode():
    runs = [_records([0.0, 1.0]), _records([2.0, 3.0])]
    rows = aggregate_per_episode([r.ep_reward for r in runs])
    assert rows[0][0] == 0 and rows[0][1] == 1.0 and rows[0][3] == 2
    assert rows[1][1] == 2.0
    steps = aggregate_per_episode([r.ep_steps for r in runs])
    assert steps[0][1] == 10.0


def test_aggregate_per_episode_rejects_ragged_runs():
    with pytest.raises(ValueError, match="unequal"):
        aggregate_per_episode([np.zeros(1), np.zeros(2)])


def test_aggregate_vs_cumulative_steps_step_function():
    run_a = _records([0.0, 2.0], steps=[10, 10])
    run_b = _records([1.0, 3.0], steps=[5, 20])
    rows = aggregate_vs_cumulative_steps([run_a, run_b], points=4)
    assert [r[0] for r in rows] == [5, 10, 15, 20]
    assert [r[1] for r in rows] == [0.5, 0.5, 0.5, 1.5]
    assert rows[0][2] == pytest.approx(0.5, abs=1e-12)
    assert all(r[3] == 2 for r in rows)


def test_aggregate_vs_cumulative_steps_grid_is_deduplicated():
    run = _records([1.0, 2.0], steps=[1, 1])
    rows = aggregate_vs_cumulative_steps([run], points=50)
    assert [r[0] for r in rows] == [1, 2]
    assert [r[1] for r in rows] == [1.0, 2.0]


def test_steps_to_threshold():
    recs = _records([0.0, 0.0, 1.0, 1.0], steps=[10, 10, 10, 10])
    assert steps_to_threshold(recs, 0.5, window=2) == 30
    assert steps_to_threshold(recs, 0.0, window=1) == 10
    assert steps_to_threshold(recs, 2.0, window=2) is None
    assert steps_to_threshold(recs, 0.5, window=5) is None
    with pytest.raises(ValueError):
        steps_to_threshold(recs, 0.5, window=0)


def test_steps_to_threshold_monotone_in_threshold():
    recs = _records([float(i) for i in range(30)])
    low = steps_to_threshold(recs, 2.0, window=3)
    high = steps_to_threshold(recs, 20.0, window=3)
    assert low is not None and high is not None and low <= high


def test_final_window_mean():
    recs = _records([1.0] * 150)
    assert final_window_mean(recs) == 1.0
    recs = _records([0.0] * 100 + [2.0] * 100)
    assert final_window_mean(recs) == 2.0
    assert final_window_mean(recs, window=200) == 1.0
    short = _records([3.0, 5.0])
    assert final_window_mean(short) == 4.0


def test_means_add_left_to_right():
    # from Python 3.12 the builtin sum compensates float sums, and these
    # would mean 1/3; added left to right, as on 3.11, the 1.0 is lost
    rewards = [1e16, 1.0, -1e16]
    assert sum_in_order(rewards) == 0.0
    assert final_window_mean(_records(rewards)) == 0.0
    config = ExperimentConfig(environments=("dungeon_quest",),
                              variants=("no_transfer",), seeds=(3, 1, 2))
    results = _grid_results(config, {
        ("dungeon_quest", "no_transfer"): [[-1e16], [1e16], [1.0]]})
    # the thresholds add the seeds' final means in ascending seed order
    assert harness._thresholds(config, results) == {"dungeon_quest": 0.0}


# ---------------------------------------------------------------------------
# summary construction on synthetic results


def _grid_results(config, curves):
    return {(e, v, seed): _records(rewards)
            for (e, v), per_seed in curves.items()
            for seed, rewards in zip(config.seeds, per_seed)}


def test_build_summary_auto_threshold():
    config = ExperimentConfig(environments=("dungeon_quest",),
                              variants=("cadent", "no_transfer"),
                              seeds=(1, 2), threshold_window=2)
    curves = {
        ("dungeon_quest", "no_transfer"): [[0.0] * 8 + [1.0] * 4,
                                           [0.0] * 8 + [1.0] * 4],
        ("dungeon_quest", "cadent"): [[1.0] * 12, [1.0] * 12],
    }
    results = _grid_results(config, curves)
    summary = build_summary(config, results)
    # the final window (100 episodes) covers all 12 records, so the
    # no_transfer final mean is 4/12 and the bar sits at 0.8 times that
    assert summary["thresholds"] == {"dungeon_quest": pytest.approx(0.8 / 3)}
    table = summary["results"]["dungeon_quest"]
    assert table["cadent"]["steps_to_threshold"] == [20, 20]
    assert table["no_transfer"]["steps_to_threshold"] == [90, 90]
    assert table["cadent"]["censored_runs"] == 0
    assert table["cadent"]["final_reward_mean"] == 1.0
    assert table["cadent"]["update_bound"] == 1099.0
    assert summary["config_hash"] == config.config_hash()
    assert summary["normalization"]["dungeon_quest"] == {
        "reward_min": pytest.approx(-5.0), "reward_max": 15.0}


def test_build_summary_censors_failed_runs():
    config = ExperimentConfig(environments=("dungeon_quest",),
                              variants=("no_transfer",), seeds=(1,),
                              threshold={"dungeon_quest": 5.0},
                              threshold_window=2)
    curves = {("dungeon_quest", "no_transfer"): [[0.0] * 6]}
    results = _grid_results(config, curves)
    summary = build_summary(config, results)
    cell = summary["results"]["dungeon_quest"]["no_transfer"]
    assert cell["censored_runs"] == 1
    assert cell["steps_to_threshold"] == [60]  # the run's final total


def test_build_summary_auto_needs_no_transfer_runs():
    config = ExperimentConfig(environments=("dungeon_quest",),
                              variants=("cadent", "no_transfer"), seeds=(1,))
    curves = {("dungeon_quest", "cadent"): [[1.0] * 6]}
    results = _grid_results(config, curves)
    with pytest.raises(ValueError, match="no_transfer"):
        build_summary(config, results)


def test_build_summary_accept_rate_reads_the_last_100_episodes():
    config = ExperimentConfig(environments=("dungeon_quest",),
                              variants=("no_transfer",), seeds=(1,))

    def rate(accepts):
        results = {("dungeon_quest", "no_transfer", 1):
                   _records([0.0] * len(accepts), accepts=accepts)}
        cell = build_summary(config, results)["results"]["dungeon_quest"]
        return cell["no_transfer"]["final_accept_rate_mean"]

    assert rate([True, False, True]) == 2 / 3
    # the first 50 episodes accept, but only the last 100 count
    assert rate([True] * 50 + [False] * 75 + [True] * 25) == 0.25


# ---------------------------------------------------------------------------
# the experiment runner end to end (small, no teacher needed)


MINI = dict(environments=("dungeon_quest",), variants=("no_transfer",),
            seeds=(1, 2), episodes={"dungeon_quest": 40},
            threshold_window=10)


def _tree(root):
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, root)] = Path(path).read_bytes()
    return out


def test_run_experiment_writes_expected_files(tmp_path):
    config = ExperimentConfig(**MINI)
    summary = run_experiment(config, tmp_path / "out")
    tree = _tree(tmp_path / "out")
    assert set(tree) == {
        "config.json",
        "summary.json",
        "runs/dungeon_quest__no_transfer__seed1.csv",
        "runs/dungeon_quest__no_transfer__seed2.csv",
        "curves/dungeon_quest__no_transfer__reward_per_episode.csv",
        "curves/dungeon_quest__no_transfer__steps_per_episode.csv",
        "curves/dungeon_quest__no_transfer__reward_vs_cumulative_steps.csv",
    }
    cell = summary["results"]["dungeon_quest"]["no_transfer"]
    assert cell["seeds"] == [1, 2]
    assert len(cell["final_reward"]) == 2
    assert cell["soft_bound_violations"] == [0, 0]
    assert cell["max_abs_update"] <= cell["update_bound"]
    # both JSON files are strict JSON (no NaN or Infinity), and the
    # summary's hash is that of the config written beside it
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    json.loads(tree["config.json"], parse_constant=refuse)
    on_disk = json.loads(tree["summary.json"], parse_constant=refuse)
    assert on_disk == summary
    assert on_disk["config_hash"] == ExperimentConfig.load(
        tmp_path / "out" / "config.json").config_hash()
    run = read_run_csv(
        tmp_path / "out" / "runs" / "dungeon_quest__no_transfer__seed1.csv")
    assert run.episode == list(range(40))


def test_run_experiment_is_reproducible(tmp_path):
    config = ExperimentConfig(**MINI)
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")


# two envs, each with a teacher for its cadent cells, and a grid that
# trains no teacher
OVERLAP = dict(environments=("dungeon_quest", "blind_craftsman"),
               variants=("cadent", "no_transfer"), seeds=(1, 2),
               episodes={"dungeon_quest": 30, "blind_craftsman": 30},
               teacher_episodes=300, threshold_window=10)


def test_run_experiment_env_subset_matches_full_grid(tmp_path):
    # a cell's bytes depend on the config, not on the other cells of its grid
    full = ExperimentConfig(**OVERLAP)
    run_experiment(full, tmp_path / "full")
    run_experiment(full.with_(environments=("dungeon_quest",)),
                   tmp_path / "part")
    run_experiment(full.with_(variants=("no_transfer",), seeds=(2,)),
                   tmp_path / "cell")
    whole = _tree(tmp_path / "full")
    part = _tree(tmp_path / "part")
    cell = _tree(tmp_path / "cell")
    # knowledge, 2 variants x 2 seeds of runs, 2 variants x 3 curves
    shared = set(part) - {"config.json", "summary.json"}
    assert len(shared) == 1 + 4 + 6
    assert {name: part[name] for name in shared} == {
        name: whole[name] for name in shared}
    for env_name in ("dungeon_quest", "blind_craftsman"):
        name = f"runs/{env_name}__no_transfer__seed2.csv"
        assert cell[name] == whole[name]


def test_cli_experiment_matches_run_experiment(tmp_path):
    for name, grid in (("overlap", OVERLAP), ("mini", MINI)):
        config = ExperimentConfig(**grid)
        run_experiment(config, tmp_path / name / "api")
        config.save(tmp_path / name / "config.json")
        out = tmp_path / name / "cli"
        assert main(["experiment", "--config", str(tmp_path / name /
                                                   "config.json"),
                     "--out", str(out)]) == 0
        assert _tree(out) == _tree(tmp_path / name / "api"), name


def test_run_experiment_names_a_failing_cell(tmp_path, monkeypatch):
    # a failing cell is named, whether it runs with knowledge or without
    real = harness.train_student
    config = ExperimentConfig(**{**MINI, "variants": ("cadent", "no_transfer"),
                                 "teacher_episodes": 300})
    for variant in ("no_transfer", "cadent"):
        def fail_seed_2(env, knowledge, config, *, seed, **kwargs):
            if seed == 2 and config.variant == variant:
                raise RuntimeError("boom")
            return real(env, knowledge, config, seed=seed, **kwargs)

        monkeypatch.setattr(harness, "train_student", fail_seed_2)
        with pytest.raises(harness.CellError, match=(
                rf"^cell \(dungeon_quest, {variant}, seed 2\) failed: "
                r"RuntimeError: boom$")):
            run_experiment(config, tmp_path / variant)


def test_run_experiment_names_a_seed_that_would_alias_another(tmp_path):
    # 2**64 + 1 passes the distinct-seeds check but has the low 64 bits of
    # seed 1, the only bits its random words are made from
    config = ExperimentConfig(**{**MINI, "seeds": (1, 2**64 + 1)})
    with pytest.raises(harness.CellError, match=(
            rf"^cell \(dungeon_quest, no_transfer, seed {2**64 + 1}\) "
            r"failed: ValueError: seed must be in")):
        run_experiment(config, tmp_path / "out")


def test_interrupted_grid_leaves_no_run_csv_and_reruns_clean(tmp_path,
                                                             monkeypatch):
    # Ctrl-C takes effect once the running cell returns: it reaches the
    # caller as itself, not as a CellError, and leaves no partial file
    real = harness.train_student
    calls = []

    def interrupt_third(*args, **kwargs):
        calls.append(kwargs["seed"])
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    config = ExperimentConfig(**{**MINI, "variants": ("cadent", "no_transfer"),
                                 "teacher_episodes": 300})
    out = tmp_path / "out"
    monkeypatch.setattr(harness, "train_student", interrupt_third)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(config, out)
    assert calls == [1, 2, 1]          # cadent 1, cadent 2, no_transfer 1
    # the teacher's knowledge is saved before the cells run; no run CSV,
    # curve, summary or temporary file is
    assert sorted(_tree(out)) == ["config.json",
                                  "knowledge/dungeon_quest.json"]
    monkeypatch.setattr(harness, "train_student", real)
    run_experiment(config, out)
    run_experiment(config, tmp_path / "fresh")
    assert _tree(out) == _tree(tmp_path / "fresh")


def test_run_experiment_builds_each_env_once(tmp_path, monkeypatch):
    made = []
    real = harness.make_env

    def counting(spec):
        made.append((spec.name, spec.variant))
        return real(spec)

    monkeypatch.setattr(harness, "make_env", counting)
    monkeypatch.setattr(harness, "_ENVS", {})
    config = ExperimentConfig(**{**MINI, "variants": ("cadent", "no_transfer"),
                                 "teacher_episodes": 400})
    # every cell of both grids looks its env up in the cache
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    assert sorted(made) == [("dungeon_quest", "source"),
                            ("dungeon_quest", "target")]
    monkeypatch.setattr(harness, "_ENVS", {})
    run_experiment(config, tmp_path / "fresh")
    assert len(made) == 4
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "fresh")


def test_consecutive_grids_in_one_process_match_a_fresh_directory(tmp_path):
    # the second grid's teacher rewrites the knowledge file at the same
    # path; its cells must train from the new knowledge, and its tree must
    # equal that of the same grid written to a directory of its own
    base = {**MINI, "variants": ("cadent", "no_transfer"),
            "teacher_episodes": 400}

    def results(tree):
        return json.loads(tree["summary.json"])["results"]

    shared, alone = tmp_path / "shared", tmp_path / "alone"
    run_experiment(ExperimentConfig(**base, teacher_seed=7), shared)
    first = _tree(shared)
    second = ExperimentConfig(**base, teacher_seed=8)
    run_experiment(second, shared)
    run_experiment(second, alone)
    assert _tree(shared) == _tree(alone)
    # the cadent cells' max |update| depends on the knowledge they get
    assert results(first) != results(_tree(alone))


def test_guided_cell_matches_a_run_from_the_saved_knowledge(tmp_path):
    # a guided cell trains from the knowledge its teacher built in memory;
    # the file the grid saved holds the same knowledge, bit for bit
    config = ExperimentConfig(**{**MINI, "variants": ("cadent", "no_transfer"),
                                 "teacher_episodes": 400})
    out = tmp_path / "out"
    run_experiment(config, out)
    knowledge = load_knowledge(out / "knowledge" / "dungeon_quest.json")
    run = harness._train_cell(config, "dungeon_quest", "cadent", 2, knowledge)
    write_run_csv(tmp_path / "again.csv", "cadent", "dungeon_quest", 2, run)
    assert ((tmp_path / "again.csv").read_bytes()
            == (out / "runs" / "dungeon_quest__cadent__seed2.csv").read_bytes())


def test_grid_never_decodes_a_sparse_table(tmp_path, monkeypatch):
    # results stay dense from the kernel to the knowledge file and the run
    # CSVs; only --qtable-out writes a sparse table
    def refuse(run, env, path):
        raise AssertionError("the grid wrote a sparse table")

    monkeypatch.setattr(teacher, "save_qtable", refuse)
    config = ExperimentConfig(**{**MINI, "variants": ("cadent", "no_transfer"),
                                 "seeds": (1,), "teacher_episodes": 400})
    summary = run_experiment(config, tmp_path / "out")
    assert sorted(summary["results"]["dungeon_quest"]) == ["cadent",
                                                           "no_transfer"]
