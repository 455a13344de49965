"""Experiment configuration, CSV artifacts, aggregation, and the runner."""

import json
import multiprocessing
import os
from types import SimpleNamespace

import numpy as np
import pytest

from cadent import files, harness, student, teacher
from cadent.automaton import save_dfa
from cadent.envs import bundled_dfa
from cadent.harness import (CURVE_CSV_HEADER, RUN_CSV_HEADER, EpisodeRecord,
                            ExperimentConfig, _mean_stderr, _run_stream,
                            aggregate_per_episode,
                            aggregate_vs_cumulative_steps, build_summary,
                            final_window_mean, read_run_csv,
                            records_from_result, run_experiment,
                            steps_to_threshold, write_curve_csv,
                            write_run_csv)
from cadent.student import StudentConfig, TrustParams
from cadent.tabular import QTable, save_qtable
from cadent.teacher import TeacherKnowledge, save_knowledge


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
    assert _run_stream("blind_craftsman", "cadent") == 0
    assert _run_stream("dungeon_quest", "cadent") == 16
    assert _run_stream("blind_craftsman", "no_transfer") == 3
    assert _run_stream("warehouse_robotics", "fixed_trust") == 53
    pairs = [(e, v) for e in ("blind_craftsman", "dungeon_quest")
             for v in ("cadent", "no_transfer")]
    assert len({_run_stream(e, v) for e, v in pairs}) == len(pairs)


# ---------------------------------------------------------------------------
# records and CSV round-trips


def _records(rewards, steps=None, variant="cadent", env="dungeon_quest",
             seed=1, accepts=None):
    steps = steps or [10] * len(rewards)
    accepts = accepts or [r > 0 for r in rewards]
    out, cum = [], 0
    for ep, (r, s, a) in enumerate(zip(rewards, steps, accepts)):
        cum += s
        out.append(EpisodeRecord(variant=variant, env=env, seed=seed,
                                 episode=ep, reward=float(r), steps=int(s),
                                 cumulative_steps=cum,
                                 reached_accept=bool(a)))
    return out


def test_train_cell_omega0_on_a_pinned_base(monkeypatch):
    # a base read from JSON may name a variant that pins omega0; each cell
    # still runs the kernel at the experiment's omega0 unless its own
    # variant pins it
    seen = []

    class Stop(Exception):
        pass

    def capture(*args, **kwargs):
        seen.append(kwargs["omega_fixed"])
        raise Stop

    config = ExperimentConfig(
        variants=("no_transfer", "no_trust_gate", "fixed_trust"), omega0=0.8,
        base=StudentConfig(variant="no_trust_gate"))
    env = harness._env("dungeon_quest", "target", config)
    knowledge = TeacherKnowledge(
        q_ad={}, pi={}, tau=2.0, n_actions=env.n_actions,
        alphabet=tuple(env.dfa.alphabet), aggregation="visitation_weighted")
    monkeypatch.setattr(harness, "_knowledge", lambda path: knowledge)
    monkeypatch.setattr(student, "run_training", capture)
    for variant in config.variants:
        with pytest.raises(Stop):
            harness._train_cell((config.to_json(), "dungeon_quest", variant,
                                 1, "unused"))
    assert seen == [0.8, 0.5, 0.8]


def test_records_from_result():
    res = SimpleNamespace(ep_reward=np.array([0.5, -1.0]),
                          ep_steps=np.array([7, 9]),
                          ep_accept=np.array([True, False]))
    recs = records_from_result("dungeon_quest", "cadent", 3, res)
    assert [r.cumulative_steps for r in recs] == [7, 16]
    assert [r.episode for r in recs] == [0, 1]
    assert recs[0].reward == 0.5 and recs[1].reward == -1.0
    assert recs[0].reached_accept and not recs[1].reached_accept


def test_run_csv_round_trip(tmp_path):
    recs = _records([0.99, -5.0, 10.99], steps=[3, 500, 42])
    path = tmp_path / "run.csv"
    write_run_csv(path, recs)
    text = path.read_text()
    assert text.splitlines()[0] == RUN_CSV_HEADER
    assert read_run_csv(path) == recs


def test_run_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "run.csv"
    write_run_csv(path, [])
    assert path.read_text() == RUN_CSV_HEADER + "\n"
    assert read_run_csv(path) == []


def test_run_csv_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_run_csv(path)


def test_curve_csv_format(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(path, [(1, 0.5, 0.0, 2), (2, 1.5, 0.25, 2)])
    lines = path.read_text().splitlines()
    assert lines[0] == CURVE_CSV_HEADER
    assert lines[1] == "1,0.5,0.0,2"
    assert lines[2] == "2,1.5,0.25,2"


# ---------------------------------------------------------------------------
# atomic writes

# each writer writes version i (0 or 1) of its file to a path
WRITERS = {
    "config": lambda path, i: ExperimentConfig(seeds=(i + 1,)).save(path),
    "qtable": lambda path, i: save_qtable(QTable(2, {(0, 1): float(i)}),
                                          path),
    "knowledge": lambda path, i: save_knowledge(TeacherKnowledge(
        q_ad={(0, 1): float(i)}, pi={0: np.array([0.5, 0.5])}, tau=2.0,
        n_actions=2, alphabet=("a",), aggregation="visitation_weighted"),
        path),
    "dfa": lambda path, i: save_dfa(
        bundled_dfa(("dungeon_quest", "blind_craftsman")[i]), path),
    "run_csv": lambda path, i: write_run_csv(path, _records([float(i)])),
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
    runs = [_records([0.0, 1.0], seed=1), _records([2.0, 3.0], seed=2)]
    rows = aggregate_per_episode(runs, "reward")
    assert rows[0][0] == 0 and rows[0][1] == 1.0 and rows[0][3] == 2
    assert rows[1][1] == 2.0
    steps = aggregate_per_episode(runs, "steps")
    assert steps[0][1] == 10.0


def test_aggregate_per_episode_rejects_ragged_runs():
    with pytest.raises(ValueError, match="unequal"):
        aggregate_per_episode([_records([0.0]), _records([0.0, 1.0])], "reward")


def test_aggregate_vs_cumulative_steps_step_function():
    run_a = _records([0.0, 2.0], steps=[10, 10], seed=1)
    run_b = _records([1.0, 3.0], steps=[5, 20], seed=2)
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


# ---------------------------------------------------------------------------
# summary construction on synthetic results


def _grid_results(config, curves):
    results, diags = {}, {}
    for (e, v), per_seed in curves.items():
        for seed, rewards in zip(config.seeds, per_seed):
            key = (e, v, seed)
            results[key] = _records(rewards, variant=v, env=e, seed=seed)
            diags[key] = {"novel_transitions": 2, "max_abs_update": 3.5,
                          "soft_violations": 0, "bound": 1099.0}
    return results, diags


def test_build_summary_auto_threshold():
    config = ExperimentConfig(environments=("dungeon_quest",),
                              variants=("cadent", "no_transfer"),
                              seeds=(1, 2), threshold_window=2)
    curves = {
        ("dungeon_quest", "no_transfer"): [[0.0] * 8 + [1.0] * 4,
                                           [0.0] * 8 + [1.0] * 4],
        ("dungeon_quest", "cadent"): [[1.0] * 12, [1.0] * 12],
    }
    results, diags = _grid_results(config, curves)
    summary = build_summary(config, results, diags)
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
    results, diags = _grid_results(config, curves)
    summary = build_summary(config, results, diags)
    cell = summary["results"]["dungeon_quest"]["no_transfer"]
    assert cell["censored_runs"] == 1
    assert cell["steps_to_threshold"] == [60]  # the run's final total


def test_build_summary_requires_threshold_coverage():
    config = ExperimentConfig(environments=("dungeon_quest",),
                              variants=("no_transfer",), seeds=(1,),
                              threshold={"dungeon_quest": 1.0})
    curves = {("dungeon_quest", "no_transfer"): [[0.0] * 6]}
    results, diags = _grid_results(config, curves)
    foreign = {(("blind_craftsman"), "no_transfer", 1):
               _records([0.0] * 6, env="blind_craftsman")}
    results.update(foreign)
    diags.update({k: {"novel_transitions": 0, "max_abs_update": 0.0,
                      "soft_violations": 0, "bound": 1.0}
                  for k in foreign})
    with pytest.raises(ValueError, match="threshold"):
        build_summary(config, results, diags)


def test_build_summary_auto_needs_no_transfer_runs():
    config = ExperimentConfig(environments=("dungeon_quest",),
                              variants=("cadent", "no_transfer"), seeds=(1,))
    curves = {("dungeon_quest", "cadent"): [[1.0] * 6]}
    results, diags = _grid_results(config, curves)
    with pytest.raises(ValueError, match="no_transfer"):
        build_summary(config, results, diags)


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
            out[os.path.relpath(path, root)] = open(path, "rb").read()
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
    on_disk = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert on_disk == summary
    recs = read_run_csv(
        tmp_path / "out" / "runs" / "dungeon_quest__no_transfer__seed1.csv")
    assert len(recs) == 40


def test_run_experiment_is_reproducible(tmp_path):
    config = ExperimentConfig(**MINI)
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")


def test_run_experiment_only_filter_matches_full_grid(tmp_path):
    config = ExperimentConfig(environments=("dungeon_quest",
                                            "blind_craftsman"),
                              variants=("no_transfer",), seeds=(1,),
                              episodes={"dungeon_quest": 30,
                                        "blind_craftsman": 30},
                              threshold_window=10)
    run_experiment(config, tmp_path / "full")
    run_experiment(config, tmp_path / "part",
                   only={"env": {"dungeon_quest"}})
    full = _tree(tmp_path / "full")
    part = _tree(tmp_path / "part")
    name = "runs/dungeon_quest__no_transfer__seed1.csv"
    assert part[name] == full[name]
    assert "runs/blind_craftsman__no_transfer__seed1.csv" not in part


def test_run_experiment_rejects_empty_filter(tmp_path):
    config = ExperimentConfig(**MINI)
    with pytest.raises(ValueError, match="filter"):
        run_experiment(config, tmp_path / "out",
                       only={"env": {"warehouse_robotics"}})


def test_run_experiment_parallel_matches_serial(tmp_path):
    config = ExperimentConfig(**MINI)
    run_experiment(config, tmp_path / "serial", parallel=1)
    run_experiment(config, tmp_path / "pool", parallel=2)
    assert _tree(tmp_path / "serial") == _tree(tmp_path / "pool")


@pytest.mark.parametrize("parallel", [
    1,
    pytest.param(2, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the patched train_student only when forked")),
])
def test_run_experiment_names_a_failing_cell(tmp_path, monkeypatch,
                                             parallel):
    real = harness.train_student

    def fail_seed_2(env, knowledge, config, *, seed, **kwargs):
        if seed == 2:
            raise RuntimeError("boom")
        return real(env, knowledge, config, seed=seed, **kwargs)

    monkeypatch.setattr(harness, "train_student", fail_seed_2)
    with pytest.raises(harness.CellError, match=(
            r"^cell \(dungeon_quest, no_transfer, seed 2\) failed: "
            r"RuntimeError: boom$")):
        run_experiment(ExperimentConfig(**MINI), tmp_path / "out",
                       parallel=parallel)


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
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    assert sorted(made) == [("dungeon_quest", "source"),
                            ("dungeon_quest", "target")]
    monkeypatch.setattr(harness, "_ENVS", {})
    run_experiment(config, tmp_path / "fresh")
    assert len(made) == 4
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "fresh")


def test_run_experiment_loads_each_knowledge_file_once(tmp_path,
                                                       monkeypatch):
    loaded = []
    real = harness.load_knowledge

    def counting(path):
        loaded.append(os.path.basename(path))
        return real(path)

    monkeypatch.setattr(harness, "load_knowledge", counting)
    harness._load_knowledge_at.cache_clear()
    config = ExperimentConfig(**{**MINI, "variants": ("cadent", "ad",
                                                      "no_transfer"),
                                 "teacher_episodes": 400})
    run_experiment(config, tmp_path / "out")
    assert loaded == ["dungeon_quest.json"]


def test_rewritten_knowledge_file_is_read_again(tmp_path):
    # the second grid's teacher rewrites the knowledge file at the same
    # path; its cells must read the new file, not the parse of the old one
    base = {**MINI, "variants": ("cadent", "no_transfer"),
            "teacher_episodes": 400}
    run_experiment(ExperimentConfig(**base, teacher_seed=7),
                   tmp_path / "shared")
    first = _tree(tmp_path / "shared")
    second = ExperimentConfig(**base, teacher_seed=8)
    run_experiment(second, tmp_path / "shared")
    harness._load_knowledge_at.cache_clear()
    run_experiment(second, tmp_path / "alone")
    assert _tree(tmp_path / "shared") == _tree(tmp_path / "alone")
    # the cadent cells' max |update| depends on the knowledge they read

    def results(tree):
        return json.loads(tree["summary.json"])["results"]
    assert results(first) != results(_tree(tmp_path / "alone"))


def test_grid_never_decodes_a_sparse_table(tmp_path, monkeypatch):
    # results stay dense from the kernel to the knowledge file and the run
    # CSVs; only --qtable-out builds a sparse table
    def refuse(run, env):
        raise AssertionError("the grid decoded a sparse table")

    monkeypatch.setattr(teacher, "decode_qtable", refuse)
    config = ExperimentConfig(**{**MINI, "variants": ("cadent", "no_transfer"),
                                 "seeds": (1,), "teacher_episodes": 400})
    summary = run_experiment(config, tmp_path / "out")
    assert sorted(summary["results"]["dungeon_quest"]) == ["cadent",
                                                           "no_transfer"]
