"""Command line interface."""

import json
import math
import os
import sys

import pytest

from cadent.cli import _student_config, build_parser, main
from cadent.envs import default_spec, make_env
from cadent.harness import (ExperimentConfig, cell_stream, run_experiment,
                            teacher_stream)
from cadent.student import StudentConfig, train_student
from cadent.teacher import load_knowledge, train_teacher

from oracles import read_qtable, read_run_csv, sparse_results


def test_info_prints_registry(capsys):
    assert main(["info"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["environments"] == [
        "blind_craftsman", "dungeon_quest", "mountain_car_collection",
        "warehouse_robotics"]
    assert "cadent" in payload["variants"]
    assert payload["default_episodes"]["dungeon_quest"] == 1500
    assert payload["env_aliases"]["dungeon"] == "dungeon_quest"
    assert payload["variant_aliases"]["none"] == "no_transfer"


def test_closed_stdout_ends_quietly(tmp_path, monkeypatch, capsys):
    # a reader that stops early (`cadent info | head -1`) closes the pipe
    # under the command: it exits 1 with nothing on stderr, and its stdout
    # descriptor now leads to devnull, so the flush at exit cannot fail
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["info"]) == 1
    assert capsys.readouterr().err == ""
    os.write(fd, b"after")
    os.close(fd)
    assert (tmp_path / "stdout").read_bytes() == b""


def test_layout_prints_grid(capsys):
    assert main(["layout", "--env", "dungeon", "--env-variant",
                 "source"]) == 0
    out = capsys.readouterr().out
    assert "dungeon_quest (source, layout_seed=12)" in out
    assert "S" in out


def test_unknown_env_is_an_error(capsys):
    assert main(["layout", "--env", "taxi"]) == 1
    assert "error:" in capsys.readouterr().err


def test_write_default_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    assert main(["experiment", "--write-default-config", str(path)]) == 0
    cfg = ExperimentConfig.load(path)
    assert cfg == ExperimentConfig()


def test_experiment_config_with_unknown_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": [1]}))
    assert main(["experiment", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 1
    assert "unknown ExperimentConfig keys: seed" in capsys.readouterr().err


@pytest.mark.parametrize("section,field,name", [
    ("learn", "tau", "LearningParams"),
    ("trust", "k", "TrustParams"),
    ("guide", "lambda_ad", "GuidanceParams"),
])
def test_experiment_config_with_nan_fails_before_training(tmp_path, capsys,
                                                          section, field,
                                                          name):
    # a JSON NaN literal parses as a float, which the kernel cannot train on
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"base": {section: {field: float("nan")}}}))
    assert "NaN" in path.read_text()
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out",
                 str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {name}.{field} must be a finite number, not NaN\n")
    assert not out.exists()


@pytest.mark.parametrize("payload,section", [
    ([1, 2], "experiment config"),
    ({"base": 5}, "base"),
    ({"base": {"learn": 3}}, "learn"),
], ids=["top-level", "base", "learn"])
def test_experiment_config_section_not_an_object(tmp_path, capsys, payload,
                                                 section):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert main(["experiment", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    # a file that is not an object names itself; a section names its key
    where = f"{path}: " if section == "experiment config" else ""
    assert err.startswith(f"error: {where}{section} must be a JSON object")


@pytest.mark.parametrize("payload,message", [
    ({"seeds": 5}, "ExperimentConfig.seeds must be a JSON array, not int"),
    ({"threshold_window": "x"},
     "ExperimentConfig.threshold_window must be a JSON integer, not str"),
], ids=["seeds", "threshold_window"])
def test_experiment_config_field_of_wrong_type(tmp_path, capsys, payload,
                                               message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert main(["experiment", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("payload,message", [
    ({"seeds": [[1]]},
     "ExperimentConfig.seeds[0] must be a non-negative JSON integer, not [1]"),
    ({"seeds": [1, 1.5]}, "ExperimentConfig.seeds[1] must be a non-negative "
                          "JSON integer, not 1.5"),
    ({"seeds": [True]},
     "ExperimentConfig.seeds[0] must be a non-negative JSON integer, not true"),
    ({"seeds": [-1]},
     "ExperimentConfig.seeds[0] must be a non-negative JSON integer, not -1"),
    ({"threshold": {"dungeon_quest": [1]}},
     "ExperimentConfig.threshold[dungeon_quest] must be a JSON number, "
     "not [1]"),
    # written as Infinity; json reads that, and 1e400, as inf, which
    # config.json could not hold
    ({"threshold": {"dungeon_quest": math.inf}},
     "ExperimentConfig.threshold[dungeon_quest] must be a JSON number, "
     "not Infinity"),
    ({"episodes": {"dungeon_quest": [1]}},
     "ExperimentConfig.episodes[dungeon_quest] must be a positive JSON "
     "integer, not [1]"),
    ({"episodes": {"dungeon_quest": 0}},
     "ExperimentConfig.episodes[dungeon_quest] must be a positive JSON "
     "integer, not 0"),
    ({"variants": [1]},
     "ExperimentConfig.variants[0] must be a JSON string, not 1"),
    ({"environments": ["dungeon", ["x"]]},
     'ExperimentConfig.environments[1] must be a JSON string, not ["x"]'),
], ids=["seed-array", "seed-float", "seed-bool", "seed-negative",
        "threshold-array", "threshold-infinite", "episodes-array",
        "episodes-zero", "variant-number", "environment-array"])
def test_experiment_config_item_of_wrong_type(tmp_path, capsys, payload,
                                              message):
    # rejected when the config is read, before the teacher stage runs
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out",
                 str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--episodes", "dungeon=5,dungeon_quest=7",
     "ExperimentConfig.episodes names dungeon_quest twice"),
    ("--episodes", "dungeon=5,dungeon=7", "--episodes names 'dungeon' twice"),
    ("--episodes", "dungeon",
     "bad --episodes clause 'dungeon'; use env=count"),
    ("--episodes", "dungeon=x",
     "bad --episodes clause 'dungeon=x'; use env=count"),
    ("--episodes", "dungeon=\u00b2",
     "bad --episodes clause 'dungeon=\u00b2'; use env=count"),
    ("--envs", "dungeon,dungeon_quest", "ExperimentConfig.environments must "
                                        "be distinct, not ['dungeon_quest', "
                                        "'dungeon_quest']"),
    ("--variants", "ad,ad_only", "ExperimentConfig.variants must be "
                                 "distinct, not ['ad', 'ad']"),
    ("--seeds", "1,x", "bad --seeds item 'x'; use non-negative integers"),
    ("--seeds", "1,-2", "bad --seeds item '-2'; use non-negative integers"),
], ids=["episodes-alias", "episodes-repeat", "episodes-no-count",
        "episodes-not-a-number", "episodes-superscript", "envs-alias",
        "variants-alias", "seeds-not-a-number", "seeds-negative"])
def test_experiment_overrides_rejected_like_the_config(tmp_path, capsys, flag,
                                                       value, message):
    out = tmp_path / "out"
    assert main(["experiment", "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_hyperparameter_defaults_match_python_api():
    # the gate must start where StudentConfig starts it (v_init included)
    args = build_parser().parse_args(["train-student", "--env", "dungeon"])
    assert _student_config(args) == StudentConfig()


@pytest.fixture(scope="module")
def knowledge_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("teacher") / "knowledge.json"
    qt = tmp_path_factory.mktemp("teacher") / "qtable.json"
    code = main(["train-teacher", "--env", "dungeon", "--episodes", "800",
                 "--out", str(out), "--qtable-out", str(qt)])
    assert code == 0
    return out, qt


def test_train_teacher_writes_artifacts(knowledge_file):
    out, qt = knowledge_file
    knowledge = load_knowledge(out)
    assert knowledge.provenance["env"] == "dungeon_quest"
    assert knowledge.provenance["variant"] == "source"
    assert knowledge.provenance["episodes"] == 800
    table = read_qtable(qt)
    assert len(table) > 0


@pytest.mark.parametrize("flag", ["--eta", "--gate-k", "--theta", "--v-init",
                                  "--lambda-ad", "--lambda-pd"])
def test_train_teacher_rejects_student_flags(flag, tmp_path, capsys):
    # a teacher has no trust gate or guidance terms, so their flags would
    # be ignored; argparse refuses them before any training
    with pytest.raises(SystemExit) as exc:
        main(["train-teacher", "--env", "dungeon", "--out",
              str(tmp_path / "knowledge.json"), flag, "0.3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 0.3" in capsys.readouterr().err
    assert not (tmp_path / "knowledge.json").exists()


def test_train_teacher_defaults_are_the_grid_teachers(tmp_path):
    # without --episodes, --seed, --aggregation and --layout-seed the
    # teacher has the experiment grid teacher's budget, seed, aggregation
    # and layout
    out = tmp_path / "knowledge.json"
    assert main(["train-teacher", "--env", "dungeon", "--out",
                 str(out)]) == 0
    knowledge = load_knowledge(out)
    grid = ExperimentConfig()
    assert knowledge.aggregation == grid.aggregation
    assert knowledge.provenance["episodes"] == grid.teacher_episodes
    assert knowledge.provenance["seed"] == grid.teacher_seed
    assert knowledge.provenance["layout_seed"] == grid.layout_seed


def test_cli_steps_write_the_grids_files(tmp_path):
    # train-teacher, then train-student on its knowledge, both with their
    # defaults, write the files a grid writes for the same cell: each
    # draws from the grid's random stream
    grid = tmp_path / "grid"
    run_experiment(ExperimentConfig(
        environments=("dungeon_quest",), variants=("cadent",), seeds=(1,),
        threshold={"dungeon_quest": 1.0}), grid)
    know, csv = tmp_path / "knowledge.json", tmp_path / "run.csv"
    assert main(["train-teacher", "--env", "dungeon", "--out",
                 str(know)]) == 0
    assert main(["train-student", "--env", "dungeon", "--knowledge",
                 str(know), "--out", str(csv)]) == 0
    assert know.read_bytes() == (
        grid / "knowledge" / "dungeon_quest.json").read_bytes()
    assert csv.read_bytes() == (
        grid / "runs" / "dungeon_quest__cadent__seed1.csv").read_bytes()


def test_train_student_has_no_tau(capsys):
    # tau is distillation's temperature: no student run reads it
    with pytest.raises(SystemExit) as exc:
        main(["train-student", "--env", "dungeon", "--variant", "none",
              "--episodes", "5", "--tau", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tau 0" in capsys.readouterr().err


def test_train_teacher_labels_the_final_window_with_its_size(tmp_path,
                                                             capsys):
    # a 20-episode teacher: the window is all of the run, and the success
    # count printed is the one the knowledge file records
    know = tmp_path / "knowledge.json"
    assert main(["train-teacher", "--env", "dungeon", "--episodes", "20",
                 "--seed", "1", "--out", str(know)]) == 0
    out = capsys.readouterr().out
    assert "final-20 mean reward" in out and "final-100" not in out
    n_successes = load_knowledge(know).provenance["n_successes"]
    assert f" {n_successes}/20 successful episodes" in out


def test_train_student_no_transfer(tmp_path, capsys):
    csv = tmp_path / "run.csv"
    code = main(["train-student", "--env", "dungeon", "--variant", "none",
                 "--episodes", "30", "--seed", "2", "--out", str(csv),
                 "--qtable-out", str(tmp_path / "student.json")])
    assert code == 0
    run = read_run_csv(csv)
    assert run.episode == list(range(30))
    assert run.variant[0] == "no_transfer"
    assert run.env[0] == "dungeon_quest"
    payload = json.loads((tmp_path / "student.json").read_text())
    assert payload["n_actions"] == 4
    assert "no_transfer on dungeon_quest/target" in capsys.readouterr().out


def test_train_student_labels_the_final_window_with_its_size(capsys):
    # the window is the last 100 episodes, or all of a shorter run
    code = main(["train-student", "--env", "dungeon", "--variant", "none",
                 "--episodes", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert "final-20 mean reward" in out and "final-100" not in out


def test_train_student_cadent_with_knowledge(knowledge_file, tmp_path,
                                             capsys):
    know, _qt = knowledge_file
    code = main(["train-student", "--env", "dungeon", "--episodes", "30",
                 "--knowledge", str(know), "--out",
                 str(tmp_path / "run.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "cadent on dungeon_quest/target" in out
    assert "soft_violations=0" in out


def _saved_entries(path):
    return [(state, a, v) for (state, a), v in read_qtable(path).items()]


def _reference_entries(env, run):
    return [(state, a, v) for (state, a), v in
            sparse_results(env, run).qtable.items()]


def test_qtable_out_matches_sparse_reference(knowledge_file, tmp_path):
    # --qtable-out writes one entry per updated pair of the run, in the
    # dense np.argwhere order, for a teacher and for a guided student
    know, teacher_qt = knowledge_file
    source = make_env(default_spec("dungeon_quest", "source"))
    run = train_teacher(source, episodes=800, seed=7,
                        stream=teacher_stream("dungeon_quest"))
    assert _saved_entries(teacher_qt) == _reference_entries(source, run)
    qt = tmp_path / "student.json"
    assert main(["train-student", "--env", "dungeon", "--episodes", "30",
                 "--seed", "2", "--knowledge", str(know),
                 "--qtable-out", str(qt)]) == 0
    target = make_env(default_spec("dungeon_quest", "target"))
    run = train_student(target, load_knowledge(know), StudentConfig(),
                        episodes=30, seed=2,
                        stream=cell_stream("dungeon_quest", "cadent"))
    assert _saved_entries(qt) == _reference_entries(target, run)


def test_knowledge_misuse_exit_codes(knowledge_file, tmp_path, capsys):
    # each mismatch is refused before training, so no episode log is written
    know, _qt = knowledge_file
    out = tmp_path / "run.csv"
    for extra, message in (
            (["--variant", "cadent"],
             "error: variant 'cadent' needs --knowledge\n"),
            (["--variant", "no_transfer", "--knowledge", str(know)],
             "error: no_transfer does not take --knowledge\n"),
            (["--variant", "none", "--knowledge", str(know)],
             "error: no_transfer does not take --knowledge\n")):
        assert main(["train-student", "--env", "dungeon", "--episodes", "5",
                     "--out", str(out)] + extra) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


def test_experiment_cli_small_grid(tmp_path, capsys):
    code = main(["experiment", "--out", str(tmp_path / "out"),
                 "--envs", "dungeon", "--variants", "no_transfer",
                 "--seeds", "1,2", "--episodes", "dungeon=30"])
    assert code == 0
    out = capsys.readouterr().out
    assert "experiment written to" in out
    assert "dungeon_quest (threshold" in out
    assert (tmp_path / "out" / "summary.json").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["episodes"] == {"dungeon_quest": 30}
    assert list(summary["results"]) == ["dungeon_quest"]


def test_experiment_out_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CADENT_OUT", str(tmp_path / "fromenv"))
    code = main(["experiment", "--envs", "dungeon",
                 "--variants", "no_transfer", "--seeds", "1",
                 "--episodes", "dungeon=20"])
    assert code == 0
    assert (tmp_path / "fromenv" / "summary.json").exists()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("mutate", [
    lambda p: p.pop("n_actions"),
    lambda p: p["q_ad"][0].pop("value"),
    lambda p: p.update(q_ad=5),
], ids=["no-n-actions", "edge-without-value", "q-ad-not-array"])
def test_train_student_rejects_malformed_knowledge(knowledge_file, tmp_path,
                                                   capsys, mutate):
    know, _qt = knowledge_file
    payload = json.loads(know.read_text())
    mutate(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["train-student", "--env", "dungeon", "--episodes", "5",
                 "--knowledge", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: malformed knowledge payload: ")
    assert err.count("\n") == 1


def test_train_student_names_a_truncated_knowledge_file(knowledge_file,
                                                        tmp_path, capsys):
    know, _qt = knowledge_file
    text = know.read_text()
    cut = tmp_path / "cut.json"
    cut.write_text(text[:len(text) // 2])
    assert main(["train-student", "--env", "dungeon", "--episodes", "5",
                 "--knowledge", str(cut)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cut}: not valid JSON: ")
    assert err.count("\n") == 1
