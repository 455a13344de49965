"""Pinned bytes of the configs every result is filed under.

A grid's `config.json`, the `config_hash` in its `summary.json` and the
env-cache key (`EnvSpec.to_json()` as sorted JSON) must not move when the
config classes change shape, or old results stop matching new runs. The
train-student hyperparameter flags are pinned too: their names, order and
defaults are the CLI's copy of the parameter classes. A deliberate change
records the table again: `PYTHONPATH=src python tests/test_config_bytes.py`
prints it.
"""

import hashlib
import json

from cadent.cli import build_parser
from cadent.envs import EnvSpec
from cadent.harness import ExperimentConfig
from cadent.student import GuidanceParams, StudentConfig, TrustParams
from cadent.tabular import LearningParams

# sha256 of the text ExperimentConfig.save writes, and config_hash()
PINNED = {
    "default": (
        "846c3df8a616b2f71fde9b113115bb5004347f16531671f2938f605e025e34f6",
        "9d90fd0c8cbcb16d00d711e4e30310844d127b52107960692631b4d51b2fb59b"),
    "custom": (
        "2c40e876ba4be4a45924ce8c25db7f106da9e430312f8b9b45d40048f07b8523",
        "e4251a66ff2fc22a6d3db1e49771da62b34faad272b66ad1521140f842c96087"),
}

SPEC_KEY = (
    '{"layout_seed": 3, "max_steps": 77, "name": "warehouse_robotics", '
    '"parameters": {"rows": 6, "shelf": [2, 3], "start": [0, 1]}, '
    '"variant": "source"}')

HYPER_FLAGS = [
    ("--alpha", 0.1), ("--gamma", 0.99), ("--epsilon-start", 1.0),
    ("--epsilon-end", 0.05), ("--epsilon-decay", 0.995), ("--tau", 2.0),
    ("--eta", 0.2), ("--gate-k", 10.0), ("--theta", 0.5), ("--v-init", 1.0),
    ("--lambda-ad", 1.0), ("--lambda-pd", 0.5),
]


def _configs():
    return {
        "default": ExperimentConfig(),
        "custom": ExperimentConfig(
            environments=("dungeon", "blind_craftsman"),
            variants=("cadent", "no_transfer"),
            seeds=(3, 5),
            episodes={"dungeon_quest": 50},
            base=StudentConfig(learn=LearningParams(alpha=0.2),
                               trust=TrustParams(theta=0.7),
                               guide=GuidanceParams(lambda_pd=0.25)),
            threshold={"dungeon": 1.5, "blind_craftsman": 2},
            threshold_window=5, omega0=0.25),
    }


def _saved(config, path):
    config.save(path)
    text = path.read_bytes()
    return hashlib.sha256(text).hexdigest(), config.config_hash()


def test_experiment_config_bytes(tmp_path):
    for name, config in _configs().items():
        assert _saved(config, tmp_path / f"{name}.json") == PINNED[name], name


def test_env_spec_bytes(tmp_path):
    spec = EnvSpec("warehouse_robotics", variant="source", layout_seed=3,
                   max_steps=77, parameters={"rows": 6, "start": (0, 1),
                                             "shelf": [2, 3]})
    assert json.dumps(spec.to_json(), sort_keys=True) == SPEC_KEY
    spec.save(tmp_path / "spec.json")
    assert (tmp_path / "spec.json").read_text() == (
        json.dumps(json.loads(SPEC_KEY), indent=2, sort_keys=True) + "\n")


def _hyper_flags():
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices["train-student"]
    flags = [(a.option_strings[0], a.default, a.type) for a in sub._actions
             if a.option_strings]
    names = [f[0] for f in flags]
    return flags[names.index("--alpha"):names.index("--lambda-pd") + 1]


def test_train_student_hyperparameter_flags():
    assert _hyper_flags() == [(f, d, float) for f, d in HYPER_FLAGS]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("PINNED = {")
        for name, config in _configs().items():
            text, h = _saved(config, pathlib.Path(tmp) / f"{name}.json")
            print(f'    "{name}": (\n        "{text}",\n        "{h}"),')
        print("}")
