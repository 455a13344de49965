"""Pinned outputs of short training runs, bit for bit.

Each (environment, variant) cell trains a short run and hashes everything
it produces: the kernel's Q, volatility and visit counts (scattered to the
dense (s*n_q + q, a) layout by `oracles.dense_run`), the episode arrays,
the update diagnostics, and the sparse tables that
`oracles.sparse_results` rebuilds from them. The "teacher" cell hashes the
source-task run whose knowledge the variants use. `QTABLE_OUT_PINNED`
holds the sha256 of the files `--qtable-out` writes for a short teacher and
a guided student that uses its knowledge, and `KNOWLEDGE_PINNED` that of
the teacher's knowledge file, provenance included.
A refactor of the kernel or of a formula that flips a single bit fails here
and names the cell it changed. A deliberate change
of behaviour records the table again: `PYTHONPATH=src python
tests/test_digests.py` prints it.
"""

import hashlib
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from cadent import student, teacher
from cadent.baselines import preset_names, resolve_preset
from cadent.cli import main
from cadent.envs import ENV_NAMES, default_spec, make_env
from cadent.envs.tables import compile_env
from cadent.harness import cell_stream, teacher_stream

from oracles import dense_run, sparse_results

TEACHER_EPISODES = 400   # enough for every environment's teacher to distill
STUDENT_EPISODES = 40
SEED = 3

PINNED = {
    ('blind_craftsman', 'teacher'):
        '5cd0a31f273753aa0704692b457f3f78646cb32d18cb4132742db838d8b30738',
    ('blind_craftsman', 'cadent'):
        'eadac8466dfac5a90ceef5f02a4dcc068f164473b43b298613bef54c518afa36',
    ('blind_craftsman', 'ad'):
        '1e55c44902b3ae993ad38aba9414eacbe02e427b898df6b07b974f660f00ce59',
    ('blind_craftsman', 'pd'):
        '54d1b87c08a616996fbdb54d73e4d010e90d6f7259167b6703658e202e6facad',
    ('blind_craftsman', 'no_transfer'):
        '8b0178852bc8777da12ca22a5571b80e6e09cef6f889f1a5dbafd07176bcbf01',
    ('blind_craftsman', 'no_trust_gate'):
        '7434662b46cbc95dd8c39d5508fe8be5c9956a4d4847e4d679ac76324b497c1c',
    ('dungeon_quest', 'teacher'):
        '3aab78f96307c6a201ab6e79103d8b5b7c54e5ebd900774d0ea23ec7f3e4be1d',
    ('dungeon_quest', 'cadent'):
        '71a76cdd533a9c4fef14209245e77c2f8adb6ed3671688e7b2186bd6321e894e',
    ('dungeon_quest', 'ad'):
        '9b951f14a1532b5479869eea5b7f261929008ee4ea2a0e67fdb6ee5c5f76ed0e',
    ('dungeon_quest', 'pd'):
        'dfd7cc400018c182522a55ddb85120f271d91f414c4d57b36cac0abe3560214e',
    ('dungeon_quest', 'no_transfer'):
        '387ef448397a6fa14952f7452e5062137b19031d087c804af2ddd3d3d108e013',
    ('dungeon_quest', 'no_trust_gate'):
        '3350da2d18b4732259d4a16ea94c995c1f4a708b6c10ca380d16b41326a01aa3',
    ('mountain_car_collection', 'teacher'):
        '2d326bb046f7a124546aefabf632c6e72e987e13051841e36d55ecd3a6adc8ca',
    ('mountain_car_collection', 'cadent'):
        '0c2c3292ecb1fc816a035148c083a6bc24b9713cbf4877fad4edfbf23ba2371c',
    ('mountain_car_collection', 'ad'):
        '49a15f63fcfd99465b8200985ebc1559c7de6933909ae2f4dd0851a03b8778e6',
    ('mountain_car_collection', 'pd'):
        '68186870adb847995df62b05244ee2fc44e1a6c53691cafce952e47444b9c6f0',
    ('mountain_car_collection', 'no_transfer'):
        '06adb0e00c6525230a130bc43c38c16edd1db93933e45f6f53c2b7e792bd16f2',
    ('mountain_car_collection', 'no_trust_gate'):
        '3dc0cee9415e4c665bebc49275a6f190d8b4d6ecd86c9486a2508776e8472777',
    ('warehouse_robotics', 'teacher'):
        'c96499d14595d2ccf6307895828399be2970c8c42bf53d9fe4849f4dd98de1f7',
    ('warehouse_robotics', 'cadent'):
        'e0ee3bba429d6b683e1dea3a01328e152afb7d81b262a1225fcdd09589113c50',
    ('warehouse_robotics', 'ad'):
        '9440f3615f6d515be38441dea34bb30586b2432acab097b6620534e729cf89f5',
    ('warehouse_robotics', 'pd'):
        'b63828b7eac7820968aadf56cd469f03a4999fe131787ce675cfc2579a1fcf4e',
    ('warehouse_robotics', 'no_transfer'):
        '8c3a8997467dd261652974dab9f9f9fd389f86ed22066f9e09a9d22f65126b4f',
    ('warehouse_robotics', 'no_trust_gate'):
        '8e35592513bde2d418354ec1bfc18fc8d0fe3591f266613553083e22e56119dd',
}

QTABLE_OUT_PINNED = {
    'teacher':
        '7060562478914d2964df653c5c878cffa7ea9f3e07a43f2c6c7c0f9cb6f17ad9',
    'student':
        '29489f42527d8899c9bfec4bb66e7a57ffebd83cc34fb819eaa8c549d3e0add4',
}

KNOWLEDGE_PINNED = (
    'f02e671228f427b44c5e46d1d544b34e58a621c60e16ba97523e915881ea9a7e')


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _kernel_parts(res, env, v_init):
    # hashed in the dense (s*n_q + q, a) layout the table was recorded in
    dense = dense_run(res, compile_env(env).n_states, v_init)
    return (dense.q, dense.vol, dense.counts, res.ep_reward, res.ep_steps,
            res.ep_accept, res.novel_transitions, float(res.max_abs_update),
            res.n_soft_violations, res.soft_violation_steps)


def _teacher_cell(name):
    env = make_env(default_spec(name, "source"))
    run = teacher.train_teacher(env, episodes=TEACHER_EPISODES, seed=SEED,
                                stream=teacher_stream(name))
    knowledge = teacher.build_knowledge(run, env, tau=2.0)
    ref = sparse_results(env, run)
    digest = _digest(_kernel_parts(run, env, 0.0) + (
        sorted(ref.qtable.items()), sorted(ref.visits.items()),
        sorted(ref.transition_log)))
    return digest, knowledge


def _student_cell(name, variant, knowledge):
    env = make_env(default_spec(name, "target"))
    config = resolve_preset(variant)
    run = student.train_student(
        env, knowledge if variant != "no_transfer" else None, config,
        episodes=STUDENT_EPISODES, seed=SEED,
        stream=cell_stream(name, variant))
    ref = sparse_results(env, run, gated=student.VARIANTS[config.variant][0])
    return _digest(_kernel_parts(run, env, config.trust.v_init) + (
        sorted(ref.qtable.items()), sorted(ref.volatility.items()),
        run.novel_transitions, float(run.max_abs_update),
        run.n_soft_violations, run.soft_violation_steps.tolist(),
        run.bound))


def _cells():
    return [(name, v) for name in ENV_NAMES
            for v in ("teacher",) + tuple(preset_names())]


@pytest.fixture(scope="module")
def teacher_cells():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _teacher_cell(name)
        return cache[name]

    return get


def _cli_digests(out_dir):
    """sha256 of the --qtable-out files of a dungeon_quest teacher (300
    episodes, seed 7) and of a cadent student on its knowledge (20
    episodes, seed 1), both trained through the CLI, and of the teacher's
    knowledge file."""
    know = str(out_dir / "knowledge.json")
    runs = {
        "teacher": ["train-teacher", "--env", "dungeon", "--episodes", "300",
                    "--seed", "7", "--out", know],
        "student": ["train-student", "--env", "dungeon", "--variant",
                    "cadent", "--knowledge", know, "--episodes", "20",
                    "--seed", "1"],
    }
    digests = {}
    for role, argv in runs.items():
        path = out_dir / f"{role}_q.json"
        with redirect_stdout(StringIO()):
            assert main(argv + ["--qtable-out", str(path)]) == 0
        digests[role] = hashlib.sha256(path.read_bytes()).hexdigest()
    digests["knowledge"] = hashlib.sha256(
        (out_dir / "knowledge.json").read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def cli_digests(tmp_path_factory):
    return _cli_digests(tmp_path_factory.mktemp("cli"))


@pytest.mark.parametrize("name,variant", _cells())
def test_run_outputs_match_pinned_digest(teacher_cells, name, variant):
    digest, knowledge = teacher_cells(name)
    if variant != "teacher":
        digest = _student_cell(name, variant, knowledge)
    assert digest == PINNED[(name, variant)], (
        f"outputs of ({name}, {variant}) changed")


def test_qtable_out_files_match_pinned_digest(cli_digests):
    assert {role: cli_digests[role] for role in QTABLE_OUT_PINNED} == (
        QTABLE_OUT_PINNED)


def test_knowledge_file_matches_pinned_digest(cli_digests):
    assert cli_digests["knowledge"] == KNOWLEDGE_PINNED


if __name__ == "__main__":
    teachers = {}
    for name, variant in _cells():
        if variant == "teacher":
            teachers[name] = _teacher_cell(name)
            digest = teachers[name][0]
        else:
            digest = _student_cell(name, variant, teachers[name][1])
        print(f"    ({name!r}, {variant!r}):\n        {digest!r},")
    with tempfile.TemporaryDirectory() as out_dir:
        for role, digest in _cli_digests(Path(out_dir)).items():
            print(f"    {role!r}:\n        {digest!r},")
