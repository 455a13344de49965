"""Dense table compilation and the training kernel backends."""

import ast
import inspect
import math
import types

import numpy as np
import pytest

from cadent import kernels
from cadent.envs import EnvSpec, default_spec, make_env
from cadent.envs.dungeon import DungeonQuest
from cadent.envs.golden import golden_actions, run_actions
from cadent.envs.tables import compile_env
from cadent.kernels import (NUMBA_ENABLED, backend_info, greedy_rollout,
                            run_training)

from oracles import value_iteration

HYPERS = dict(alpha=0.1, gamma=0.99, eps_start=1.0, eps_end=0.05,
              eps_decay=0.995, eta=0.1, gate_k=10.0, theta=0.5, v_init=0.0,
              lam_ad=1.0, lam_pd=0.5)

TEACHER_MODE = dict(use_gate=False, omega_fixed=1.0, use_guidance=False)
GUIDED_MODE = dict(use_gate=True, omega_fixed=0.0, use_guidance=True)


# ---------------------------------------------------------------------------
# compile_env


def test_compile_matches_env_step(dungeon_source, dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    env = dungeon_source
    assert tables.states[tables.start] == env.reset()
    assert tables.start == 0
    saw_event = False
    for s, state in enumerate(tables.states):
        if tables.terminal[s] or tables.dead[s]:
            continue
        for a in range(tables.n_actions):
            out = env.step(state, a)
            assert tables.states[tables.next_state[s, a]] == out.state
            assert tables.reward[s, a] == out.reward
            if out.event is None:
                assert tables.event[s, a] == 0
            else:
                assert tables.event[s, a] == cdfa.symbol_index[out.event]
                saw_event = True
    assert saw_event


def test_compile_terminal_rows_self_loop(dungeon_source_tables):
    tables, _ = dungeon_source_tables
    term = np.flatnonzero(tables.terminal)
    assert term.size > 0
    for s in term:
        assert np.all(tables.next_state[s] == s)
        assert np.all(tables.reward[s] == 0.0)
        assert np.all(tables.event[s] == 0)


def test_compile_dead_rows_self_loop(env_cache):
    env = env_cache("warehouse_robotics", "source")
    tables = compile_env(env)
    dead = np.flatnonzero(tables.dead)
    assert dead.size > 0
    for s in dead:
        assert np.all(tables.next_state[s] == s)
        assert np.all(tables.reward[s] == 0.0)


def test_compile_is_cached(dungeon_source):
    assert compile_env(dungeon_source) is compile_env(dungeon_source)


def test_compile_deterministic_indexing():
    a = compile_env(make_env(default_spec("dungeon_quest", "source")))
    b = compile_env(make_env(default_spec("dungeon_quest", "source")))
    assert a.states == b.states
    assert np.array_equal(a.next_state, b.next_state)
    assert np.array_equal(a.reward, b.reward)
    assert np.array_equal(a.event, b.event)


def test_compile_rejects_inconsistent_done_flag():
    class BrokenDungeon(DungeonQuest):
        def is_terminal(self, state):
            return False

    spec = EnvSpec("dungeon_quest", parameters={
        "rows": 3, "cols": 3, "start": (2, 0), "key": (2, 1),
        "chest": (2, 2), "shield": (1, 2), "dragon": (0, 2),
    })
    with pytest.raises(AssertionError):
        compile_env(BrokenDungeon(spec))


# ---------------------------------------------------------------------------
# kernel backends


def test_backend_info_shape():
    info = backend_info()
    assert info["backend"] in ("python", "numba")
    assert isinstance(info["numba_requested"], bool)
    assert isinstance(info["numba_available"], bool)


def _dense_bundle(cdfa, n_actions, seed=3):
    rng = np.random.default_rng(seed)
    n_q = cdfa.delta.shape[0]
    q_ad = rng.uniform(0.0, 5.0, size=(n_q, n_q))
    q_ad_known = np.ones((n_q, n_q), dtype=np.bool_)
    pi = rng.uniform(0.1, 1.0, size=(n_q, n_actions))
    pi /= pi.sum(axis=1, keepdims=True)
    pi_known = np.ones(n_q, dtype=np.bool_)
    return q_ad, q_ad_known, pi, pi_known


def _run(tables, cdfa, dense, mode, backend, episodes=30, seed=11, **overrides):
    kw = dict(HYPERS)
    kw.update(mode)
    kw.update(overrides)
    return run_training(tables, cdfa, dense, episodes=episodes, max_steps=120,
                        seed=seed, backend=backend, **kw)


def test_compiled_code_calls_only_compiled_functions():
    # numba cannot call a plain Python function from compiled code, and the
    # interpreted backend cannot show the slip, as there a function and its
    # compiled copy are one object. So check by name: every function passed
    # to _compile reaches other functions only through their compiled names.
    tree = ast.parse(inspect.getsource(kernels))
    compiled = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "_compile"):
            compiled[node.targets[0].id] = node.value.args[0].id
    assert {"xs128_next", "_argmax", "train_run"} <= set(compiled)
    for source in compiled.values():
        fn = getattr(kernels, source)
        for name in fn.__code__.co_names:
            target = fn.__globals__.get(name)
            if (isinstance(target, types.FunctionType)
                    or hasattr(target, "py_func")):
                assert name in compiled, f"{source} calls plain {name}"


@pytest.mark.skipif(not NUMBA_ENABLED, reason="numba backend not enabled")
@pytest.mark.parametrize("mode", [TEACHER_MODE, GUIDED_MODE],
                         ids=["teacher", "guided"])
def test_backends_bit_identical(dungeon_source_tables, mode):
    """The compiled and the interpreted episode loop give the same bits.

    Under numba both loops call the same compiled formulas (trust gate,
    fused update, ...), so this compares the loop bodies only; the formulas
    are pinned by tests/test_digests.py on every backend.
    """
    tables, cdfa = dungeon_source_tables
    dense = (None if not mode["use_guidance"]
             else _dense_bundle(cdfa, tables.n_actions))
    py = _run(tables, cdfa, dense, mode, "python")
    nb = _run(tables, cdfa, dense, mode, "numba")
    assert np.array_equal(py.q, nb.q)
    assert np.array_equal(py.vol, nb.vol)
    assert np.array_equal(py.counts, nb.counts)
    assert np.array_equal(py.ep_reward, nb.ep_reward)
    assert np.array_equal(py.ep_steps, nb.ep_steps)
    assert np.array_equal(py.ep_accept, nb.ep_accept)
    assert py.novel_transitions == nb.novel_transitions
    assert py.max_abs_update == nb.max_abs_update
    assert py.n_soft_violations == nb.n_soft_violations


def test_training_output_shapes(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    res = _run(tables, cdfa, None, TEACHER_MODE, "python", episodes=5)
    n_pids = tables.n_states * cdfa.delta.shape[0]
    assert res.q.shape == (n_pids, tables.n_actions)
    assert res.vol.shape == (n_pids, tables.n_actions)
    assert res.counts.shape == (n_pids, tables.n_actions)
    assert res.ep_reward.shape == (5,)
    assert res.ep_steps.shape == (5,)
    assert res.ep_accept.shape == (5,)
    assert np.all(res.ep_steps >= 1)
    assert np.all(res.ep_steps <= 120)
    assert res.n_soft_violations == 0
    assert res.soft_violation_steps.size == 0


def test_same_seed_bit_identical(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    a = _run(tables, cdfa, None, TEACHER_MODE, "python")
    b = _run(tables, cdfa, None, TEACHER_MODE, "python")
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.ep_reward, b.ep_reward)


def test_different_stream_diverges(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    a = _run(tables, cdfa, None, TEACHER_MODE, "python")
    b = run_training(tables, cdfa, None, episodes=30, max_steps=120, seed=11,
                     stream=1, backend="python", **{**HYPERS, **TEACHER_MODE})
    assert not np.array_equal(a.q, b.q)


def test_soft_bound_recording(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    res = run_training(tables, cdfa, None, episodes=5, max_steps=120, seed=11,
                       bound=0.0, soft_cap=8, backend="python",
                       **{**HYPERS, **TEACHER_MODE})
    assert res.n_soft_violations > 8
    steps = res.soft_violation_steps
    assert steps.shape == (8,)
    assert np.all(np.diff(steps) > 0)
    assert steps[0] == 0
    assert res.max_abs_update > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_update_raises(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    with pytest.raises(ValueError, match="diverged"):
        run_training(tables, cdfa, None, episodes=200, max_steps=120, seed=11,
                     backend="python",
                     **{**HYPERS, **TEACHER_MODE,
                        "alpha": 1e308, "gamma": 0.99})


def test_run_training_validation(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    kw = {**HYPERS, **TEACHER_MODE}
    with pytest.raises(ValueError):
        run_training(tables, cdfa, None, episodes=0, max_steps=10, seed=1,
                     **kw)
    with pytest.raises(ValueError):
        run_training(tables, cdfa, None, episodes=1, max_steps=0, seed=1,
                     **kw)
    with pytest.raises(ValueError):
        run_training(tables, cdfa, None, episodes=1, max_steps=10, seed=1,
                     backend="jax", **kw)


def test_numba_backend_refused_when_disabled(dungeon_source_tables,
                                             monkeypatch):
    monkeypatch.setattr(kernels, "NUMBA_ENABLED", False)
    tables, cdfa = dungeon_source_tables
    with pytest.raises(RuntimeError):
        run_training(tables, cdfa, None, episodes=1, max_steps=10, seed=1,
                     backend="numba", **{**HYPERS, **TEACHER_MODE})


# ---------------------------------------------------------------------------
# greedy rollout


def test_greedy_rollout_optimal_policy_accepts(dungeon_source,
                                               dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    q = value_iteration(tables, cdfa, gamma=0.99)
    accepted, steps, total = greedy_rollout(tables, cdfa, q,
                                            dungeon_source.max_steps)
    assert accepted
    golden = golden_actions(dungeon_source)
    _, g_steps, g_total, _ = run_actions(dungeon_source, golden)
    assert steps <= g_steps
    assert total >= g_total - 1e-9


def test_greedy_rollout_detects_loops(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    q = np.zeros((tables.n_states * cdfa.delta.shape[0], tables.n_actions))
    accepted, steps, _ = greedy_rollout(tables, cdfa, q, 10**6)
    assert not accepted
    assert steps <= tables.n_states * cdfa.delta.shape[0]


def test_greedy_rollout_respects_budget(dungeon_source,
                                        dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    q = value_iteration(tables, cdfa, gamma=0.99)
    accepted, steps, _ = greedy_rollout(tables, cdfa, q, 3)
    assert not accepted
    assert steps == 3
