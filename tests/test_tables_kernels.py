"""Dense table compilation and the training kernel."""

import numpy as np
import pytest

from cadent.envs import EnvSpec, default_spec, make_env
from cadent.envs.dungeon import DungeonQuest
from cadent.envs.tables import compile_env
from cadent.kernels import SOFT_CAP, greedy_rollout, run_training

from golden import golden_actions, run_actions
from oracles import value_iteration

HYPERS = dict(alpha=0.1, gamma=0.99, eps_start=1.0, eps_end=0.05,
              eps_decay=0.995, eta=0.1, gate_k=10.0, theta=0.5, v_init=0.0,
              lam_ad=1.0, lam_pd=0.5)

TEACHER_MODE = dict(use_gate=False, omega_fixed=1.0, use_guidance=False)


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
# training kernel


def _run(tables, cdfa, dense, mode, episodes=30, seed=11, **overrides):
    kw = dict(HYPERS)
    kw.update(mode)
    kw.update(overrides)
    return run_training(tables, cdfa, dense, episodes=episodes, max_steps=120,
                        seed=seed, **kw)


def test_training_output_shapes(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    res = _run(tables, cdfa, None, TEACHER_MODE, episodes=5)
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
    a = _run(tables, cdfa, None, TEACHER_MODE)
    b = _run(tables, cdfa, None, TEACHER_MODE)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.ep_reward, b.ep_reward)


def test_different_stream_diverges(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    a = _run(tables, cdfa, None, TEACHER_MODE)
    b = run_training(tables, cdfa, None, episodes=30, max_steps=120, seed=11,
                     stream=1, **{**HYPERS, **TEACHER_MODE})
    assert not np.array_equal(a.q, b.q)


def test_soft_bound_recording(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    res = run_training(tables, cdfa, None, episodes=20, max_steps=120,
                       seed=11, bound=0.0, **{**HYPERS, **TEACHER_MODE})
    assert res.n_soft_violations > SOFT_CAP
    steps = res.soft_violation_steps
    assert steps.shape == (SOFT_CAP,)
    assert np.all(np.diff(steps) > 0)
    assert steps[0] == 0
    assert res.max_abs_update > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_update_raises(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    with pytest.raises(ValueError, match="diverged"):
        run_training(tables, cdfa, None, episodes=200, max_steps=120, seed=11,
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
