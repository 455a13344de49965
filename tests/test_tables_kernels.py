"""Dense table compilation, the product tables and the training kernel."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cadent import kernels
from cadent.automaton import CompiledDfa
from cadent.envs import ENV_NAMES, EnvSpec, default_spec, make_env
from cadent.envs.dungeon import DungeonQuest
from cadent.envs.tables import compile_env, product_tables
from cadent.kernels import (SOFT_CAP, GuidanceParams, LearningParams,
                            TrustParams, greedy_rollout, run_training)
from cadent.rng import state_from

from golden import golden_actions, run_actions
from oracles import (dense_run, product_violations, product_walk,
                     reference_train_run, toy_product, toy_run,
                     value_iteration)

LEARN = LearningParams(alpha=0.1, gamma=0.99, epsilon_start=1.0,
                       epsilon_end=0.05, epsilon_decay=0.995)
SECTIONS = dict(trust=TrustParams(eta=0.1, k=10.0, theta=0.5, v_init=0.0),
                guide=GuidanceParams(lambda_ad=1.0, lambda_pd=0.5))

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


# ---------------------------------------------------------------------------
# product_tables

ALL_INSTANCES = [(name, variant)
                 for name in ENV_NAMES for variant in ("source", "target")]

# reachable product rows: every env state, plus one row per further
# automaton state a warehouse dead sink is entered under
PRODUCT_ROWS = {
    ("blind_craftsman", "source"): 1560,
    ("blind_craftsman", "target"): 4357,
    ("dungeon_quest", "source"): 717,
    ("dungeon_quest", "target"): 1997,
    ("mountain_car_collection", "source"): 994,
    ("mountain_car_collection", "target"): 1630,
    ("warehouse_robotics", "source"): 10983,
    ("warehouse_robotics", "target"): 26491,
}


def test_product_reach_reports_terminal_mismatch():
    # Environment.step derives `done` from is_terminal, so a wrong
    # classification is no longer a disagreement inside the env: it shows
    # as accepting automaton states whose env states do not end the episode
    class BrokenDungeon(DungeonQuest):
        def is_terminal(self, state):
            return False

    spec = EnvSpec("dungeon_quest", parameters={
        "rows": 3, "cols": 3, "start": (2, 0), "key": (2, 1),
        "chest": (2, 2), "shield": (1, 2), "dragon": (0, 2),
    })
    env = BrokenDungeon(spec)
    tables, cdfa = compile_env(env), env.dfa.compiled()
    violations = product_violations(tables, cdfa,
                                    product_tables(tables, cdfa))
    assert violations
    assert all(v.startswith("terminal/accepting mismatch")
               for v in violations)


@pytest.mark.parametrize("name,variant", ALL_INSTANCES)
def test_product_rows_are_the_reachable_pairs(env_cache, name, variant):
    env = env_cache(name, variant)
    tables, cdfa = compile_env(env), env.dfa.compiled()
    product = product_tables(tables, cdfa)
    assert len(product.rows) == PRODUCT_ROWS[(name, variant)]
    assert np.all(np.diff(product.rows) > 0)
    assert set(product.rows.tolist()) == product_walk(tables, cdfa)
    n_q = cdfa.delta.shape[0]
    assert product.rows[product.start] == tables.start * n_q + cdfa.start


@pytest.mark.parametrize("name,variant", ALL_INSTANCES)
def test_product_tables_follow_env_and_automaton(env_cache, name, variant):
    env = env_cache(name, variant)
    tables, cdfa = compile_env(env), env.dfa.compiled()
    product = product_tables(tables, cdfa)
    n_q = cdfa.delta.shape[0]
    s, q = np.divmod(product.rows, n_q)
    assert np.array_equal(product.q_of, q)
    assert np.array_equal(product.stop, tables.terminal[s] | tables.dead[s])
    assert np.array_equal(product.dead, tables.dead[s])
    assert np.array_equal(product.reward, tables.reward[s])
    # along every live edge the successor row is the env successor under
    # the automaton state the edge's event leads to
    live = ~product.stop
    s2, q2 = np.divmod(product.rows[product.next[live]], n_q)
    assert np.array_equal(s2, tables.next_state[s[live]])
    assert np.array_equal(
        q2, cdfa.delta[q[live][:, None], tables.event[s[live]]])


def test_product_tables_are_built_once(dungeon_source,
                                       dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    first = product_tables(tables, cdfa)
    assert product_tables(tables, cdfa) is first
    # another compiled automaton is not the one the rows were built for
    rebuilt = product_tables(tables, CompiledDfa.from_dfa(dungeon_source.dfa))
    assert rebuilt is not first
    assert np.array_equal(rebuilt.rows, first.rows)


# ---------------------------------------------------------------------------
# training kernel


def _run(tables, cdfa, dense, mode, episodes=30, seed=11, **overrides):
    return run_training(tables, cdfa, dense, LEARN, episodes=episodes,
                        max_steps=120, seed=seed,
                        **{**SECTIONS, **mode, **overrides})


def test_training_output_shapes(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    res = _run(tables, cdfa, None, TEACHER_MODE, episodes=5)
    rows = product_tables(tables, cdfa).rows
    assert res.rows is rows
    assert res.q.shape == (len(rows), tables.n_actions)
    assert res.vol.shape == (len(rows), tables.n_actions)
    assert res.counts.shape == (len(rows), tables.n_actions)
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
    b = run_training(tables, cdfa, None, LEARN, episodes=30, max_steps=120,
                     seed=11, stream=1, **SECTIONS, **TEACHER_MODE)
    assert not np.array_equal(a.q, b.q)


def test_soft_bound_recording(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    res = run_training(tables, cdfa, None, LEARN, episodes=20, max_steps=120,
                       seed=11, bound=0.0, **SECTIONS, **TEACHER_MODE)
    assert res.n_soft_violations > SOFT_CAP
    steps = res.soft_violation_steps
    assert steps.shape == (SOFT_CAP,)
    assert np.all(np.diff(steps) > 0)
    assert steps[0] == 0
    assert res.max_abs_update > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_update_raises(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    # LEARN's fields, with an alpha that LearningParams would refuse
    learn = SimpleNamespace(**{**vars(LEARN), "alpha": 1e308, "gamma": 0.99})
    with pytest.raises(ValueError, match="diverged"):
        run_training(tables, cdfa, None, learn, episodes=200, max_steps=120,
                     seed=11, **SECTIONS, **TEACHER_MODE)


def test_run_training_validation(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    kw = {**SECTIONS, **TEACHER_MODE}
    with pytest.raises(ValueError):
        run_training(tables, cdfa, None, LEARN, episodes=0, max_steps=10,
                     seed=1, **kw)
    with pytest.raises(ValueError):
        run_training(tables, cdfa, None, LEARN, episodes=1, max_steps=0,
                     seed=1, **kw)


# ---------------------------------------------------------------------------
# the kernel against the loop it replaced

# few distinct values, so rows tie; negative ones, so the greedy entry of a
# row falls and the row is rescanned
VALUES = st.sampled_from([-1.0, -0.5, 0.0, 0.0, 0.25, 1.0])


@st.composite
def kernel_cases(draw):
    n_s = draw(st.integers(1, 5))
    n_a = draw(st.integers(1, 4))
    n_q = draw(st.integers(1, 3))
    n_ev = draw(st.integers(1, 3))

    def ints(n, hi, dtype):
        return np.array(draw(st.lists(st.integers(0, hi - 1), min_size=n,
                                      max_size=n)), dtype=dtype)

    def floats(n, elements=VALUES):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)),
                        dtype=np.float64)

    def bools(n):
        return np.array(draw(st.lists(st.booleans(), min_size=n,
                                      max_size=n)), dtype=np.bool_)

    tables = dict(
        next_state=ints(n_s * n_a, n_s, np.int32),
        reward=floats(n_s * n_a), event=ints(n_s * n_a, n_ev, np.int16),
        terminal=bools(n_s), dead=bools(n_s),
        delta=ints(n_q * n_ev, n_q, np.int32), accepting=bools(n_q),
        q_ad=floats(n_q * n_q), q_ad_known=bools(n_q * n_q),
        pi_teacher=floats(n_q * n_a, st.floats(0.0, 1.0)),
        pi_known=bools(n_q))
    scalars = dict(
        start=draw(st.integers(0, n_s - 1)),
        q_start=draw(st.integers(0, n_q - 1)),
        alpha=draw(st.sampled_from([0.1, 0.5, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.9, 1.0])),
        eps_start=draw(st.sampled_from([0.0, 0.3, 1.0])),
        eps_end=draw(st.sampled_from([0.0, 0.05])),
        eps_decay=draw(st.sampled_from([0.5, 0.99])),
        eta=draw(st.sampled_from([0.1, 0.5])), gate_k=10.0,
        theta=draw(st.sampled_from([0.0, 0.5])),
        lam_ad=draw(st.sampled_from([0.0, 1.0])),
        lam_pd=draw(st.sampled_from([0.0, 0.5])),
        use_gate=draw(st.booleans()),
        omega_fixed=draw(st.sampled_from([0.0, 0.5, 1.0])),
        use_guidance=draw(st.booleans()),
        max_steps=draw(st.integers(1, 12)),
        bound=draw(st.sampled_from([math.inf, 0.2])))
    return (tables, scalars, n_a, draw(st.integers(1, 6)),
            draw(st.integers(0, 2**32)))


def _buffers(n_rows, n_a, episodes, seed):
    """Fresh reference outputs over n_rows rows, in its argument order."""
    return dict(rng=state_from(seed),
                q=np.zeros(n_rows * n_a), vol=np.full(n_rows * n_a, 0.25),
                counts=np.zeros(n_rows * n_a, dtype=np.int64),
                ep_reward=np.zeros(episodes),
                ep_steps=np.zeros(episodes, dtype=np.int64),
                ep_accept=np.zeros(episodes, dtype=np.bool_),
                soft_steps=np.full(4, -1, dtype=np.int64))


def _bits(out, diagnostics):
    """The outputs, the RNG state and the returned diagnostics, as bytes
    where they are floats."""
    novel, max_abs, n_soft = diagnostics
    return ({k: v.tobytes() for k, v in out.items()},
            (novel, np.float64(max_abs).tobytes(), n_soft))


_KNOWLEDGE = ("q_ad", "q_ad_known", "pi_teacher", "pi_known")


def _run_reference(tables, scalars, n_a, episodes, seed):
    n_rows = len(tables["terminal"]) * len(tables["accepting"])
    out = _buffers(n_rows, n_a, episodes, seed)
    first = tuple(tables[k] for k in (
        "next_state", "reward", "event", "terminal", "dead", "delta",
        "accepting") + _KNOWLEDGE)
    diagnostics = reference_train_run(
        *(memoryview(x) for x in first + tuple(out.values())), **scalars)
    # the soft-violation steps it recorded, as RunResult keeps them
    out["soft_steps"] = out["soft_steps"][:diagnostics[2]]
    return _bits(out, diagnostics)


def _run_product_kernel(tables, scalars, n_a, episodes, seed):
    """run_training over the case's product tables, with a soft-violation
    cap of 4 and its Q, volatility and counts scattered to the reference's
    dense layout."""
    n_s, n_q = len(tables["terminal"]), len(tables["accepting"])
    sc = SimpleNamespace(**scalars)
    env_tables = SimpleNamespace(
        next_state=tables["next_state"].reshape(n_s, n_a),
        reward=tables["reward"].reshape(n_s, n_a),
        event=tables["event"].reshape(n_s, n_a),
        terminal=tables["terminal"], dead=tables["dead"], start=sc.start,
        n_actions=n_a)
    cdfa = SimpleNamespace(delta=tables["delta"].reshape(n_q, -1),
                           accepting=tables["accepting"], start=sc.q_start)
    learn = SimpleNamespace(alpha=sc.alpha, gamma=sc.gamma,
                            epsilon_start=sc.eps_start,
                            epsilon_end=sc.eps_end,
                            epsilon_decay=sc.eps_decay)
    trust = SimpleNamespace(eta=sc.eta, k=sc.gate_k, theta=sc.theta,
                            v_init=0.25)
    guide = SimpleNamespace(lambda_ad=sc.lam_ad, lambda_pd=sc.lam_pd)
    with mock.patch.object(kernels, "SOFT_CAP", 4):
        run = run_training(
            env_tables, cdfa, tuple(tables[k] for k in _KNOWLEDGE), learn,
            episodes=episodes, max_steps=sc.max_steps, seed=seed,
            trust=trust, guide=guide, use_gate=sc.use_gate,
            omega_fixed=sc.omega_fixed, use_guidance=sc.use_guidance,
            bound=sc.bound)
    dense = dense_run(run, n_s, 0.25)
    out = dict(rng=np.array(run.rng_words, dtype=np.int64),
               q=dense.q.ravel(), vol=dense.vol.ravel(),
               counts=dense.counts.ravel(), ep_reward=run.ep_reward,
               ep_steps=run.ep_steps, ep_accept=run.ep_accept,
               soft_steps=run.soft_violation_steps)
    return _bits(out, (run.novel_transitions, run.max_abs_update,
                       run.n_soft_violations))


def _loop_case(next_state, reward, seed, **scalars):
    """A one-automaton-state case over n env states and two actions."""
    n_s = len(next_state) // 2
    tables = dict(
        next_state=np.array(next_state, dtype=np.int32),
        reward=np.array(reward), event=np.zeros(2 * n_s, dtype=np.int16),
        terminal=np.zeros(n_s, dtype=np.bool_),
        dead=np.zeros(n_s, dtype=np.bool_), delta=np.zeros(1, dtype=np.int32),
        accepting=np.zeros(1, dtype=np.bool_), q_ad=np.zeros(1),
        q_ad_known=np.zeros(1, dtype=np.bool_), pi_teacher=np.zeros(2),
        pi_known=np.zeros(1, dtype=np.bool_))
    base = dict(start=0, q_start=0, alpha=0.5, gamma=0.9, eps_start=0.0,
                eps_end=0.0, eps_decay=0.5, eta=0.1, gate_k=10.0, theta=0.5,
                lam_ad=1.0, lam_pd=0.5, use_gate=False, omega_fixed=1.0,
                use_guidance=False, max_steps=12, bound=math.inf)
    return tables, {**base, **scalars}, 2, 3, seed


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
# every reward negative: each greedy entry falls and its row is rescanned
@example(_loop_case([0, 1, 1, 0], [-1.0] * 4, seed=5))
# action 1 explored to 1.0, then action 0 explored to 1.0: the tie goes back
# to action 0, and the next greedy step takes it
@example(_loop_case([0, 0], [1.0, 1.0], seed=4, alpha=1.0, gamma=0.0,
                    eps_start=1.0, max_steps=4))
def test_train_run_matches_reference_kernel(case):
    # the kernel walks the product rows reachable from the case's random
    # start pair; the reference loop indexes every (s, q) pair
    tables, scalars, n_a, episodes, seed = case
    got = _run_product_kernel(tables, scalars, n_a, episodes, seed)
    want = _run_reference(tables, scalars, n_a, episodes, seed)
    assert got == want


# ---------------------------------------------------------------------------
# greedy rollout


def test_greedy_rollout_optimal_policy_accepts(dungeon_source,
                                               dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    q = value_iteration(tables, cdfa, gamma=0.99)
    q = q[product_tables(tables, cdfa).rows]
    accepted, steps, total = greedy_rollout(tables, cdfa, q,
                                            dungeon_source.max_steps)
    assert accepted
    golden = golden_actions(dungeon_source)
    _, g_steps, g_total, _ = run_actions(dungeon_source, golden)
    assert steps <= g_steps
    assert total >= g_total - 1e-9


def test_greedy_rollout_detects_loops(dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    n_rows = len(product_tables(tables, cdfa).rows)
    q = np.zeros((n_rows, tables.n_actions))
    accepted, steps, _ = greedy_rollout(tables, cdfa, q, 10**6)
    assert not accepted
    assert steps <= n_rows


def test_a_dead_accepting_row_does_not_accept():
    # the one action dies in env state 1 on the event that takes the
    # automaton to its accepting state: training and the rollout both
    # end the episode there, and neither counts it as accepted
    product = toy_product([[1], [1]], [[1.0], [0.0]], event=[[1], [0]],
                          delta=[[0, 1], [1, 1]], accepting=[1], dead=[1])
    res = toy_run(product, max_steps=5)
    assert res.ep_steps.tolist() == [1]
    assert res.ep_accept.tolist() == [False]
    assert greedy_rollout(*product, res.q, 5) == (False, 1, 1.0)


def test_greedy_rollout_respects_budget(dungeon_source,
                                        dungeon_source_tables):
    tables, cdfa = dungeon_source_tables
    q = value_iteration(tables, cdfa, gamma=0.99)
    q = q[product_tables(tables, cdfa).rows]
    accepted, steps, _ = greedy_rollout(tables, cdfa, q, 3)
    assert not accepted
    assert steps == 3
