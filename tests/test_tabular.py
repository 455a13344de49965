"""The `--qtable-out` file and softmax, and the kernel's TD arithmetic, Q
update and exploration on hand-built products."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadent.automaton import ProductState, make_dfa
from cadent.envs.tables import product_tables
from cadent.kernels import argmax, greedy_rollout, run_training
from cadent.rng import RandomState, state_from
from cadent.tabular import LearningParams, softmax_policy
from cadent.teacher import _key_to_json, save_qtable

from oracles import (LAST_UPDATE, dict_value_iteration, kernel_pull,
                     naive_softmax, read_qtable, row_of, toy_product, toy_run,
                     toy_teacher)


def test_argmax_tie_breaks_low():
    assert argmax(np.zeros(4)) == 0
    assert argmax(np.array([0.0, 0.0, 5.0, 5.0])) == 2


# The kernel's TD error and Q update. Q starts at zero; alpha 1 sets a
# pair to its target, and a later episode finds that value in place. The
# LAST_UPDATE trace holds each pair's last |TD error|.


def test_td_error_zero_table():
    # env state 0 steps to 1 with reward 1.0, and the episode goes on
    product = toy_product([[1, 0], [1, 1]], [[1.0, 0.0], [0.0, 0.0]])
    res = toy_run(product, trust=LAST_UPDATE, gamma=0.99, max_steps=2)
    assert res.vol[0, 0] == 1.0
    assert res.q[0, 0] == 1.0


def test_td_error_bootstrap_arithmetic():
    # 0 -> 1 -> terminal 2, reward 1.0 each: the first episode sets both
    # pairs to 1.0, the second bootstraps from Q(1, 0)
    product = toy_product([[1], [2], [2]], [[1.0], [1.0], [0.0]],
                          terminal=[2])
    res = toy_run(product, trust=LAST_UPDATE, gamma=0.9, episodes=2,
                  max_steps=2)
    got = res.vol[0, 0]
    assert got == 1.0 + 0.9 * 1.0 - 1.0
    assert abs(got - 0.9) < 1e-9
    assert res.q[0, 0] == 1.0 + got


def test_td_error_terminal_no_bootstrap():
    # a bump back into env state 0 with reward 10.0 on an episode's only
    # step: Q(0, 0) is 4.0 after the first episode at alpha 0.4, and the
    # second does not bootstrap from it
    product = toy_product([[0]], [[10.0]])
    res = toy_run(product, trust=LAST_UPDATE, alpha=0.4, gamma=0.99,
                  episodes=2)
    assert res.vol[0, 0] == 6.0
    assert res.q[0, 0] == 4.0 + 0.4 * 6.0


def test_q_update_arithmetic():
    res = toy_run(toy_product([[0]], [[1.0]]), alpha=0.1)
    assert res.q[0, 0] == 0.1


def test_q_update_zero_delta_identity():
    # the second episode's TD error is 0: Q(0, 0) stays at its target
    res = toy_run(toy_product([[0]], [[0.7]]), trust=LAST_UPDATE,
                  episodes=2)
    assert res.vol[0, 0] == 0.0
    assert res.q[0, 0] == 0.7


def test_q_update_alpha_one_sets_target():
    # 0 -> 1 -> terminal 2: the first episode sets Q(0, 0) to 3.0 and
    # Q(1, 0) to -8.5, so the second's target is 3.0 + 0.5 * -8.5
    product = toy_product([[1], [2], [2]], [[3.0], [-8.5], [0.0]],
                          terminal=[2])
    assert toy_run(product, gamma=0.5, max_steps=2).q[0, 0] == 3.0
    res = toy_run(product, gamma=0.5, episodes=2, max_steps=2)
    assert res.q[0, 0] == -1.25


def test_q_update_rejects_non_finite_result():
    with pytest.raises(ValueError, match="non-finite update"):
        toy_run(toy_product([[0]], [[float("nan")]]), alpha=0.1)


def test_q_learning_fixed_point_matches_value_iteration():
    # two-state deterministic MDP: at alpha 1 every update is a VI backup
    transitions = {("s0", 0): "s1", ("s0", 1): "s0",
                   ("s1", 0): "t", ("s1", 1): "s0"}
    rewards = {("s0", 0): 0.0, ("s0", 1): -1.0,
               ("s1", 0): 5.0, ("s1", 1): 0.0}
    terminal = {"t"}
    gamma = 0.9
    oracle = dict_value_iteration(transitions, rewards, terminal, gamma)
    index = {"s0": 0, "s1": 1, "t": 2}
    product = toy_product(
        [[index[transitions[(s, a)]] for a in (0, 1)] for s in ("s0", "s1")]
        + [[2, 2]],
        [[rewards[(s, a)] for a in (0, 1)] for s in ("s0", "s1")]
        + [[0.0, 0.0]], terminal=[2])
    res = toy_run(product, gamma=gamma, epsilon=1.0, episodes=200,
                  max_steps=200, seed=1)
    for (s, a), val in oracle.items():
        assert abs(res.q[row_of(res, index[s]), a] - val) < 1e-6


def test_softmax_uniform_row():
    out = softmax_policy(np.zeros(4), 1.0)
    assert np.allclose(out, 0.25, atol=1e-12)


def test_softmax_high_temperature_flattens():
    out = softmax_policy(np.array([1.0, 0.0]), 100.0)
    assert abs(out[0] - 0.5) < 0.01
    assert abs(out[1] - 0.5) < 0.01


def test_softmax_matches_direct_formula():
    row = np.array([2.0, 1.0, 0.0])
    got = softmax_policy(row, 1.0)
    want = naive_softmax(row, 1.0)
    assert np.abs(got - np.array(want)).max() < 1e-9


def test_softmax_extreme_magnitudes_normalized():
    for row in ([1e6, 0.0, -1e6], [-1e6, -1e6 + 1], [1e6, 1e6]):
        out = softmax_policy(np.array(row, dtype=np.float64), 2.0)
        assert np.all(out >= 0.0)
        assert abs(float(out.sum()) - 1.0) < 1e-9
        assert np.all(np.isfinite(out))


def test_softmax_shift_invariance():
    rng = RandomState(21)
    for _ in range(200):
        n = 2 + rng.randint(6)
        row = np.array([rng.uniform() * 20 - 10 for _ in range(n)])
        shift = rng.uniform() * 200 - 100
        tau = 0.5 + rng.uniform() * 4.5
        a = softmax_policy(row, tau)
        b = softmax_policy(row + shift, tau)
        assert np.abs(a - b).max() < 1e-9


def test_softmax_policy_at_unit_temperature_is_the_kernel_softmax():
    # one softmax: the distilled policy (tau 1) and the kernel's pull on
    # the student's row agree bit for bit, ties and all, at the row's
    # greedy action and off it. Against a teacher probability of 0 at
    # weight 1 the pull is minus the student's softmax probability
    # (oracles.kernel_pull, which reads it where the row is 0)
    def kernel_prob(row, a):
        return np.float64(-kernel_pull(np.zeros(len(row)), 1.0, row, a))

    # tied rows, at the greedy action (ties go low) and off it
    for row, a in (([2.0, 0.0, 2.0], 1), ([0.0, 0.0, -1.0], 1),
                   ([0.0, 0.0], 0), ([-1.5, 0.0, 3.0, 3.0], 1)):
        row = np.array(row)
        assert softmax_policy(row, 1.0)[a] == kernel_prob(row, a)
    rng = np.random.default_rng(0x50F7)
    off_greedy = ties = 0
    for i in range(4000):
        n = int(rng.integers(1, 9))
        row = (rng.uniform(-50.0, 50.0, n) if i % 2
               else rng.integers(-3, 4, n).astype(np.float64))
        a = int(rng.integers(n))
        row[a] = 0.0
        got = kernel_prob(row, a).tobytes()
        assert softmax_policy(row, 1.0)[a].tobytes() == got, (row, a)
        off_greedy += a != argmax(row)
        ties += int(np.sum(row == row.max())) > 1
    assert off_greedy > 2000 and ties > 400, (off_greedy, ties)


def test_softmax_rejects_bad_tau():
    with pytest.raises(ValueError):
        softmax_policy(np.zeros(2), 0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(0.1, 10.0))
def test_softmax_distribution_property(row, tau):
    # entries far below the max may underflow to exactly 0.0 in float64
    out = softmax_policy(np.array(row, dtype=np.float64), tau)
    assert np.all(out >= 0.0)
    assert out[int(np.argmax(row))] > 0.0
    assert abs(float(out.sum()) - 1.0) < 1e-9


# The kernel's epsilon-greedy choice: one draw decides explore/exploit,
# one more picks the explored action; at epsilon 0 it draws nothing.

_FOUR_WAY = toy_product([[1] * 4, [1] * 4], [[-1.0, 5.0, 0.0, 0.0],
                                              [0.0] * 4], terminal=[1])


def test_epsilon_greedy_pure_greedy():
    # the first episode tries action 0 (-1.0), the second action 1 (5.0),
    # which the third then picks
    res = toy_run(_FOUR_WAY, episodes=3, seed=1)
    assert res.q[0].tolist() == [-1.0, 5.0, 0.0, 0.0]
    assert res.counts[0].tolist() == [1, 2, 0, 0]


def test_epsilon_greedy_zero_row_tie_break():
    res = toy_run(_FOUR_WAY, seed=1)
    assert res.counts[0].tolist() == [1, 0, 0, 0]


def test_epsilon_greedy_zero_epsilon_consumes_no_randomness():
    res = toy_run(_FOUR_WAY, episodes=3, seed=8)
    assert list(res.rng_words) == state_from(8).tolist()
    res = toy_run(_FOUR_WAY, epsilon=0.5, seed=8)
    assert list(res.rng_words) != state_from(8).tolist()


def test_explored_action_that_ties_the_greedy_one_does_not_take_over():
    # the first episode explores (epsilon 1, then decayed to 0): its step
    # leaves Q at 0, a tie with the greedy action 0, which the greedy
    # second episode must still take, ties going to the lower action
    learn = SimpleNamespace(alpha=1.0, gamma=0.0, epsilon_start=1.0,
                            epsilon_end=0.0, epsilon_decay=0.0)
    zero = toy_product([[1] * 4, [1] * 4], np.zeros((2, 4)), terminal=[1])
    explored = set()
    for seed in range(1, 11):
        res = run_training(*zero, None, learn, episodes=2, max_steps=1,
                           seed=seed)
        assert res.counts[0, 0] >= 1, (seed, res.counts[0])
        explored |= set(np.flatnonzero(res.counts[0][1:]) + 1)
    assert explored == {1, 2, 3}


def test_epsilon_greedy_uniform_at_full_exploration():
    # 1e5 one-step episodes; each action count within 3 sigma of the
    # binomial mean
    n = 100000
    res = toy_run(_FOUR_WAY, epsilon=1.0, episodes=n, seed=404)
    mean = n / 4
    sigma = math.sqrt(n * 0.25 * 0.75)
    for c in res.counts[0]:
        assert abs(c - mean) <= 3 * sigma


# The kernel's greedy policy: `greedy_rollout` follows argmax of each row.

def _rollout(product, values, max_steps=10):
    """greedy_rollout over `product` of the table {(env state, action):
    value} (automaton state 0, every other entry 0)."""
    tables, cdfa = product
    rows = product_tables(tables, cdfa).rows
    q = np.zeros((len(rows), tables.n_actions))
    n_q = len(cdfa.delta)
    for (s, a), v in values.items():
        q[int(np.searchsorted(rows, s * n_q)), a] = v
    return greedy_rollout(tables, cdfa, q, max_steps)


def test_greedy_policy_empty():
    # from 0, action 0 earns 1.0 on to 1 and 1 bumps on action 0 (2.0); any
    # other action would earn 100.0
    product = toy_product([[1, 1, 1], [1, 0, 0]],
                          [[1.0, 100.0, 100.0], [2.0, 100.0, 100.0]])
    assert _rollout(product, {}) == (False, 2, 3.0)


def test_greedy_policy_single_state():
    # action 1 reaches the accepting automaton state, action 0 bumps
    product = toy_product([[0, 1], [1, 1]], [[0.0, 2.0], [0.0, 0.0]],
                          event=[[0, 1], [0, 0]], delta=[[0, 1], [1, 1]],
                          accepting=[1])
    assert _rollout(product, {(0, 0): 0.0, (0, 1): 2.0}) == (True, 1, 2.0)


def test_greedy_policy_matches_value_iteration_on_toy_mdp():
    # three-state corridor: going right is optimal everywhere
    transitions = {("s0", 0): "s0", ("s0", 1): "s1",
                   ("s1", 0): "s0", ("s1", 1): "s2",
                   ("s2", 0): "s1", ("s2", 1): "t"}
    rewards = {(s, a): -0.1 for (s, a) in transitions}
    rewards[("s2", 1)] = 10.0
    oracle = dict_value_iteration(transitions, rewards, {"t"}, 0.9)
    index = {"s0": 0, "s1": 1, "s2": 2, "t": 3}
    product = toy_product(
        [[index[transitions[(s, a)]] for a in (0, 1)]
         for s in ("s0", "s1", "s2")] + [[3, 3]],
        [[rewards[(s, a)] for a in (0, 1)] for s in ("s0", "s1", "s2")]
        + [[0.0, 0.0]],
        event=[[0, 0], [0, 0], [0, 1], [0, 0]], terminal=[3],
        delta=[[0, 1], [1, 1]], accepting=[1])
    values = {(index[s], a): v for (s, a), v in oracle.items()}
    accepted, steps, total = _rollout(product, values)
    assert (accepted, steps) == (True, 3)
    assert total == pytest.approx(-0.1 - 0.1 + 10.0, abs=1e-12)


def test_learning_params_validation():
    with pytest.raises(ValueError):
        LearningParams(alpha=0.0)
    with pytest.raises(ValueError):
        LearningParams(gamma=1.0)
    with pytest.raises(ValueError):
        LearningParams(epsilon_end=0.5, epsilon_start=0.1)
    with pytest.raises(ValueError):
        LearningParams(epsilon_decay=0.0)
    with pytest.raises(ValueError):
        LearningParams(tau=0.0)
    assert LearningParams().with_(alpha=0.2).alpha == 0.2


def test_learning_params_json_round_trip():
    p = LearningParams(alpha=0.3, tau=1.5)
    assert LearningParams.from_json(p.to_json()) == p


_CHAIN = make_dfa(("q0", "acc"), ("a",), "q0", {"acc"},
                  {("q0", "a"): "acc"})


def _save_toy_qtable(path, table):
    """save_qtable of a run that updated each pair of `table` once."""
    save_qtable(*toy_teacher(_CHAIN, table, 3,
                             visits=dict.fromkeys(table, 1)), path)


def test_qtable_save_load_round_trip(tmp_path):
    # env states of nested tuples and JSON scalars come back as they were
    table = {(ProductState(("r", 2), "q0"), 1): -0.5,
             (ProductState((1, 2, 3), "acc"), 0): 2.0,
             (ProductState("plain", "q0"), 2): 0.125,
             (ProductState((None, True, 1.5), "q0"), 1): 7.0}
    path = tmp_path / "q.json"
    _save_toy_qtable(path, table)
    assert read_qtable(path) == table


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_qtable_save_rejects_non_finite_value(tmp_path, value):
    path = tmp_path / "q.json"
    with pytest.raises(ValueError):
        _save_toy_qtable(path, {(ProductState("s", "q0"), 0): value})
    assert not path.exists()


def _truncate(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    return path


def test_config_load_names_the_file_of_truncated_json(tmp_path):
    path = tmp_path / "learn.json"
    LearningParams().save(path)
    with pytest.raises(ValueError, match=(
            f"^{re.escape(str(_truncate(path)))}: not valid JSON: ")):
        LearningParams.load(path)


def test_config_load_names_the_file_of_non_object_json(tmp_path):
    path = tmp_path / "learn.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match=(
            f"^{re.escape(str(path))}: learning params must be a JSON object, "
            f"not list$")):
        LearningParams.load(path)


def test_qtable_save_rejects_unserializable_key(tmp_path):
    with pytest.raises(TypeError, match="is not serializable"):
        _key_to_json(object())
    path = tmp_path / "bad.json"
    with pytest.raises(TypeError):
        _save_toy_qtable(path, {(ProductState(("fine", object()), "q0"), 0):
                                1.0})
    assert not path.exists()
