"""Sparse Q-table, TD arithmetic, softmax, and exploration primitives."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadent.rng import RandomState
from cadent.tabular import (LearningParams, QTable, epsilon_greedy,
                            greedy_policy, load_qtable, q_update,
                            save_qtable, softmax_policy, td_error)

from oracles import dict_value_iteration, naive_softmax


def test_default_read_is_zero_and_does_not_insert():
    qt = QTable(4)
    assert qt.get("s", 2) == 0.0
    assert len(qt) == 0


def test_set_get_round_trip():
    qt = QTable(4)
    qt.set(("s", 1), 3, -2.5)
    assert qt.get(("s", 1), 3) == -2.5
    assert len(qt) == 1


def test_set_rejects_out_of_range_action():
    qt = QTable(2)
    with pytest.raises(ValueError):
        qt.set("s", 2, 1.0)
    with pytest.raises(ValueError):
        qt.set("s", -1, 1.0)


@pytest.mark.parametrize("action", [1.9, 1.0, True, False, "1", None])
def test_set_rejects_non_integer_action(action):
    # a float key is never read, and True would alias action 1
    qt = QTable(2)
    with pytest.raises(ValueError, match=(
            f"^action {re.escape(repr(action))} is not an integer$")):
        qt.set("s", action, 2.0)
    assert len(qt) == 0
    qt.set("s", np.int64(1), 2.0)
    assert qt.row("s").tolist() == [0.0, 2.0]


def test_set_rejects_non_finite():
    qt = QTable(2)
    with pytest.raises(ValueError):
        qt.set("s", 0, float("nan"))
    with pytest.raises(ValueError):
        qt.set("s", 0, float("inf"))


def test_n_actions_guard():
    with pytest.raises(ValueError):
        QTable(0)


def test_row_and_max_value():
    qt = QTable(3)
    qt.set("s", 1, 2.0)
    assert list(qt.row("s")) == [0.0, 2.0, 0.0]
    assert qt.max_value("s") == 2.0
    assert qt.max_value("unseen") == 0.0


def test_argmax_tie_breaks_low():
    qt = QTable(4)
    assert qt.argmax("zero-row") == 0
    qt.set("s", 2, 5.0)
    qt.set("s", 3, 5.0)
    assert qt.argmax("s") == 2


def test_states_insertion_order_and_copy_eq():
    qt = QTable(2)
    qt.set("b", 0, 1.0)
    qt.set("a", 1, 2.0)
    qt.set("b", 1, 3.0)
    assert qt.states() == ["b", "a"]
    dup = qt.copy()
    assert dup == qt
    dup.set("c", 0, 4.0)
    assert dup != qt


def test_td_error_zero_table():
    qt = QTable(2)
    assert td_error(qt, "s", 0, 1.0, "s2", False, 0.99) == 1.0


def test_td_error_bootstrap_arithmetic():
    qt = QTable(2)
    qt.set("s", 0, 1.0)
    qt.set("s2", 1, 1.0)
    got = td_error(qt, "s", 0, 1.0, "s2", False, 0.9)
    assert got == 1.0 + 0.9 * 1.0 - 1.0
    assert abs(got - 0.9) < 1e-9


def test_td_error_terminal_no_bootstrap():
    qt = QTable(2)
    qt.set("s", 0, 4.0)
    qt.set("s2", 0, 100.0)
    assert td_error(qt, "s", 0, 10.0, "s2", True, 0.99) == 6.0


def test_q_update_arithmetic():
    qt = QTable(1)
    q_update(qt, "s", 0, 1.0, 0.1)
    assert qt.get("s", 0) == 0.1


def test_q_update_zero_delta_identity():
    qt = QTable(1)
    qt.set("s", 0, 0.7)
    q_update(qt, "s", 0, 0.0, 0.5)
    assert qt.get("s", 0) == 0.7


def test_q_update_alpha_one_sets_target():
    qt = QTable(1)
    qt.set("s", 0, 3.0)
    target = -1.25
    q_update(qt, "s", 0, target - qt.get("s", 0), 1.0)
    assert qt.get("s", 0) == target


def test_q_update_rejects_non_finite_result():
    qt = QTable(1)
    with pytest.raises(ValueError):
        q_update(qt, "s", 0, float("nan"), 0.1)


def test_q_learning_fixed_point_matches_value_iteration():
    # two-state deterministic MDP: alpha=1 sweeps are exactly the VI backup
    transitions = {("s0", 0): "s1", ("s0", 1): "s0",
                   ("s1", 0): "t", ("s1", 1): "s0"}
    rewards = {("s0", 0): 0.0, ("s0", 1): -1.0,
               ("s1", 0): 5.0, ("s1", 1): 0.0}
    terminal = {"t"}
    gamma = 0.9
    oracle = dict_value_iteration(transitions, rewards, terminal, gamma)
    qt = QTable(2)
    for _ in range(200):
        for (s, a), s2 in transitions.items():
            done = s2 in terminal
            delta = td_error(qt, s, a, rewards[(s, a)], s2, done, gamma)
            q_update(qt, s, a, delta, 1.0)
    for key, val in oracle.items():
        assert abs(qt.get(*key) - val) < 1e-6


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


def test_epsilon_greedy_pure_greedy():
    qt = QTable(4)
    for a, v in enumerate((0.0, 5.0, 0.0, 0.0)):
        qt.set("s", a, v)
    rng = RandomState(1)
    assert epsilon_greedy(qt, "s", 0.0, rng) == 1


def test_epsilon_greedy_zero_row_tie_break():
    qt = QTable(4)
    rng = RandomState(1)
    assert epsilon_greedy(qt, "s", 0.0, rng) == 0


def test_epsilon_greedy_zero_epsilon_consumes_no_randomness():
    qt = QTable(4)
    rng = RandomState(8)
    before = list(rng.state)
    epsilon_greedy(qt, "s", 0.0, rng)
    assert list(rng.state) == before


def test_epsilon_greedy_uniform_at_full_exploration():
    # 1e5 draws; each action count within 3 sigma of the binomial mean
    qt = QTable(4)
    rng = RandomState(404)
    n = 100000
    counts = [0, 0, 0, 0]
    for _ in range(n):
        counts[epsilon_greedy(qt, "s", 1.0, rng)] += 1
    mean = n / 4
    sigma = math.sqrt(n * 0.25 * 0.75)
    for c in counts:
        assert abs(c - mean) <= 3 * sigma


def test_greedy_policy_empty():
    assert greedy_policy(QTable(3)) == {}


def test_greedy_policy_single_state():
    qt = QTable(2)
    qt.set("s", 0, 0.0)
    qt.set("s", 1, 2.0)
    assert greedy_policy(qt) == {"s": 1}


def test_greedy_policy_matches_value_iteration_on_toy_mdp():
    # three-state corridor: going right is optimal everywhere
    transitions = {("s0", 0): "s0", ("s0", 1): "s1",
                   ("s1", 0): "s0", ("s1", 1): "s2",
                   ("s2", 0): "s1", ("s2", 1): "t"}
    rewards = {(s, a): -0.1 for (s, a) in transitions}
    rewards[("s2", 1)] = 10.0
    oracle = dict_value_iteration(transitions, rewards, {"t"}, 0.9)
    qt = QTable(2)
    for (s, a), v in oracle.items():
        qt.set(s, a, v)
    assert greedy_policy(qt) == {"s0": 1, "s1": 1, "s2": 1}


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


def test_qtable_save_load_round_trip(tmp_path):
    qt = QTable(3)
    qt.set((("r", 2), "q0"), 1, -0.5)
    qt.set((1, 2, 3), 0, 2.0)
    qt.set("plain", 2, 0.125)
    qt.set((None, True, 1.5), 1, 7.0)
    path = tmp_path / "q.json"
    save_qtable(qt, path)
    assert load_qtable(path) == qt


def test_qtable_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"format": "nope"}))
    with pytest.raises(ValueError):
        load_qtable(path)


@pytest.mark.parametrize("payload", [[1, 2], "cadent-qtable", 3, None])
def test_qtable_load_rejects_a_payload_that_is_not_an_object(tmp_path,
                                                            payload):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=(
            f"^{re.escape(str(path))}: not a cadent-qtable file$")):
        load_qtable(path)


def test_qtable_load_rejects_count_mismatch(tmp_path):
    qt = QTable(2)
    qt.set("s", 0, 1.0)
    path = tmp_path / "c.json"
    save_qtable(qt, path)
    payload = json.loads(path.read_text())
    payload["n_entries"] = 5
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_qtable(path)


@pytest.mark.parametrize("mutate", [
    lambda p: p.pop("n_actions"),
    lambda p: p["entries"][0].pop("value"),
    lambda p: p.update(entries=5, n_entries=5),
    lambda p: p["entries"][0].update(state=3),
], ids=["no-n-actions", "entry-without-value", "entries-not-array",
        "state-not-object"])
def test_qtable_load_names_the_file_of_a_malformed_payload(tmp_path, mutate):
    qt = QTable(2)
    qt.set("s", 0, 1.0)
    path = tmp_path / "m.json"
    save_qtable(qt, path)
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=(
            f"^{re.escape(str(path))}: malformed qtable payload: ")):
        load_qtable(path)


def _repeat_entry(payload):
    payload["entries"].append(dict(payload["entries"][0], value=2.0))
    payload["n_entries"] += 1


@pytest.mark.parametrize("mutate", [
    lambda p: p.update(n_actions=2.7),
    lambda p: p.update(n_actions=True),
    lambda p: p.update(n_actions=0),
    lambda p: p["entries"][0].update(action=1.9),
    lambda p: p["entries"][0].update(action=True),
    lambda p: p["entries"][0].update(action=2),
    lambda p: p["entries"][0].update(value="1.0"),
    lambda p: p["entries"][0].update(value=float("nan")),
    _repeat_entry,
], ids=["float-n-actions", "bool-n-actions", "zero-n-actions",
        "float-action", "bool-action", "action-out-of-range", "string-value",
        "nan-value", "repeated-entry"])
def test_qtable_load_names_the_file_of_a_bad_entry(tmp_path, mutate):
    # a float count or action once loaded, truncated or stored under the
    # float key, and a repeated entry replaced the first
    qt = QTable(2)
    qt.set("s", 0, 1.0)
    path = tmp_path / "e.json"
    save_qtable(qt, path)
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_qtable(path)


def _truncate(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    return path


def test_qtable_load_names_the_file_of_truncated_json(tmp_path):
    qt = QTable(2)
    qt.set("s", 0, 1.0)
    path = tmp_path / "t.json"
    save_qtable(qt, path)
    with pytest.raises(ValueError, match=(
            f"^{re.escape(str(_truncate(path)))}: not valid JSON: ")):
        load_qtable(path)


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
    qt = QTable(2)
    qt.set(("fine",), 0, 1.0)
    qt._data[(object(), 0)] = 1.0  # bypass set() to plant a bad key
    with pytest.raises(TypeError):
        save_qtable(qt, tmp_path / "bad.json")
