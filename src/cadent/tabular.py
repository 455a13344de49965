"""Sparse tabular value learning primitives.

QTable is a plain mapping from (state, action) to float with an explicit
default of 0.0: reads of absent keys return 0.0 and never insert. States may
be any hashable built from JSON-able scalars and (nested) tuples, which is
what the serializer relies on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .files import Config, is_integer, is_number, read_json, write_atomic
from .kernels import argmax

QTABLE_FORMAT = "cadent-qtable"
QTABLE_VERSION = 1


@dataclass(frozen=True)
class LearningParams(Config):
    alpha: float = 0.1
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.995
    tau: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must be in [0, 1)")
        if not (0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0):
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not (0.0 < self.epsilon_decay <= 1.0):
            raise ValueError("epsilon_decay must be in (0, 1]")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")


class QTable:
    """Sparse action-value table over a fixed discrete action set."""

    def __init__(self, n_actions, entries=None):
        if n_actions < 1:
            raise ValueError("n_actions must be at least 1")
        self.n_actions = int(n_actions)
        self._data = {}
        if entries:
            for (s, a), v in (entries.items()
                              if hasattr(entries, "items") else entries):
                self.set(s, a, v)

    def get(self, state, action):
        """0.0 for absent keys; absent keys are not inserted."""
        return self._data.get((state, action), 0.0)

    def set(self, state, action, value):
        if not (0 <= action < self.n_actions):
            raise ValueError(f"action {action} out of range")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"refusing to store non-finite value {value!r} "
                             f"at ({state!r}, {action})")
        self._data[(state, action)] = value

    def items(self):
        return self._data.items()

    def states(self):
        """Distinct states with any stored entry, in insertion order."""
        seen = {}
        for (s, _a) in self._data:
            seen.setdefault(s, None)
        return list(seen)

    def row(self, state):
        """Dense value row for one state (absent entries read as 0.0)."""
        return np.array([self.get(state, a) for a in range(self.n_actions)],
                        dtype=np.float64)

    def max_value(self, state):
        return max(self.get(state, a) for a in range(self.n_actions))

    def argmax(self, state):
        """Greedy action; ties break to the lowest action index."""
        return argmax(self.row(state))

    def __len__(self):
        return len(self._data)

    def __eq__(self, other):
        return (isinstance(other, QTable)
                and self.n_actions == other.n_actions
                and self._data == other._data)

    def copy(self):
        out = QTable(self.n_actions)
        out._data = dict(self._data)
        return out


def _key_to_json(state):
    if isinstance(state, tuple):
        return {"t": [_key_to_json(x) for x in state]}
    if isinstance(state, (str, int, float, bool)) or state is None:
        return {"v": state}
    raise TypeError(f"state {state!r} is not serializable; use scalars "
                    f"and tuples")


def _key_from_json(payload):
    if "t" in payload:
        return tuple(_key_from_json(x) for x in payload["t"])
    return payload["v"]


def save_qtable(qt, path):
    entries = [{"state": _key_to_json(s), "action": a, "value": v}
               for (s, a), v in qt.items()]
    payload = {
        "format": QTABLE_FORMAT,
        "version": QTABLE_VERSION,
        "n_actions": qt.n_actions,
        "n_entries": len(entries),
        "entries": entries,
    }
    write_atomic(path, json.dumps(payload) + "\n")


def load_qtable(path):
    """Load a saved table; malformed content is rejected with a ValueError
    that names the file."""
    payload = read_json(path)
    try:
        if payload.get("format") != QTABLE_FORMAT:
            raise ValueError(f"{path}: not a {QTABLE_FORMAT} file")
        if payload.get("version") != QTABLE_VERSION:
            raise ValueError(f"{path}: unsupported version")
        entries = payload["entries"]
        if payload["n_entries"] != len(entries):
            raise ValueError(f"{path}: entry count mismatch")
        n_actions = payload["n_actions"]
        if not is_integer(n_actions) or n_actions < 1:
            raise ValueError(f"{path}: bad action count {n_actions!r}")
        qt = QTable(n_actions)
        for e in entries:
            state, action, value = (_key_from_json(e["state"]), e["action"],
                                    e["value"])
            if not is_integer(action) or not 0 <= action < n_actions:
                raise ValueError(f"{path}: bad action {action!r}")
            if not is_number(value) or not math.isfinite(value):
                raise ValueError(f"{path}: non-finite value {value!r}")
            qt.set(state, action, value)
        if len(qt) != len(entries):
            raise ValueError(f"{path}: entries repeat a (state, action) pair")
        return qt
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed qtable payload: "
                         f"{exc!r}") from exc


def td_error(qt, state, action, reward, next_state, done, gamma):
    """One-step TD error; terminal transitions do not bootstrap."""
    bootstrap = 0.0 if done else gamma * qt.max_value(next_state)
    return reward + bootstrap - qt.get(state, action)


def q_update(qt, state, action, delta, alpha):
    """Q(s,a) += alpha * delta, rejecting non-finite results."""
    qt.set(state, action, qt.get(state, action) + alpha * delta)


def softmax_policy(q_row, tau):
    """Boltzmann distribution over one value row.

    Max-subtracted for stability; accumulation runs in action-index order so
    results are reproducible bit for bit.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    n = len(q_row)
    m = q_row[argmax(q_row)]
    out = np.empty(n, dtype=np.float64)
    total = 0.0
    for a in range(n):
        out[a] = math.exp((q_row[a] - m) / tau)
        total += out[a]
    for a in range(n):
        out[a] = out[a] / total
    return out


def epsilon_greedy(qt, state, epsilon, rng):
    """Epsilon-greedy action choice.

    Draw order is fixed: one uniform to decide explore/exploit, then one
    more only on the explore branch. epsilon=0 consumes no randomness.
    """
    if epsilon > 0.0 and rng.uniform() < epsilon:
        return rng.randint(qt.n_actions)
    return qt.argmax(state)


def greedy_policy(qt):
    """Greedy action per state with any stored entry."""
    return {s: qt.argmax(s) for s in qt.states()}
