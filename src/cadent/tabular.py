"""The sparse Q-table, its file format, the learning parameters and the
Boltzmann policy that distillation applies.

QTable is a plain mapping from (state, action) to float with an explicit
default of 0.0: reads of absent keys return 0.0 and never insert. States may
be any hashable built from JSON-able scalars and (nested) tuples, which is
what the serializer relies on. A run's sparse table is decoded from the
kernel's arrays; the learning rule itself (the TD error, the action choice,
the update) has its one implementation in `kernels`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .files import Config, is_integer, write_atomic
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
        self.check_finite()


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
        # a float key is never read, and True would alias action 1
        if not is_integer(action):
            raise ValueError(f"action {action!r} is not an integer")
        if not (0 <= action < self.n_actions):
            raise ValueError(f"action {action} out of range")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"refusing to store non-finite value {value!r} "
                             f"at ({state!r}, {action})")
        self._data[(state, action)] = value

    def items(self):
        return self._data.items()

    def row(self, state):
        """Dense value row for one state (absent entries read as 0.0)."""
        return np.array([self.get(state, a) for a in range(self.n_actions)],
                        dtype=np.float64)

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


def softmax_policy(q_row, tau):
    """Boltzmann distribution over one value row.

    Max-subtracted for stability; accumulation runs in action-index order so
    results are reproducible bit for bit. At tau 1 each entry is the
    kernel's `softmax_prob`, bit for bit, so the distilled policy and the
    student's pull share one softmax.
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
