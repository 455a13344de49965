"""Sparse tabular value learning primitives.

QTable is a plain mapping from (state, action) to float with an explicit
default of 0.0: reads of absent keys return 0.0 and never insert. States may
be any hashable built from JSON-able scalars and (nested) tuples, which is
what the serializer relies on.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from .files import json_text, read_json, write_atomic
from .kernels import argmax

QTABLE_FORMAT = "cadent-qtable"
QTABLE_VERSION = 1


# annotation -> (the JSON values a field of it takes, their name); fields
# annotated otherwise take any value and leave the check to the class
_JSON_TYPES = {"int": ((int,), "integer"), "float": ((int, float), "number"),
               "str": ((str,), "string"), "tuple": ((list, tuple), "array"),
               "dict": ((dict,), "object")}


def _words(name):
    """A class name in words: `ExperimentConfig` -> "experiment config"."""
    return re.sub(r"(?<!^)(?=[A-Z])", " ", name).lower()


class Config:
    """Base of the frozen config dataclasses. Their JSON form, files and
    overrides all come from the fields: a field whose default is built by
    a Config class is a nested section."""

    def to_json(self):
        """The fields as JSON reads them back: dicts, tuples as lists."""
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_json(cls, payload, section=None):
        """Build from parsed JSON. A ValueError names a section that is not
        an object, unknown or missing keys and a field of the wrong JSON
        type; `section` defaults to the class name in words."""
        if not isinstance(payload, dict):
            section = section or _words(cls.__name__)
            raise ValueError(f"{section} must be a JSON object, not "
                             f"{type(payload).__name__}")
        payload = dict(payload)
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(payload) - set(known))
        missing = [name for name, f in known.items() if name not in payload
                   and f.default is MISSING and f.default_factory is MISSING]
        for problem, names in (("unknown", unknown), ("missing", missing)):
            if names:
                raise ValueError(f"{problem} {cls.__name__} keys: "
                                 f"{', '.join(names)}")
        for name, value in list(payload.items()):
            nested = known[name].default_factory
            if isinstance(nested, type) and issubclass(nested, Config):
                payload[name] = nested.from_json(value, name)
                continue
            annotation = known[name].type   # a string, or a type if evaluated
            types, kind = _JSON_TYPES.get(
                getattr(annotation, "__name__", annotation), ((), None))
            if kind and (isinstance(value, bool)
                         or not isinstance(value, types)):
                raise ValueError(f"{cls.__name__}.{name} must be a JSON "
                                 f"{kind}, not {type(value).__name__}")
        return cls(**payload)

    def save(self, path):
        write_atomic(path, json_text(self.to_json()))

    @classmethod
    def load(cls, path):
        # a file that holds no JSON object is named in the error
        return cls.from_json(read_json(path),
                             f"{path}: {_words(cls.__name__)}")

    def with_(self, **kw):
        return replace(self, **kw)


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
        qt = QTable(payload["n_actions"])
        for e in entries:
            qt.set(_key_from_json(e["state"]), e["action"], e["value"])
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
