"""The learning parameters and the Boltzmann policy that distillation
applies.

The learning rule itself (the TD error, the action choice, the update) has
its one implementation in `kernels`, and a learned Q is only ever the
kernel's (n_rows, A) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .files import Config
from .kernels import sum_in_order


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


def softmax_policy(q_row, tau):
    """Boltzmann distribution over one value row at temperature `tau`:
    the exps of (q - max) / tau in action order, their sum taken left to
    right, then one division per action. The training loop's pull computes
    the same softmax at temperature 1, so the distilled policy and the
    student's pull agree bit for bit.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    m = max(q_row)
    exps = [math.exp((v - m) / tau) for v in q_row]
    total = sum_in_order(exps)
    return np.array([e / total for e in exps], dtype=np.float64)
