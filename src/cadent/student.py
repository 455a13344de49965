"""Transfer student: trust-gated fusion of self-experience and teacher advice.

Each step produces two TD errors: the student's own, and a teacher TD error
that adds to the reward the distilled value of any automaton edge just
crossed and a policy-matching gradient on the taken action. A per-pair
volatility trace (EWMA of the applied update's magnitude, starting high)
drives a sigmoid gate deciding how much weight the teacher gets: pairs
without experience and volatile regions lean on the teacher, settled
regions on the student's own signal. The update rule is written once,
in the training loop `kernels.run_training`, beside the parameter sections
it reads (`LearningParams`, `TrustParams`, `GuidanceParams`); this module
keeps the variant table, `StudentConfig`, which bundles the sections, and
`update_bound`. `train_student` returns the kernel's `RunResult`, which
records the run's seed and update bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envs.tables import compile_env
from .files import Config
from .kernels import GuidanceParams, LearningParams, TrustParams, run_training
from .teacher import dense_knowledge

# name -> (gated, strategic, tactical). gated: the trust gate sets omega
# from the pair's volatility, otherwise omega is StudentConfig.omega0.
# strategic, tactical: the variant keeps lambda_ad, lambda_pd (without it the
# weight is 0). `train_student` applies the row, so a config keeps every
# weight whatever its variant. The order is part of the results: the harness
# derives each variant's random stream from it.
VARIANTS = {
    "cadent": (True, True, True),
    "ad": (True, True, False),
    "pd": (True, False, True),
    "no_transfer": (False, False, False),
    "no_trust_gate": (False, True, True),
}

VARIANT_ALIASES = {
    "none": "no_transfer",
    "ad_only": "ad",
    "pd_only": "pd",
}


def uses_teacher(variant):
    """Whether `variant` learns from teacher knowledge."""
    _gated, strategic, tactical = VARIANTS[variant]
    return strategic or tactical


@dataclass(frozen=True)
class StudentConfig(Config):
    """Full hyperparameter bundle; its variant picks which weights a run uses."""

    learn: LearningParams = field(default_factory=LearningParams)
    trust: TrustParams = field(default_factory=TrustParams)
    guide: GuidanceParams = field(default_factory=GuidanceParams)
    variant: str = "cadent"
    omega0: float = 0.5   # the fixed omega of a variant without the gate

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {tuple(VARIANTS)}")
        if not (0.0 <= self.omega0 <= 1.0):
            raise ValueError("omega0 must be in [0, 1]")
        self.check_finite()


def update_bound(gamma, r_max, lambda_ad, q_ad_max, lambda_pd):
    """Worst-case |update| for any single step.

    The student term is bounded by the value-range bound r_max / (1 - gamma),
    the strategic term by lambda_ad * q_ad_max, and the tactical term by
    2 * lambda_pd (a difference of probabilities, then scaled). The fused
    update adds at most (1 - omega) <= 1 times the teacher terms to the
    student's TD error, so the sum of the bounds dominates by the triangle
    inequality.
    """
    if not (0.0 <= gamma < 1.0):
        raise ValueError("gamma must be in [0, 1)")
    if r_max < 0.0 or q_ad_max < 0.0 or lambda_ad < 0.0 or lambda_pd < 0.0:
        raise ValueError("bound ingredients must be non-negative")
    return r_max / (1.0 - gamma) + lambda_ad * q_ad_max + 2.0 * lambda_pd


def train_student(env, knowledge, config, episodes, seed, stream=0):
    """Train one student on `env` under the given variant configuration.

    The config's row of VARIANTS decides the run: whether the gate is on,
    which of lambda_ad and lambda_pd it keeps (a dropped weight is 0.0, in
    the kernel and in the bound); without the gate, omega is
    `config.omega0`. `knowledge` may (and must) be None only for the
    no_transfer variant. Compatibility between the knowledge and the
    environment's automaton and action set is checked before any step runs.
    Update magnitudes are monitored against the analytic bound, which the
    returned RunResult records as `bound`; non-finite updates raise.
    """
    if episodes <= 0:
        raise ValueError("episodes must be positive")
    gated, strategic, tactical = VARIANTS[config.variant]
    guided = strategic or tactical
    if guided and knowledge is None:
        raise ValueError(f"variant {config.variant!r} requires teacher "
                         f"knowledge")
    if not guided and knowledge is not None:
        raise ValueError(f"variant {config.variant!r} takes no knowledge")
    tables = compile_env(env)
    cdfa = env.dfa.compiled()
    dense = None
    q_ad_max = 0.0
    if knowledge is not None:
        dense = dense_knowledge(knowledge, env.dfa, tables.n_actions)
        q_ad_max = knowledge.q_ad_max()
    guide = config.guide.with_(
        lambda_ad=config.guide.lambda_ad if strategic else 0.0,
        lambda_pd=config.guide.lambda_pd if tactical else 0.0)
    r_max = float(np.abs(tables.reward).max())
    bound = update_bound(config.learn.gamma, r_max, guide.lambda_ad, q_ad_max,
                         guide.lambda_pd)
    return run_training(
        tables, cdfa, dense, config.learn, episodes=episodes,
        max_steps=env.max_steps, seed=seed, stream=stream,
        trust=config.trust, guide=guide, use_gate=gated,
        omega_fixed=config.omega0, use_guidance=guided, bound=bound)
