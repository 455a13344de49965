"""Teacher training and knowledge distillation.

A teacher is a plain Q-learner on the source task. Its converged table is
compressed into two artifacts consumed during transfer:

* automaton edge values: for each observed automaton transition (q, q'),
  the mean of the teacher's Q over the distinct state-action pairs that
  triggered it;
* an abstract policy per automaton state: a softmax over the (by default
  visitation-weighted) average of the teacher's Q rows within that state.

Both refuse to distill from a teacher that never exercised some edge or
state on an accepting path: that teacher is not competent to guide anyone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .automaton import ProductState, accepting_path_edges
from .envs.tables import compile_env
from .kernels import run_training
from .tabular import LearningParams, QTable, softmax_policy

KNOWLEDGE_FORMAT = "cadent-knowledge"
KNOWLEDGE_VERSION = 1

AGGREGATION_MODES = ("visitation_weighted", "unweighted")


class TeacherError(RuntimeError):
    """Teacher training or distillation could not produce usable knowledge."""


@dataclass
class TeacherResult:
    """Raw outcome of source-task training, before distillation."""

    qtable: QTable
    visits: dict            # (ProductState, action) -> visit count
    transition_log: set     # ((ProductState, action), (q, q')) triggers
    n_successes: int
    episodes: int
    seed: int
    env: object
    ep_reward: np.ndarray
    ep_steps: np.ndarray


@dataclass
class TeacherKnowledge:
    """Distilled strategic values and abstract tactical policy."""

    q_ad: dict              # (q, q') -> float
    pi: dict                # q -> np.ndarray of action probabilities
    tau: float
    n_actions: int
    alphabet: tuple
    aggregation: str
    provenance: dict = field(default_factory=dict)

    def q_ad_max(self):
        """Largest absolute edge value; scales the update-magnitude bound."""
        if not self.q_ad:
            return 0.0
        return max(abs(v) for v in self.q_ad.values())


def train_teacher(env, params=None, episodes=5000, seed=7, stream=0,
                  backend=None):
    """Q-learning on `env` until the episode budget is spent.

    Raises TeacherError if not a single episode reached acceptance: such a
    run has nothing worth distilling. Returns the sparse table, visit
    counts, and the log of observed automaton triggers.
    """
    params = params or LearningParams()
    if episodes <= 0:
        raise ValueError("episodes must be positive")
    tables = compile_env(env)
    cdfa = env.dfa.compiled()
    res = run_training(
        tables, cdfa, None,
        alpha=params.alpha, gamma=params.gamma,
        eps_start=params.epsilon_start, eps_end=params.epsilon_end,
        eps_decay=params.epsilon_decay,
        eta=0.0, gate_k=0.0, theta=0.0, v_init=0.0, lam_ad=0.0, lam_pd=0.0,
        use_gate=False, omega_fixed=1.0, use_guidance=False,
        episodes=episodes, max_steps=env.max_steps, seed=seed, stream=stream,
        backend=backend)
    n_successes = int(res.ep_accept.sum())
    if n_successes == 0:
        raise TeacherError(
            f"teacher never reached acceptance on {env.name} in "
            f"{episodes} episodes; refusing to distill")
    qtable, visits, transition_log = _sparse_results(env, tables, cdfa, res)
    return TeacherResult(qtable=qtable, visits=visits,
                         transition_log=transition_log,
                         n_successes=n_successes, episodes=episodes,
                         seed=seed, env=env, ep_reward=res.ep_reward,
                         ep_steps=res.ep_steps)


def _sparse_results(env, tables, cdfa, res):
    """Rebuild exact sparse views from dense kernel output."""
    q_names = list(env.dfa.states)
    qtable = QTable(tables.n_actions)
    visits = {}
    transition_log = set()
    for pid, s_idx, q_idx, a in res.visited():
        key = ProductState(tables.states[s_idx], q_names[q_idx])
        qtable.set(key, a, res.q[pid, a])
        visits[(key, a)] = int(res.counts[pid, a])
        ev = int(tables.event[s_idx, a])
        q2_idx = int(cdfa.delta[q_idx, ev])
        if q2_idx != q_idx:
            transition_log.add(
                ((key, a), (q_names[q_idx], q_names[q2_idx])))
    return qtable, visits, transition_log


def distill_automaton_values(qtable, dfa, transition_log):
    """Mean final Q over the distinct triggers of each automaton edge.

    Every edge on some accepting path must be covered by the log; a partial
    teacher is rejected with the uncovered edges listed.
    """
    by_edge = {}
    for (key, a), edge in sorted(transition_log):
        by_edge.setdefault(edge, []).append(qtable.get(key, a))
    required = accepting_path_edges(dfa)
    missing = sorted(required - set(by_edge))
    if missing:
        raise TeacherError(
            f"teacher never triggered accepting-path edges {missing}; "
            f"cannot distill strategic values")
    return {edge: sum(vals) / len(vals) for edge, vals in
            sorted(by_edge.items())}


def distill_teacher_policy(qtable, visits, dfa, tau, n_actions,
                           aggregation="visitation_weighted"):
    """Abstract per-automaton-state policy from the teacher table.

    Q rows of all environment states observed under automaton state q are
    averaged (weighted by state visitation by default) and pushed through a
    softmax at temperature tau. Automaton states that head an accepting-path
    edge must have visitation; others are simply omitted.
    """
    if aggregation not in AGGREGATION_MODES:
        raise ValueError(f"aggregation must be one of {AGGREGATION_MODES}")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    state_visits = {}
    for (key, a), n in visits.items():
        state_visits[key] = state_visits.get(key, 0) + n
    by_q = {}
    for key in sorted(state_visits):
        by_q.setdefault(key.q, []).append(key)
    pi = {}
    for q in sorted(by_q):
        acc = np.zeros(n_actions, dtype=np.float64)
        weight_total = 0.0
        for key in by_q[q]:
            w = float(state_visits[key]) if aggregation == "visitation_weighted" else 1.0
            acc += w * qtable.row(key)
            weight_total += w
        pi[q] = softmax_policy(acc / weight_total, tau)
    required = sorted({q for (q, _q2) in accepting_path_edges(dfa)})
    missing = [q for q in required if q not in pi]
    if missing:
        raise TeacherError(
            f"teacher has no visitation under automaton states {missing}; "
            f"cannot distill an abstract policy")
    return pi


def build_knowledge(result, dfa, tau, aggregation="visitation_weighted"):
    """Run both distillations and bundle them with provenance."""
    q_ad = distill_automaton_values(result.qtable, dfa, result.transition_log)
    pi = distill_teacher_policy(result.qtable, result.visits, dfa, tau,
                                result.qtable.n_actions, aggregation)
    env = result.env
    provenance = {
        "env": env.name,
        "variant": env.spec.variant,
        "layout_seed": env.spec.layout_seed,
        "episodes": result.episodes,
        "seed": result.seed,
        "n_successes": result.n_successes,
    }
    return TeacherKnowledge(
        q_ad=q_ad, pi=pi, tau=tau, n_actions=result.qtable.n_actions,
        alphabet=tuple(dfa.alphabet), aggregation=aggregation,
        provenance=provenance)


def save_knowledge(knowledge, path):
    payload = {
        "format": KNOWLEDGE_FORMAT,
        "version": KNOWLEDGE_VERSION,
        "tau": knowledge.tau,
        "n_actions": knowledge.n_actions,
        "alphabet": list(knowledge.alphabet),
        "aggregation": knowledge.aggregation,
        "q_ad": [{"from": q, "to": q2, "value": v}
                 for (q, q2), v in sorted(knowledge.q_ad.items())],
        "pi": [{"q": q, "probs": [float(p) for p in probs]}
               for q, probs in sorted(knowledge.pi.items())],
        "provenance": dict(knowledge.provenance),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_knowledge(path):
    """Load and validate a knowledge file; malformed content is rejected."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != KNOWLEDGE_FORMAT:
        raise ValueError(f"{path}: not a {KNOWLEDGE_FORMAT} file")
    if payload.get("version") != KNOWLEDGE_VERSION:
        raise ValueError(f"{path}: unsupported version")
    n_actions = int(payload["n_actions"])
    if n_actions < 1:
        raise ValueError(f"{path}: bad action count")
    if payload["aggregation"] not in AGGREGATION_MODES:
        raise ValueError(f"{path}: unknown aggregation mode")
    tau = float(payload["tau"])
    if tau <= 0.0:
        raise ValueError(f"{path}: tau must be positive")
    alphabet = tuple(payload["alphabet"])
    if not alphabet:
        raise ValueError(f"{path}: empty alphabet")
    q_ad = {}
    for e in payload["q_ad"]:
        v = float(e["value"])
        if not np.isfinite(v):
            raise ValueError(f"{path}: non-finite edge value")
        q_ad[(e["from"], e["to"])] = v
    pi = {}
    for e in payload["pi"]:
        probs = np.array(e["probs"], dtype=np.float64)
        if len(probs) != n_actions:
            raise ValueError(f"{path}: policy row length mismatch")
        if (probs < 0).any() or abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"{path}: policy row is not a distribution")
        pi[e["q"]] = probs
    if not payload.get("provenance"):
        raise ValueError(f"{path}: missing provenance")
    return TeacherKnowledge(q_ad=q_ad, pi=pi, tau=tau, n_actions=n_actions,
                            alphabet=alphabet,
                            aggregation=payload["aggregation"],
                            provenance=payload["provenance"])


def dense_knowledge(knowledge, dfa, n_actions):
    """Array form of knowledge aligned to a compiled automaton.

    Raises if the knowledge was distilled against an incompatible automaton
    (different alphabet, unknown state names) or action set; this is checked
    before any training step runs.
    """
    if tuple(knowledge.alphabet) != tuple(dfa.alphabet):
        raise ValueError(
            f"knowledge alphabet {knowledge.alphabet} does not match "
            f"automaton alphabet {dfa.alphabet}")
    if knowledge.n_actions != n_actions:
        raise ValueError(
            f"knowledge has {knowledge.n_actions} actions, environment "
            f"has {n_actions}")
    comp = dfa.compiled()
    n_q = len(dfa.states)
    q_ad = np.zeros((n_q, n_q), dtype=np.float64)
    known = np.zeros((n_q, n_q), dtype=np.bool_)
    for (q, q2), v in knowledge.q_ad.items():
        if q not in comp.state_index or q2 not in comp.state_index:
            raise ValueError(f"knowledge references unknown automaton "
                             f"state in edge ({q!r}, {q2!r})")
        q_ad[comp.state_index[q], comp.state_index[q2]] = v
        known[comp.state_index[q], comp.state_index[q2]] = True
    pi = np.zeros((n_q, n_actions), dtype=np.float64)
    pi_known = np.zeros(n_q, dtype=np.bool_)
    for q, probs in knowledge.pi.items():
        if q not in comp.state_index:
            raise ValueError(f"knowledge references unknown automaton "
                             f"state {q!r}")
        pi[comp.state_index[q]] = probs
        pi_known[comp.state_index[q]] = True
    return q_ad, known, pi, pi_known
