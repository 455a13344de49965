"""Teacher training and knowledge distillation.

A teacher is a plain Q-learner on the source task: `train_teacher` returns
the kernel's `RunResult`. The distillations take that run and its env, read
the automaton from `env.dfa`, and compress the converged table into two
artifacts consumed during transfer:

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
import math
from dataclasses import dataclass, field

import numpy as np

from .automaton import ProductState, accepting_path_edges
from .envs.tables import compile_env
from .files import is_integer, is_number, json_text, read_json, write_atomic
from .kernels import (LearningParams, run_training, softmax_policy,
                      sum_in_order)

KNOWLEDGE_FORMAT = "cadent-knowledge"
KNOWLEDGE_VERSION = 1
QTABLE_FORMAT = "cadent-qtable"
QTABLE_VERSION = 1

AGGREGATION_MODES = ("visitation_weighted", "unweighted")


class TeacherError(RuntimeError):
    """Teacher training or distillation could not produce usable knowledge."""


def _key_to_json(state):
    if isinstance(state, tuple):
        return {"t": [_key_to_json(x) for x in state]}
    if isinstance(state, (str, int, float, bool)) or state is None:
        return {"v": state}
    raise TypeError(f"state {state!r} is not serializable; use scalars "
                    f"and tuples")


def save_qtable(run, env, path):
    """Write the Q of a teacher's or student's run on `env` as a
    `--qtable-out` file: one ProductState-keyed entry per updated pair, in
    np.argwhere order (rows ascend in s*n_q + q, then actions). A
    non-finite value refuses to write."""
    tables = compile_env(env)
    row, a = np.nonzero(run.counts)
    s, q = np.divmod(run.rows[row], run.n_q)
    entries = [
        {"state": _key_to_json(ProductState(tables.states[si],
                                            env.dfa.states[qi])),
         "action": ai, "value": v}
        for si, qi, ai, v in zip(s.tolist(), q.tolist(), a.tolist(),
                                 run.q[row, a].tolist())]
    payload = {
        "format": QTABLE_FORMAT,
        "version": QTABLE_VERSION,
        "n_actions": tables.n_actions,
        "n_entries": len(entries),
        "entries": entries,
    }
    write_atomic(path, json.dumps(payload, allow_nan=False) + "\n")


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


def train_teacher(env, params=None, episodes=5000, seed=7, stream=0):
    """Q-learning on `env` until the episode budget is spent.

    Raises TeacherError if not a single episode reached acceptance: such a
    run has nothing worth distilling. Returns the kernel's RunResult, whose
    row arrays distillation reads as they are.
    """
    params = params or LearningParams()
    res = run_training(
        compile_env(env), env.dfa.compiled(), None, params,
        episodes=episodes, max_steps=env.max_steps, seed=seed, stream=stream)
    if not res.ep_accept.any():
        raise TeacherError(
            f"teacher never reached acceptance on {env.name} in "
            f"{episodes} episodes; refusing to distill")
    return res


def distill_automaton_values(run, env):
    """Mean final Q over the distinct triggers of each automaton edge of
    `env.dfa`, from a teacher's `run` on `env`.

    A trigger is an updated (state, action) pair whose event moves the
    automaton to another state. Each mean is a left-to-right sum over the
    triggers in sorted state order, then action order. Every edge on some
    accepting path must have a trigger; a partial teacher is rejected with
    the uncovered edges listed.
    """
    dfa = env.dfa
    tables = compile_env(env)
    row, a = np.nonzero(run.counts)
    s, q = np.divmod(run.rows[row], run.n_q)
    q2 = dfa.compiled().delta[q, tables.event[s, a]]
    moved = np.flatnonzero(q2 != q)
    moved = moved[np.lexsort((a[moved], tables.rank[s[moved]]))]
    by_edge = {}
    for i, j, v in zip(q[moved].tolist(), q2[moved].tolist(),
                       run.q[row[moved], a[moved]].tolist()):
        by_edge.setdefault((dfa.states[i], dfa.states[j]), []).append(v)
    required = accepting_path_edges(dfa)
    missing = sorted(required - set(by_edge))
    if missing:
        raise TeacherError(
            f"teacher never triggered accepting-path edges {missing}; "
            f"cannot distill strategic values")
    return {edge: sum_in_order(vals) / len(vals) for edge, vals in
            sorted(by_edge.items())}


def distill_teacher_policy(run, env, tau, aggregation="visitation_weighted"):
    """Abstract policy per state of `env.dfa` from the Q rows of a
    teacher's `run` on `env`.

    The rows of all environment states visited under automaton state q are
    averaged (weighted by state visitation by default), added one by one in
    sorted state order, and pushed through a softmax at temperature tau.
    Automaton states that head an accepting-path edge must have visitation;
    others are simply omitted.
    """
    if aggregation not in AGGREGATION_MODES:
        raise ValueError(f"aggregation must be one of {AGGREGATION_MODES}")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    dfa = env.dfa
    rank = compile_env(env).rank
    visits = run.counts.sum(axis=1)
    rows = np.flatnonzero(visits)
    rows = rows[np.argsort(rank[run.rows[rows] // run.n_q], kind="stable")]
    q_of = run.rows[rows] % run.n_q
    weights = (visits if aggregation == "visitation_weighted"
               else np.ones_like(visits))
    pi = {}
    for qi in sorted(set(q_of.tolist()), key=dfa.states.__getitem__):
        sel = rows[q_of == qi]
        w = weights[sel]
        # accumulate adds rows strictly left to right (a sum may pair them)
        acc = np.add.accumulate(w[:, None] * run.q[sel], axis=0)[-1]
        pi[dfa.states[qi]] = softmax_policy(acc / float(w.sum()), tau)
    required = sorted({q for (q, _q2) in accepting_path_edges(dfa)})
    missing = [q for q in required if q not in pi]
    if missing:
        raise TeacherError(
            f"teacher has no visitation under automaton states {missing}; "
            f"cannot distill an abstract policy")
    return pi


def build_knowledge(run, env, tau, aggregation="visitation_weighted"):
    """Run both distillations of a teacher's `run` on `env` and bundle them
    with provenance."""
    q_ad = distill_automaton_values(run, env)
    pi = distill_teacher_policy(run, env, tau, aggregation)
    provenance = {
        "env": env.name,
        "variant": env.spec.variant,
        "layout_seed": env.spec.layout_seed,
        "episodes": len(run.ep_reward),
        "seed": run.seed,
        "n_successes": int(run.ep_accept.sum()),
    }
    return TeacherKnowledge(
        q_ad=q_ad, pi=pi, tau=tau, n_actions=run.q.shape[1],
        alphabet=tuple(env.dfa.alphabet), aggregation=aggregation,
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
    write_atomic(path, json_text(payload))


def load_knowledge(path):
    """Load and validate a knowledge file; malformed content is rejected
    with a ValueError that names the file."""
    payload = read_json(path)
    try:
        if (not isinstance(payload, dict)
                or payload.get("format") != KNOWLEDGE_FORMAT):
            raise ValueError(f"{path}: not a {KNOWLEDGE_FORMAT} file")
        if payload.get("version") != KNOWLEDGE_VERSION:
            raise ValueError(f"{path}: unsupported version")
        n_actions = payload["n_actions"]
        if not is_integer(n_actions) or n_actions < 1:
            raise ValueError(f"{path}: bad action count {n_actions!r}")
        if payload["aggregation"] not in AGGREGATION_MODES:
            raise ValueError(f"{path}: unknown aggregation mode")
        tau = payload["tau"]
        if not is_number(tau) or not 0.0 < tau < math.inf:
            raise ValueError(f"{path}: tau must be a positive finite "
                             f"number, not {tau!r}")
        # a value of the wrong JSON type is a malformed payload
        for key, kind in (("alphabet", list), ("q_ad", list), ("pi", list),
                          ("provenance", dict)):
            if not isinstance(payload[key], kind):
                raise TypeError(f"{key} must be a JSON {kind.__name__}, not "
                                f"{type(payload[key]).__name__}")
        alphabet = payload["alphabet"]
        if not alphabet:
            raise ValueError(f"{path}: empty alphabet")
        q_ad = {}
        for e in payload["q_ad"]:
            edge, v = (e["from"], e["to"]), e["value"]
            if edge in q_ad:
                raise ValueError(f"{path}: repeated edge {edge!r}")
            if not is_number(v) or not math.isfinite(v):
                raise ValueError(f"{path}: non-finite edge value {v!r}")
            q_ad[edge] = float(v)
        pi = {}
        for e in payload["pi"]:
            q, probs = e["q"], e["probs"]
            if q in pi:
                raise ValueError(f"{path}: repeated policy row {q!r}")
            if not isinstance(probs, list):
                raise TypeError(f"probs of {q!r} must be a JSON list, not "
                                f"{type(probs).__name__}")
            if len(probs) != n_actions:
                raise ValueError(f"{path}: policy row length mismatch")
            # NaN fails every comparison, so finiteness is checked first
            for p in probs:
                if not is_number(p) or not math.isfinite(p):
                    raise ValueError(f"{path}: policy row {q!r} is not a "
                                     f"distribution: it holds {p!r}")
            probs = np.array(probs, dtype=np.float64)
            if (probs < 0).any() or abs(float(probs.sum()) - 1.0) > 1e-9:
                raise ValueError(f"{path}: policy row {q!r} is not a "
                                 f"distribution")
            pi[q] = probs
        if not payload["provenance"]:
            raise ValueError(f"{path}: missing provenance")
        return TeacherKnowledge(q_ad=q_ad, pi=pi, tau=float(tau),
                                n_actions=n_actions, alphabet=tuple(alphabet),
                                aggregation=payload["aggregation"],
                                provenance=payload["provenance"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed knowledge payload: "
                         f"{exc!r}") from exc


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
