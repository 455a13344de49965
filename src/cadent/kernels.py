"""Training kernels with optional JIT compilation.

The episode loop is written once as plain Python over dense arrays and run
either as-is or compiled (numba), selected at import by the CADENT_NUMBA
environment variable ("0"/"false" forces the interpreted path). Both
backends execute the same source with the same scalar operations, and the
random generator uses masked 32-bit integer arithmetic, so results are
bit-identical across backends; tests assert this rather than assume it.

All states here are flat indices. The product index of environment state s
and automaton state q is `s * n_q + q`. Kernel outputs use dense arrays plus
a visit-count mask from which exact sparse tables are reconstructed.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .rng import state_from, xs128_next as _xs128_next_py

_INV32 = 2.0 ** -32

_flag = os.environ.get("CADENT_NUMBA", "1").strip().lower()
NUMBA_REQUESTED = _flag not in ("0", "false", "off", "no")
NUMBA_AVAILABLE = False
if NUMBA_REQUESTED:
    try:
        from numba import njit as _njit
        NUMBA_AVAILABLE = True
    except ImportError:
        pass
NUMBA_ENABLED = NUMBA_REQUESTED and NUMBA_AVAILABLE
BACKEND = "numba" if NUMBA_ENABLED else "python"


def _compile(fn):
    if NUMBA_ENABLED:
        return _njit(cache=True)(fn)
    return fn


def backend_info():
    return {"backend": BACKEND, "numba_requested": NUMBA_REQUESTED,
            "numba_available": NUMBA_AVAILABLE}


xs128_next = _compile(_xs128_next_py)


# The update's formulas, defined once. The public API calls them; compiled
# code calls only their compiled copies, as numba requires.


def argmax(row):
    """Index of the largest entry of `row`; ties go to the lowest index."""
    a = 0
    best = row[0]
    for b in range(1, len(row)):
        if row[b] > best:
            best = row[b]
            a = b
    return a


def softmax_prob(row, a):
    """Probability of action `a` under the temperature-1 softmax of `row`.

    Max-subtracted, accumulated in action-index order, so every caller gets
    the same bits.
    """
    m = row[_argmax(row)]
    tot = 0.0
    pa = 0.0
    for b in range(len(row)):
        eb = math.exp(row[b] - m)
        tot += eb
        if b == a:
            pa = eb
    return pa / tot


def trust_gate(v, k, theta):
    """Sigmoid weight on the student's own signal: 1 / (1 + exp(k(v-theta))).

    Low volatility, high self-trust. Evaluated through the exp of a
    non-positive argument so arbitrarily large |v - theta| cannot overflow;
    v == theta gives exactly 0.5.
    """
    x = k * (v - theta)
    if x > 0.0:
        z = math.exp(-x)
        return z / (1.0 + z)
    return 1.0 / (1.0 + math.exp(x))


def volatility_update(v, delta, eta):
    """EWMA of |delta|; the volatility trace after an update of size delta."""
    return (1.0 - eta) * v + eta * abs(delta)


def tactical_applies(state, q, state_next, q_next):
    """Whether the step (state, q) -> (state_next, q_next) earns g_PD.

    The policy gradient pays moves within an automaton state. An edge
    crossing is judged by the strategic term instead, and a step that leaves
    the product state unchanged (walking into a wall) is a self-loop: paying
    it would pay the student for standing still.
    """
    return q_next == q and state_next != state


def fused_update(omega, delta_student, r_ad, g_pd):
    """Gate-weighted blend of the student's and the teacher's TD errors.

    The student arm is delta_student; the teacher arm is the same TD error
    with the teacher terms added to the reward, delta_student + r_ad + g_pd
    (shaping inside the TD target, as in Ng, Harada & Russell, ICML 1999).
    omega * student + (1 - omega) * teacher simplifies to the expression
    below: without teacher terms the update is plain Q-learning, and at a
    fixed omega every pair's update has a fixed point.
    """
    return delta_student + (1.0 - omega) * (r_ad + g_pd)


_argmax = _compile(argmax)
_softmax_prob = _compile(softmax_prob)
_trust_gate = _compile(trust_gate)
_volatility_update = _compile(volatility_update)
_tactical_applies = _compile(tactical_applies)
_fused_update = _compile(fused_update)


def _train_run(next_state, reward, event, terminal, dead, start,
               delta, accepting, q_start,
               q_ad, q_ad_known, pi_teacher, pi_known,
               alpha, gamma, eps_start, eps_end, eps_decay,
               eta, gate_k, theta, v_init, lam_ad, lam_pd,
               use_gate, omega_fixed, use_guidance,
               episodes, max_steps, rng_state, bound, soft_cap):
    """Run one full training job; see student.train_student for semantics.

    Per step: epsilon-greedy action, student TD error, trust gate read from
    the pair's volatility as it stood before this step, teacher terms
    (automaton edge value, and the policy gradient on the taken action
    where `tactical_applies`), fused update, then Q += alpha * update and
    the volatility absorbs |update|. With use_guidance False this reduces
    exactly to Q-learning. Update magnitudes above `bound` are recorded
    (first soft_cap global step indices); non-finite updates abort.
    """
    n_env, n_actions = next_state.shape
    n_q = delta.shape[0]
    n_prod = n_env * n_q
    q = np.zeros((n_prod, n_actions), dtype=np.float64)
    vol = np.full((n_prod, n_actions), v_init, dtype=np.float64)
    counts = np.zeros((n_prod, n_actions), dtype=np.int64)
    ep_reward = np.zeros(episodes, dtype=np.float64)
    ep_steps = np.zeros(episodes, dtype=np.int64)
    ep_accept = np.zeros(episodes, dtype=np.bool_)
    soft_steps = np.full(soft_cap, -1, dtype=np.int64)
    n_soft = 0
    novel = 0
    max_abs_dq = 0.0
    global_step = 0
    eps = eps_start
    for ep in range(episodes):
        e = eps if eps > eps_end else eps_end
        s = start
        qq = q_start
        total = 0.0
        steps = 0
        acc = False
        for t in range(max_steps):
            pid = s * n_q + qq
            row = q[pid]
            # action choice: one draw to branch, one more when exploring
            if e > 0.0 and xs128_next(rng_state) * _INV32 < e:
                a = int((xs128_next(rng_state) * _INV32) * n_actions)
            else:
                a = _argmax(row)
            s2 = int(next_state[s, a])
            r = reward[s, a]
            ev = int(event[s, a])
            q2 = int(delta[qq, ev])
            done = terminal[s2] or dead[s2] or t == max_steps - 1
            if done:
                boot = 0.0
            else:
                row2 = q[s2 * n_q + q2]
                boot = gamma * row2[_argmax(row2)]
            d_student = r + boot - row[a]
            if use_guidance:
                if use_gate:
                    om = _trust_gate(vol[pid, a], gate_k, theta)
                else:
                    om = omega_fixed
                r_ad = 0.0
                if q2 != qq:
                    if q_ad_known[qq, q2]:
                        r_ad = lam_ad * q_ad[qq, q2]
                    else:
                        novel += 1
                g = 0.0
                if pi_known[qq] and _tactical_applies(s, qq, s2, q2):
                    g = lam_pd * (pi_teacher[qq, a] - _softmax_prob(row, a))
                dq = _fused_update(om, d_student, r_ad, g)
            else:
                dq = d_student
            if not math.isfinite(dq):
                raise ValueError("non-finite update; diverged")
            if use_gate:
                vol[pid, a] = _volatility_update(vol[pid, a], dq, eta)
            adq = abs(dq)
            if adq > max_abs_dq:
                max_abs_dq = adq
            if adq > bound:
                if n_soft < soft_cap:
                    soft_steps[n_soft] = global_step
                n_soft += 1
            row[a] = row[a] + alpha * dq
            counts[pid, a] += 1
            total += r
            global_step += 1
            steps = t + 1
            s = s2
            qq = q2
            if done:
                acc = bool(accepting[q2]) and not dead[s2]
                break
        ep_reward[ep] = total
        ep_steps[ep] = steps
        ep_accept[ep] = acc
        eps = eps * eps_decay
    return (q, vol, counts, ep_reward, ep_steps, ep_accept,
            novel, max_abs_dq, n_soft, soft_steps)


train_run = _compile(_train_run)


class RunResult:
    """Named view over the raw kernel output tuple."""

    def __init__(self, raw, soft_cap, n_q):
        (self.q, self.vol, self.counts, self.ep_reward, self.ep_steps,
         self.ep_accept, novel, self.max_abs_update, n_soft,
         soft_steps) = raw
        self.novel_transitions = int(novel)
        self.n_soft_violations = int(n_soft)
        self.soft_violation_steps = soft_steps[:min(int(n_soft), soft_cap)]
        self.n_q = n_q

    def visited(self):
        """(dense row, env state, automaton state, action) per updated pair."""
        for pid, a in np.argwhere(self.counts > 0):
            s, q = divmod(int(pid), self.n_q)
            yield int(pid), s, q, int(a)


def run_training(tables, cdfa, dense, *, alpha, gamma, eps_start, eps_end,
                 eps_decay, eta, gate_k, theta, v_init, lam_ad, lam_pd,
                 use_gate, omega_fixed, use_guidance, episodes, max_steps,
                 seed, stream=0, bound=math.inf, soft_cap=1024, backend=None):
    """Marshal arrays and scalars into the selected kernel backend.

    `dense` is the (q_ad, q_ad_known, pi_teacher, pi_known) array bundle;
    pass None when use_guidance is False. backend: None for the active one,
    "python" for the interpreted loop, "numba" to insist on the compiled one.
    """
    if episodes <= 0:
        raise ValueError("episodes must be positive")
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    if backend is None:
        fn = train_run
    elif backend == "python":
        fn = _train_run
    elif backend == "numba":
        if not NUMBA_ENABLED:
            raise RuntimeError("numba backend requested but not enabled")
        fn = train_run
    else:
        raise ValueError(f"unknown backend {backend!r}")
    n_q = cdfa.delta.shape[0]
    if dense is None:
        q_ad = np.zeros((n_q, n_q), dtype=np.float64)
        q_ad_known = np.zeros((n_q, n_q), dtype=np.bool_)
        pi_teacher = np.zeros((n_q, tables.n_actions), dtype=np.float64)
        pi_known = np.zeros(n_q, dtype=np.bool_)
    else:
        q_ad, q_ad_known, pi_teacher, pi_known = dense
    rng_state = state_from(seed, stream)
    raw = fn(tables.next_state, tables.reward, tables.event, tables.terminal,
             tables.dead, tables.start, cdfa.delta, cdfa.accepting,
             cdfa.start, q_ad, q_ad_known, pi_teacher, pi_known,
             float(alpha), float(gamma), float(eps_start), float(eps_end),
             float(eps_decay), float(eta), float(gate_k), float(theta),
             float(v_init), float(lam_ad), float(lam_pd), bool(use_gate),
             float(omega_fixed), bool(use_guidance), int(episodes),
             int(max_steps), rng_state, float(bound), int(soft_cap))
    return RunResult(raw, int(soft_cap), n_q)


def greedy_rollout(tables, cdfa, q, max_steps):
    """Follow the greedy policy of dense table `q` from reset.

    Returns (accepted, steps, total_reward). Ends on acceptance, death, a
    revisited product state (a guaranteed loop under a deterministic
    policy), or the step budget.
    """
    n_q = cdfa.delta.shape[0]
    s = tables.start
    qq = cdfa.start
    seen = {(s, qq)}
    total = 0.0
    for t in range(max_steps):
        a = argmax(q[s * n_q + qq])
        s2 = int(tables.next_state[s, a])
        total += float(tables.reward[s, a])
        ev = int(tables.event[s, a])
        qq = int(cdfa.delta[qq, ev])
        s = s2
        if cdfa.accepting[qq]:
            return True, t + 1, total
        if tables.dead[s]:
            return False, t + 1, total
        if (s, qq) in seen:
            return False, t + 1, total
        seen.add((s, qq))
    return False, max_steps, total
