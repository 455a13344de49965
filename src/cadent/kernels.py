"""The training kernel.

The episode loop is plain Python over flat 1-D sequences, in one
function, `run_training`. It allocates the numpy outputs and runs the loop
over memoryviews of them and of the env, automaton and knowledge tables,
with no copy: their items read as Python scalars, which CPython indexes far
faster than numpy arrays. The update's formulas (the trust gate, the
volatility trace, the fused update, the policy-gradient rule, argmax and
the softmax pull) are defined once below. The loop calls them, and the
public API re-exports the same functions (`student`); the TD error, the
epsilon-greedy choice, the edge value r_AD and the pull g_PD are written
only in the loop.

The kernel walks product rows, not (env state, automaton state) pairs.
`envs.tables.product_tables` builds, once per env, the rows reachable from
the start pair, with each row's successor, reward, stop and dead flags and
automaton state `q_of`, so a step neither looks the automaton up nor
computes an index. Row p stands for the pair whose old index `s * n_q + q`
is `rows[p]`; rows ascend in it. A table over (row, action) is indexed
`p * n_actions + a`. Kernel outputs are (n_rows, action) arrays of Q,
volatility and visit counts, returned with `rows`. They are the only form
a learned Q takes: distillation, the greedy rollout and `--qtable-out`
read them through `rows`.

A step's cost does not grow with the row width. The loop keeps each
product row's greedy action in a list: `greedy[p] == argmax(q, p * A, A)`
at all times, ties going to the lowest action as `argmax` breaks them. Q
starts at zero, so every entry starts at 0. A step writes one entry,
q[p * A + a]. If a is the greedy action and its value fell, the row is
rescanned; otherwise a becomes greedy when its new value is above the
greedy one's, or equal to it with a lower index. The action choice, the
bootstrap and the softmax pull read the list. The four xorshift128 words
are held in locals for the whole run, stepped with `rng.xs128_word`, and
returned as the run's `rng_words`.
"""

from __future__ import annotations

import math

import numpy as np

from .envs.tables import product_tables
from .rng import state_from, xs128_word

_INV32 = 2.0 ** -32

# a run records the global step indices of its first SOFT_CAP updates above
# the bound, and counts the rest
SOFT_CAP = 1024

# read by perfbench/run.py (machine_info and backend_parity)
BACKEND = "python"
NUMBA_ENABLED = False


# The update's formulas, defined once.


def argmax(values, lo=0, n=None):
    """Offset from `lo` of the largest of values[lo:lo+n] (n defaults to
    all of `values`); ties go to the lowest offset."""
    if n is None:
        n = len(values)
    a = 0
    best = values[lo]
    for b in range(1, n):
        v = values[lo + b]
        if v > best:
            best = v
            a = b
    return a


def sum_in_order(values):
    """The floats of `values` added strictly left to right. From Python
    3.12 the builtin `sum` compensates float sums, whose bits then differ
    from one interpreter to the next."""
    total = 0.0
    for v in values:
        total += v
    return total


def softmax_prob(values, a, lo=0, n=None, amax=None, tau=1.0):
    """Probability of offset `a` under the temperature-`tau` softmax of
    values[lo:lo+n] (n defaults to all of `values`).

    Max-subtracted, accumulated in action-index order, so every caller gets
    the same bits. `amax` is the slice's argmax offset when the caller
    already knows it; by default it is computed here.
    """
    if n is None:
        n = len(values)
    if amax is None:
        amax = argmax(values, lo, n)
    m = values[lo + amax]
    tot = 0.0
    pa = 0.0
    for b in range(n):
        eb = math.exp((values[lo + b] - m) / tau)
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


class RunResult:
    """One training job's outputs: the (n_rows, A) tables of Q, volatility
    and visit counts over the product rows, `rows` (each row's old index
    s*n_q + q, ascending), the episode arrays, the update diagnostics, the
    `seed` and update `bound` the run was given, and `rng_words`, the four
    xorshift128 words the generator ended on. The teacher's and the
    student's training both return it."""

    def __init__(self, q, vol, counts, ep_reward, ep_steps, ep_accept,
                 soft_steps, novel, max_abs_update, n_soft, rows, n_q, seed,
                 bound, rng_words):
        self.q = q
        self.vol = vol
        self.counts = counts
        self.ep_reward = ep_reward
        self.ep_steps = ep_steps
        self.ep_accept = ep_accept
        self.novel_transitions = novel
        self.max_abs_update = max_abs_update
        self.n_soft_violations = n_soft
        self.soft_violation_steps = soft_steps[:n_soft]
        self.rows = rows
        self.n_q = n_q
        self.seed = seed
        self.bound = bound
        self.rng_words = rng_words


def run_training(tables, cdfa, dense, learn, *, episodes, max_steps, seed,
                 stream=0, trust=None, guide=None, use_gate=False,
                 omega_fixed=1.0, use_guidance=False, bound=math.inf):
    """Run one full training job and return its RunResult; see
    student.train_student for semantics.

    The loop walks the product rows of `tables` and `cdfa`, built on the
    first call and reused after. `learn`, `trust` and `guide` are the
    LearningParams, TrustParams and GuidanceParams sections the run reads;
    a section left as None reads as zeros. `dense` is the (q_ad,
    q_ad_known, pi_teacher, pi_known) array bundle, indexed [q, q2] and
    [q, a]; pass None when use_guidance is False. The generator is the
    (seed, stream) stream of `rng.state_from`.

    Per step: epsilon-greedy action, student TD error, trust gate read from
    the pair's volatility as it stood before this step, teacher terms
    (automaton edge value, and the policy gradient on the taken action
    where `tactical_applies`), fused update, then Q += alpha * update and
    the volatility absorbs |update|. With use_guidance False this reduces
    exactly to Q-learning. Update magnitudes above `bound` are recorded
    (the global step indices of the first SOFT_CAP); non-finite updates
    abort.
    """
    if episodes <= 0:
        raise ValueError("episodes must be positive")
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    alpha, gamma = learn.alpha, learn.gamma
    eps, eps_end, eps_decay = (learn.epsilon_start, learn.epsilon_end,
                               learn.epsilon_decay)
    eta = gate_k = theta = v_init = lam_ad = lam_pd = 0.0
    if trust is not None:
        eta, gate_k, theta, v_init = (trust.eta, trust.k, trust.theta,
                                      trust.v_init)
    if guide is not None:
        lam_ad, lam_pd = guide.lambda_ad, guide.lambda_pd
    product = product_tables(tables, cdfa)
    n_q = cdfa.delta.shape[0]
    n_actions = tables.n_actions
    if dense is None:
        dense = (np.zeros(n_q * n_q), np.zeros(n_q * n_q, dtype=np.bool_),
                 np.zeros(n_q * n_actions), np.zeros(n_q, dtype=np.bool_))
    # the outputs, and memoryviews of them and of the tables: flat, with no
    # copy, and their items read as Python scalars. The product tables and
    # q, vol and counts are indexed p*A + a, or p (`stop` marks the rows
    # that end an episode, `dead` those that also refuse acceptance);
    # `accepting` q; the knowledge q*n_q + q2 and q*A + a
    shape = (len(product.rows), n_actions)
    outputs = (np.zeros(shape), np.full(shape, v_init),
               np.zeros(shape, dtype=np.int64), np.zeros(episodes),
               np.zeros(episodes, dtype=np.int64),
               np.zeros(episodes, dtype=np.bool_),
               np.full(SOFT_CAP, -1, dtype=np.int64))
    (next_row, reward, stop, dead, q_of, accepting, q_ad, q_ad_known,
     pi_teacher, pi_known, q, vol, counts, ep_reward, ep_steps, ep_accept,
     soft_steps) = (memoryview(x.reshape(-1)) for x in (
         product.next, product.reward, product.stop, product.dead,
         product.q_of, cdfa.accepting, *dense, *outputs))
    start = product.start
    soft_cap = len(soft_steps)
    last = max_steps - 1
    # greedy[p] == argmax(q, p * n_actions, n_actions) for every row p, as
    # the module docstring says: Q starts at zero, and each write keeps it
    greedy = [0] * len(stop)
    r0, r1, r2, r3 = state_from(seed, stream).tolist()
    n_soft = 0
    novel = 0
    max_abs_dq = 0.0
    first_step = 0  # global index of the episode's first step
    for ep in range(len(ep_reward)):
        e = eps if eps > eps_end else eps_end
        p = start
        total = 0.0
        for t in range(max_steps):
            row = p * n_actions
            # action choice: the greedy action b, unless one draw says explore
            # and one more picks the action
            b = greedy[p]
            a = b
            if e > 0.0:
                r0, r1, r2, r3 = r1, r2, r3, xs128_word(r0, r3)
                if r3 * _INV32 < e:
                    r0, r1, r2, r3 = r1, r2, r3, xs128_word(r0, r3)
                    a = int((r3 * _INV32) * n_actions)
            pa = row + a
            p2 = next_row[pa]
            r = reward[pa]
            done = stop[p2] or t == last
            if done:
                boot = 0.0
            else:
                boot = gamma * q[p2 * n_actions + greedy[p2]]
            old = q[pa]
            d_student = r + boot - old
            if use_guidance:
                if use_gate:
                    om = trust_gate(vol[pa], gate_k, theta)
                else:
                    om = omega_fixed
                qq = q_of[p]
                q2 = q_of[p2]
                r_ad = 0.0
                if q2 != qq:
                    if q_ad_known[qq * n_q + q2]:
                        r_ad = lam_ad * q_ad[qq * n_q + q2]
                    else:
                        novel += 1
                g = 0.0
                # with q2 == qq, p2 != p is the same test as s2 != s
                if pi_known[qq] and tactical_applies(p, qq, p2, q2):
                    g = lam_pd * (pi_teacher[qq * n_actions + a]
                                  - softmax_prob(q, a, row, n_actions, b))
                dq = fused_update(om, d_student, r_ad, g)
            else:
                dq = d_student
            if not math.isfinite(dq):
                raise ValueError("non-finite update; diverged")
            if use_gate:
                vol[pa] = volatility_update(vol[pa], dq, eta)
            adq = abs(dq)
            if adq > max_abs_dq:
                max_abs_dq = adq
            if adq > bound:
                if n_soft < soft_cap:
                    soft_steps[n_soft] = first_step + t
                n_soft += 1
            new = old + alpha * dq
            q[pa] = new
            # keep greedy[p] current: only q[pa] moved, so the row needs a
            # rescan only when its greedy entry fell; ties go to the lower a
            if a == b:
                if new < old:
                    greedy[p] = argmax(q, row, n_actions)
            elif a < b:
                if new >= q[row + b]:
                    greedy[p] = a
            elif new > q[row + b]:
                greedy[p] = a
            counts[pa] += 1
            total += r
            p = p2
            if done:  # always by the last step, t == max_steps - 1
                break
        ep_reward[ep] = total
        ep_steps[ep] = t + 1
        ep_accept[ep] = accepting[q_of[p]] and not dead[p]
        first_step += t + 1
        eps = eps * eps_decay
    return RunResult(*outputs, novel, max_abs_dq, n_soft, product.rows, n_q,
                     seed, bound, (r0, r1, r2, r3))


def greedy_rollout(tables, cdfa, q, max_steps):
    """Follow the greedy policy of `q`, an (n_rows, A) table over the
    product rows of `tables` and `cdfa`, from reset.

    Returns (accepted, steps, total_reward). Ends on acceptance, death, a
    revisited row (a guaranteed loop under a deterministic policy), or the
    step budget.
    """
    product = product_tables(tables, cdfa)
    p = product.start
    seen = {p}
    total = 0.0
    for t in range(max_steps):
        a = argmax(q[p])
        total += float(product.reward[p, a])
        p = int(product.next[p, a])
        if cdfa.accepting[product.q_of[p]]:
            return True, t + 1, total
        if product.dead[p]:
            return False, t + 1, total
        if p in seen:
            return False, t + 1, total
        seen.add(p)
    return False, max_steps, total
