"""Independent reference computations the test suite checks against.

Everything here is deliberately written from the public contracts, not from
the library internals: value iteration runs as synchronous numpy backups
over the product MDP, the Q-learning reference walks the raw environment
objects with plain dicts, and the scalar helpers are one-line formula
transcriptions. Agreement between these and the library is the evidence;
sharing code with the implementation would make the tests circular.

The sparse reference (`sparse_results` and the two `reference_*`
distillations) is the dict-backed form that training results and
distillation once took: the library distillation, which reads the kernel's
arrays over product rows, must match it bit for bit. `dense_run` scatters
those rows back to the dense (s*n_q + q) layout the kernel once returned.
`toy_teacher` goes the other way, from hand-written sparse inputs to the
arrays the library reads.

`reference_train_run` is the training loop as it was before its per-step
bookkeeping was cut (a maintained greedy action per row, RNG words held in
locals) and before it walked product rows: it looks the automaton up each
step and indexes the dense layout. It calls the library's formulas, so it
pins the loop's bookkeeping, not the formulas: the kernel's outputs,
scattered by `dense_run`, must match it bit for bit.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from cadent.automaton import (ProductState, accepting_path_edges,
                              is_accepting, step_automaton)
from cadent.envs.tables import EnvTables, compile_env, product_tables
from cadent.kernels import (argmax, fused_update, softmax_prob,
                            tactical_applies, trust_gate, volatility_update)
from cadent.rng import RandomState, xs128_next
from cadent.tabular import QTable, softmax_policy
from cadent.teacher import TeacherError


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def naive_softmax(row, tau):
    """Direct Boltzmann formula, no stabilization. Moderate inputs only."""
    exps = [math.exp(v / tau) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


def ewma_closed_form(n, eta, delta_mag, v0=0.0):
    """V after n updates with constant |delta|: geometric interpolation."""
    w = (1.0 - eta) ** n
    return w * v0 + (1.0 - w) * delta_mag


def value_iteration(tables, cdfa, gamma, tol=1e-12, max_iter=200000):
    """Optimal action values of the product MDP by synchronous backups.

    Product index convention matches the library docs: pid = s * n_q + q.
    Terminal (and dead) successors contribute no continuation value.
    """
    n_env, n_a = tables.next_state.shape
    n_q = cdfa.delta.shape[0]
    s_of = np.arange(n_env).repeat(n_q)
    q_of = np.tile(np.arange(n_q), n_env)
    s2 = tables.next_state[s_of]
    ev = tables.event[s_of]
    q2 = cdfa.delta[q_of[:, None], ev]
    pid2 = s2 * n_q + q2
    r = tables.reward[s_of]
    cont = (~(tables.terminal | tables.dead))[s2]
    q = np.zeros((n_env * n_q, n_a), dtype=np.float64)
    for _ in range(max_iter):
        v = q.max(axis=1)
        q_new = r + gamma * cont * v[pid2]
        if np.abs(q_new - q).max() < tol:
            return q_new
        q = q_new
    raise RuntimeError("value iteration did not converge")


def dict_value_iteration(transitions, rewards, terminal, gamma, tol=1e-12):
    """Value iteration on a tiny dict MDP: {(s, a): s2}, {(s, a): r}."""
    states = sorted({s for (s, _a) in transitions})
    actions = sorted({a for (_s, a) in transitions})
    q = {(s, a): 0.0 for s in states for a in actions}
    while True:
        worst = 0.0
        q_new = {}
        for (s, a), s2 in transitions.items():
            if s2 in terminal:
                boot = 0.0
            else:
                boot = gamma * max(q[(s2, b)] for b in actions)
            val = rewards[(s, a)] + boot
            worst = max(worst, abs(val - q[(s, a)]))
            q_new[(s, a)] = val
        q = q_new
        if worst < tol:
            return q


def q_rows_from_table(tables, cdfa, qtable):
    """(n_rows, n_actions) array over the product rows (the layout
    `greedy_rollout` reads) from a sparse product-keyed table."""
    n_q = cdfa.delta.shape[0]
    dense = np.zeros((tables.n_states * n_q, tables.n_actions),
                     dtype=np.float64)
    index = {state: i for i, state in enumerate(tables.states)}
    for (key, a), v in qtable.items():
        s = index[key.env]
        qi = cdfa.state_index[key.q]
        dense[s * n_q + qi, a] = v
    return dense[product_tables(tables, cdfa).rows]


def reference_q_learning(env, episodes, seed, stream=0, alpha=0.1,
                         gamma=0.99, eps_start=1.0, eps_end=0.05,
                         eps_decay=0.995):
    """Plain tabular Q-learning over the raw environment and automaton.

    Uses only dicts, env.step, step_automaton, and the shared RandomState.
    Draw discipline: one uniform decides explore/exploit (skipped when the
    effective epsilon is 0), one more picks the explored action. Ties break
    to the lowest action index. Timeout steps do not bootstrap.
    """
    dfa = env.dfa
    n_actions = env.n_actions
    rng = RandomState(seed, stream)
    q = {}

    def row_max(s, qq):
        return max(q.get(((s, qq), a), 0.0) for a in range(n_actions))

    def row_argmax(s, qq):
        best_a, best_v = 0, q.get(((s, qq), 0), 0.0)
        for a in range(1, n_actions):
            v = q.get(((s, qq), a), 0.0)
            if v > best_v:
                best_a, best_v = a, v
        return best_a

    ep_reward = np.zeros(episodes, dtype=np.float64)
    ep_steps = np.zeros(episodes, dtype=np.int64)
    ep_accept = np.zeros(episodes, dtype=np.bool_)
    eps = eps_start
    for ep in range(episodes):
        e = max(eps, eps_end)
        s = env.reset()
        qq = dfa.start
        total = 0.0
        steps = 0
        acc = False
        for t in range(env.max_steps):
            explore = e > 0.0 and rng.uniform() < e
            a = rng.randint(n_actions) if explore else row_argmax(s, qq)
            out = env.step(s, a)
            q2 = step_automaton(dfa, qq, out.event)
            done = out.done or t == env.max_steps - 1
            boot = 0.0 if done else gamma * row_max(out.state, q2)
            delta = out.reward + boot - q.get(((s, qq), a), 0.0)
            q[((s, qq), a)] = q.get(((s, qq), a), 0.0) + alpha * delta
            total += out.reward
            steps = t + 1
            s, qq = out.state, q2
            if done:
                acc = is_accepting(dfa, qq) and not env.is_dead(s)
                break
        ep_reward[ep] = total
        ep_steps[ep] = steps
        ep_accept[ep] = acc
        eps = eps * eps_decay
    return q, ep_reward, ep_steps, ep_accept


# ---------------------------------------------------------------------------
# the reachable product


def product_walk(tables, cdfa):
    """Old indices s*n_q + q of the (env state, automaton state) pairs
    reachable from the start pair, by a plain breadth-first walk that does
    not expand terminal or dead pairs."""
    n_q = cdfa.delta.shape[0]
    start = (int(tables.start), int(cdfa.start))
    seen = {start}
    frontier = [start]
    while frontier:
        s, q = frontier.pop()
        if tables.terminal[s] or tables.dead[s]:
            continue
        for a in range(tables.n_actions):
            nxt = (int(tables.next_state[s, a]),
                   int(cdfa.delta[q, tables.event[s, a]]))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return {s * n_q + q for s, q in seen}


def product_violations(tables, cdfa, product):
    """Where the product breaks the rules every benchmark env keeps, read
    off the product tables' live rows and their edges.

    Each live env state pins down one automaton state (dead sinks absorb
    runs from any automaton state and are exempt), an event advances the
    automaton and the null event does not, and a successor is terminal
    exactly when its automaton state accepts.
    """
    n_q = cdfa.delta.shape[0]
    s_of = product.rows // n_q
    live = np.flatnonzero(~product.stop)
    s = s_of[live][:, None]
    q = product.q_of[live][:, None]
    s2 = s_of[product.next[live]]
    q2 = product.q_of[product.next[live]]
    ev = tables.event[s_of[live]]
    out = []
    for i, a in np.argwhere((ev != 0) & (q2 == q)).tolist():
        out.append(f"event {ev[i, a]} at state {s[i, 0]} action {a} does "
                   f"not advance the automaton from {q[i, 0]}")
    for i, a in np.argwhere((ev == 0) & (q2 != q)).tolist():
        out.append(f"null event moved the automaton at state {s[i, 0]}")
    for i, a in np.argwhere(tables.terminal[s2]
                            != cdfa.accepting[q2]).tolist():
        out.append(f"terminal/accepting mismatch at env state {s2[i, a]} "
                   f"(q={q2[i, a]})")
    s_live = s_of[~tables.dead[s_of]]
    q_live = product.q_of[~tables.dead[s_of]]
    states, n_rows = np.unique(s_live, return_counts=True)
    for st in states[n_rows > 1].tolist():
        qs = q_live[s_live == st].tolist()
        out.append(f"env state {st} reached under automaton states "
                   f"{qs[0]} and {qs[1]}")
    return out


# ---------------------------------------------------------------------------
# the sparse reference for results and distillation


def dense_run(run, n_states, v_init=0.0):
    """A run's Q, volatility and visit counts scattered from its product
    rows to the dense (n_states * n_q, A) layout, row s*n_q + q, as the
    kernel once returned them: rows it never reached hold 0 and vol
    `v_init`."""
    shape = (n_states * run.n_q, run.q.shape[1])
    dense = SimpleNamespace(q=np.zeros(shape), vol=np.full(shape, v_init),
                            counts=np.zeros(shape, dtype=np.int64),
                            n_q=run.n_q)
    dense.q[run.rows] = run.q
    dense.vol[run.rows] = run.vol
    dense.counts[run.rows] = run.counts
    return dense


def sparse_results(env, run, gated=False):
    """Sparse views of a run, one entry per updated pair in np.argwhere
    order over the dense layout: the Q table, visit counts, the log of
    automaton triggers ((ProductState, action), (q, q')), and, for a gated
    run, the volatility of each pair."""
    tables = compile_env(env)
    cdfa = env.dfa.compiled()
    names = list(env.dfa.states)
    run = dense_run(run, tables.n_states)
    out = SimpleNamespace(qtable=QTable(tables.n_actions), visits={},
                          transition_log=set(), volatility={})
    for pid, a in np.argwhere(run.counts > 0):
        s, q = divmod(int(pid), run.n_q)
        a = int(a)
        key = ProductState(tables.states[s], names[q])
        out.qtable.set(key, a, run.q[pid, a])
        out.visits[(key, a)] = int(run.counts[pid, a])
        if gated:
            out.volatility[(key, a)] = float(run.vol[pid, a])
        q2 = int(cdfa.delta[q, int(tables.event[s, a])])
        if q2 != q:
            out.transition_log.add(((key, a), (names[q], names[q2])))
    return out


def reference_automaton_values(qtable, dfa, transition_log):
    """Mean Q over the distinct triggers of each edge, summed in sorted
    order; TeacherError when an accepting-path edge has no trigger."""
    by_edge = {}
    for (key, a), edge in sorted(transition_log):
        by_edge.setdefault(edge, []).append(qtable.get(key, a))
    missing = sorted(accepting_path_edges(dfa) - set(by_edge))
    if missing:
        raise TeacherError(
            f"teacher never triggered accepting-path edges {missing}; "
            f"cannot distill strategic values")
    return {edge: sum(vals) / len(vals) for edge, vals in
            sorted(by_edge.items())}


def reference_teacher_policy(qtable, visits, dfa, tau, n_actions,
                             aggregation="visitation_weighted"):
    """Softmax of the (visit-weighted) mean Q row per automaton state, rows
    added in sorted ProductState order; TeacherError when the head of an
    accepting-path edge has no visits."""
    state_visits = {}
    for (key, _a), n in visits.items():
        state_visits[key] = state_visits.get(key, 0) + n
    by_q = {}
    for key in sorted(state_visits):
        by_q.setdefault(key.q, []).append(key)
    pi = {}
    for q in sorted(by_q):
        acc = np.zeros(n_actions, dtype=np.float64)
        weight_total = 0.0
        for key in by_q[q]:
            w = (float(state_visits[key])
                 if aggregation == "visitation_weighted" else 1.0)
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


def reference_knowledge(result, dfa, tau, aggregation="visitation_weighted"):
    """(q_ad, pi) of a teacher result through the sparse reference."""
    ref = sparse_results(result.env, result.run)
    q_ad = reference_automaton_values(ref.qtable, dfa, ref.transition_log)
    pi = reference_teacher_policy(ref.qtable, ref.visits, dfa, tau,
                                  ref.qtable.n_actions, aggregation)
    return q_ad, pi


def toy_teacher(dfa, qtable, log=(), visits=None):
    """A teacher result whose run and env tables encode sparse inputs; its
    run has a row for every (env state, automaton state) pair.

    `qtable` gives Q, `visits` ({(ProductState, action): count}) the visit
    counts, and `log` the automaton triggers ((key, action), (q, q')); a
    logged pair counts as visited once unless `visits` says otherwise. Env
    states are indexed in order of first appearance, so the dense index
    order need not be the sorted one. Each (state, action) gets the first
    event id that moves every automaton state it was visited under as the
    log says (or leaves it in place).
    """
    counts = dict(visits or {})
    for key_a, _edge in log:
        counts.setdefault(key_a, 1)
    states = list(dict.fromkeys(
        key.env for (key, _a), _v in list(qtable.items()) + sorted(log)
        + list(counts.items())))
    index = {st: i for i, st in enumerate(states)}
    cdfa = dfa.compiled()
    n_q = len(dfa.states)
    shape = (len(states) * n_q, qtable.n_actions)
    q = np.zeros(shape, dtype=np.float64)
    n = np.zeros(shape, dtype=np.int64)
    for (key, a), v in qtable.items():
        q[index[key.env] * n_q + cdfa.state_index[key.q], a] = v
    targets = {}
    for (key, a), c in counts.items():
        s, qi = index[key.env], cdfa.state_index[key.q]
        n[s * n_q + qi, a] = c
        targets.setdefault((s, a), {})[qi] = qi
    for ((key, a), (_q, q2)) in log:
        s, qi = index[key.env], cdfa.state_index[key.q]
        targets[(s, a)][qi] = cdfa.state_index[q2]
    event = np.zeros((len(states), qtable.n_actions), dtype=np.int16)
    for (s, a), want in targets.items():
        event[s, a] = next(e for e in range(cdfa.delta.shape[1])
                           if all(cdfa.delta[qi, e] == q2
                                  for qi, q2 in want.items()))
    none = np.zeros(len(states), dtype=np.bool_)
    tables = EnvTables(states=states,
                       next_state=np.zeros(event.shape, dtype=np.int32),
                       reward=np.zeros(event.shape), event=event,
                       terminal=none, dead=none, start=0,
                       n_actions=qtable.n_actions)
    run = SimpleNamespace(q=q, counts=n, rows=np.arange(len(q)), n_q=n_q)
    return SimpleNamespace(run=run,
                           env=SimpleNamespace(_tables=tables, dfa=dfa))


# ---------------------------------------------------------------------------
# the training loop before its per-step bookkeeping was cut

_INV32 = 2.0 ** -32


def reference_train_run(next_state, reward, event, terminal, dead, delta,
                        accepting, q_ad, q_ad_known, pi_teacher, pi_known,
                        rng_state, q, vol, counts, ep_reward, ep_steps,
                        ep_accept, soft_steps, start, q_start, alpha, gamma,
                        eps_start, eps_end, eps_decay, eta, gate_k, theta,
                        lam_ad, lam_pd, use_gate, omega_fixed, use_guidance,
                        max_steps, bound):
    """The training kernel as it stood before it kept each row's greedy
    action and its RNG words in locals and walked product rows: two argmax
    scans a step, the RNG state read and written through `rng_state` on
    every draw, and the automaton stepped on each step's event.

    Run one full training job; see student.train_student for semantics.

    Every array is flat. The env tables are indexed s*A + a, the automaton
    q*n_events + ev, the knowledge q*n_q + q2 and q*A + a, and the outputs
    q, vol and counts (s*n_q + q)*A + a. The outputs arrive allocated (vol
    filled with v_init) and are written in place; the episode count is
    len(ep_reward) and the soft-violation cap len(soft_steps).

    Per step: epsilon-greedy action, student TD error, trust gate read from
    the pair's volatility as it stood before this step, teacher terms
    (automaton edge value, and the policy gradient on the taken action
    where `tactical_applies`), fused update, then Q += alpha * update and
    the volatility absorbs |update|. With use_guidance False this reduces
    exactly to Q-learning. Update magnitudes above `bound` are recorded
    (first len(soft_steps) global step indices); non-finite updates abort.
    Returns (novel edge crossings, max |update|, soft violations).
    """
    n_actions = len(next_state) // len(terminal)
    n_q = len(accepting)
    n_events = len(delta) // n_q
    soft_cap = len(soft_steps)
    n_soft = 0
    novel = 0
    max_abs_dq = 0.0
    global_step = 0
    eps = eps_start
    for ep in range(len(ep_reward)):
        e = eps if eps > eps_end else eps_end
        s = start
        qq = q_start
        total = 0.0
        steps = 0
        acc = False
        for t in range(max_steps):
            row = (s * n_q + qq) * n_actions
            # action choice: one draw to branch, one more when exploring
            if e > 0.0 and xs128_next(rng_state) * _INV32 < e:
                a = int((xs128_next(rng_state) * _INV32) * n_actions)
            else:
                a = argmax(q, row, n_actions)
            sa = s * n_actions + a
            s2 = int(next_state[sa])
            r = reward[sa]
            q2 = int(delta[qq * n_events + int(event[sa])])
            done = terminal[s2] or dead[s2] or t == max_steps - 1
            if done:
                boot = 0.0
            else:
                row2 = (s2 * n_q + q2) * n_actions
                boot = gamma * q[row2 + argmax(q, row2, n_actions)]
            pa = row + a
            d_student = r + boot - q[pa]
            if use_guidance:
                if use_gate:
                    om = trust_gate(vol[pa], gate_k, theta)
                else:
                    om = omega_fixed
                r_ad = 0.0
                if q2 != qq:
                    if q_ad_known[qq * n_q + q2]:
                        r_ad = lam_ad * q_ad[qq * n_q + q2]
                    else:
                        novel += 1
                g = 0.0
                if pi_known[qq] and tactical_applies(s, qq, s2, q2):
                    g = lam_pd * (pi_teacher[qq * n_actions + a]
                                  - softmax_prob(q, a, row, n_actions))
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
                    soft_steps[n_soft] = global_step
                n_soft += 1
            q[pa] = q[pa] + alpha * dq
            counts[pa] += 1
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
    return novel, max_abs_dq, n_soft
