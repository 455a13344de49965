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

`toy_product` and its helpers hand-build tiny products for short
`run_training` calls, so the worked examples of the update rule (the TD
error, the Q update, the action choice, the two teacher terms, the trust
gate, the volatility trace and the fused update) check the kernel itself,
the one place the rule is written. `td_error`, `strategic_reward`,
`tactical_gradient`, `trust_gate`, `volatility_update` and `fused_update`
are the short transcriptions those examples compare with; the last three
take the same float expressions in the same order as the kernel, so they
give its bits.

`reference_train_run` is the training loop as it was before its per-step
bookkeeping was cut (a maintained greedy action per row, RNG words held in
locals) and before it walked product rows: it looks the automaton up each
step and indexes the dense layout. Its formulas (argmax, the softmax pull,
the tactical test, and the three transcriptions above) are its own, the
same float expressions in the same order as the kernel's, so it pins the
formulas as well as the loop's bookkeeping: the kernel's outputs,
scattered by `dense_run`, must match it bit for bit.

`read_run_csv` reads a run CSV back with the `csv` module, for the tests
that check what the harness and the CLI wrote.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from types import SimpleNamespace

import numpy as np

from cadent.automaton import (ProductState, accepting_path_edges,
                              is_accepting, step_automaton)
from cadent.envs.tables import EnvTables, compile_env
from cadent.harness import RUN_CSV_HEADER
from cadent.kernels import run_training, softmax_policy, sum_in_order
from cadent.rng import RandomState, xs128_next
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


def td_error(reward, q_sa, next_max, gamma, done):
    """One-step TD error; a step that ends the episode does not bootstrap."""
    return reward + (0.0 if done else gamma * next_max) - q_sa


def strategic_reward(q_ad, q, q_next, lam):
    """lam times the distilled value of the edge q -> q_next; 0 without
    automaton progress or on an edge the teacher never crossed."""
    return lam * q_ad.get((q, q_next), 0.0) if q_next != q else 0.0


def tactical_gradient(pi, q, row, action, lam):
    """lam times the teacher's probability of `action` at q less the
    student's temperature-1 softmax over `row`; 0 where pi has no q."""
    return lam * (pi[q][action] - naive_softmax(row, 1.0)[action]) \
        if q in pi else 0.0


def trust_gate(v, k, theta):
    """omega = 1 / (1 + exp(k (v - theta))), the student's own weight at
    volatility v, through the exp of a non-positive argument."""
    x = k * (v - theta)
    if x > 0.0:
        z = math.exp(-x)
        return z / (1.0 + z)
    return 1.0 / (1.0 + math.exp(x))


def volatility_update(v, delta, eta):
    """The volatility trace after an update of size delta: EWMA of |delta|."""
    return (1.0 - eta) * v + eta * abs(delta)


def fused_update(omega, delta, r_ad, g_pd):
    """The student's TD error plus the teacher terms at weight 1 - omega."""
    return delta + (1.0 - omega) * (r_ad + g_pd)


def read_qtable(path):
    """The {(state, action): value} table a `save_qtable` file holds, in
    file order, read without validation."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)

    def key(node):
        return tuple(key(x) for x in node["t"]) if "t" in node else node["v"]

    return {(key(e["state"]), e["action"]): e["value"]
            for e in payload["entries"]}


def q_row(qtable, key, n_actions):
    """Dense value row of one state of a sparse table (absent reads 0.0)."""
    return np.array([qtable.get((key, a), 0.0) for a in range(n_actions)])


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
    out = SimpleNamespace(qtable={}, visits={}, transition_log=set(),
                          volatility={})
    for pid, a in np.argwhere(run.counts > 0):
        s, q = divmod(int(pid), run.n_q)
        a = int(a)
        key = ProductState(tables.states[s], names[q])
        out.qtable[(key, a)] = float(run.q[pid, a])
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
        by_edge.setdefault(edge, []).append(qtable.get((key, a), 0.0))
    missing = sorted(accepting_path_edges(dfa) - set(by_edge))
    if missing:
        raise TeacherError(
            f"teacher never triggered accepting-path edges {missing}; "
            f"cannot distill strategic values")
    return {edge: sum_in_order(vals) / len(vals) for edge, vals in
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
            acc += w * q_row(qtable, key, n_actions)
            weight_total += w
        pi[q] = softmax_policy(acc / weight_total, tau)
    required = sorted({q for (q, _q2) in accepting_path_edges(dfa)})
    missing = [q for q in required if q not in pi]
    if missing:
        raise TeacherError(
            f"teacher has no visitation under automaton states {missing}; "
            f"cannot distill an abstract policy")
    return pi


def reference_knowledge(ref, dfa, n_actions, tau,
                        aggregation="visitation_weighted"):
    """(q_ad, pi) through the sparse reference, from `ref`, a teacher's
    run on an env with automaton `dfa` as `sparse_results` views it."""
    q_ad = reference_automaton_values(ref.qtable, dfa, ref.transition_log)
    pi = reference_teacher_policy(ref.qtable, ref.visits, dfa, tau,
                                  n_actions, aggregation)
    return q_ad, pi


def toy_teacher(dfa, qtable, n_actions, log=(), visits=None):
    """A teacher's (run, env) whose arrays and env tables encode sparse
    inputs; the run has a row for every (env state, automaton state) pair.

    `qtable` ({(ProductState, action): value}) gives Q over `n_actions`
    actions, `visits` ({(ProductState, action): count}) the visit
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
    shape = (len(states) * n_q, n_actions)
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
    event = np.zeros((len(states), n_actions), dtype=np.int16)
    for (s, a), want in targets.items():
        event[s, a] = next(e for e in range(cdfa.delta.shape[1])
                           if all(cdfa.delta[qi, e] == q2
                                  for qi, q2 in want.items()))
    none = np.zeros(len(states), dtype=np.bool_)
    tables = EnvTables(states=states,
                       next_state=np.zeros(event.shape, dtype=np.int32),
                       reward=np.zeros(event.shape), event=event,
                       terminal=none, dead=none, start=0,
                       n_actions=n_actions)
    run = SimpleNamespace(q=q, counts=n, rows=np.arange(len(q)), n_q=n_q)
    return run, SimpleNamespace(_tables=tables, dfa=dfa)


# ---------------------------------------------------------------------------
# hand-built products for short kernel runs


def toy_product(next_state, reward, event=None, terminal=(), delta=((0,),),
                q_start=0, accepting=(), dead=()):
    """Env tables and a compiled automaton holding what `run_training` and
    `greedy_rollout` read. Episodes start in env state 0; env state s and
    action a go to next_state[s][a] with reward[s][a] and event[s][a]
    (default 0, the null event). `terminal` lists the env states that end
    an episode, `dead` those that end it in failure. The automaton starts
    in `q_start`, steps q -> delta[q][e] and accepts the states listed in
    `accepting`."""
    next_state = np.array(next_state, dtype=np.int32)

    def flags(states):
        out = np.zeros(len(next_state), dtype=np.bool_)
        out[list(states)] = True
        return out

    tables = SimpleNamespace(
        next_state=next_state, reward=np.array(reward, dtype=np.float64),
        event=(np.zeros_like(next_state) if event is None
               else np.array(event, dtype=np.int32)),
        terminal=flags(terminal), dead=flags(dead), start=0,
        n_actions=next_state.shape[1])
    delta = np.array(delta, dtype=np.int32)
    accept = np.zeros(len(delta), dtype=np.bool_)
    accept[list(accepting)] = True
    return tables, SimpleNamespace(delta=delta, accepting=accept,
                                   start=q_start)


def toy_knowledge(n_q, n_actions, q_ad=(), pi=()):
    """The kernel's knowledge arrays (q_ad, q_ad_known, pi_teacher,
    pi_known) from {(q, q2): value} and {q: probabilities}, keyed by
    automaton state index."""
    values = np.zeros((n_q, n_q))
    known = np.zeros((n_q, n_q), dtype=np.bool_)
    for (q, q2), v in dict(q_ad).items():
        values[q, q2] = v
        known[q, q2] = True
    probs = np.zeros((n_q, n_actions))
    has = np.zeros(n_q, dtype=np.bool_)
    for q, row in dict(pi).items():
        probs[q] = row
        has[q] = True
    return values, known, probs, has


# With the gate on and eta 1, a pair's volatility is the magnitude of its
# last update, (1 - 1) * v + 1 * |update|; without teacher terms that is
# its last |TD error|.
LAST_UPDATE = SimpleNamespace(eta=1.0, k=1.0, theta=0.0, v_init=0.0)


def toy_run(product, knowledge=None, *, lam_ad=0.0, lam_pd=0.0, omega=0.0,
            trust=None, alpha=1.0, gamma=0.0, epsilon=0.0, episodes=1,
            max_steps=1, seed=1):
    """`run_training` on a toy product at a constant epsilon. Given
    `knowledge` the teacher terms count at weights lam_ad and lam_pd, by
    default in full (a fixed omega of 0); given `trust` the gate is on."""
    learn = SimpleNamespace(alpha=alpha, gamma=gamma, epsilon_start=epsilon,
                            epsilon_end=epsilon, epsilon_decay=1.0)
    return run_training(
        *product, knowledge, learn, episodes=episodes, max_steps=max_steps,
        seed=seed, trust=trust,
        guide=SimpleNamespace(lambda_ad=lam_ad, lambda_pd=lam_pd),
        use_gate=trust is not None, omega_fixed=omega,
        use_guidance=knowledge is not None)


def row_of(res, s, q=0):
    """Index of the product row of env state s under automaton state q in
    a run's (n_rows, A) outputs."""
    p = int(np.searchsorted(res.rows, s * res.n_q + q))
    assert p < len(res.rows) and res.rows[p] == s * res.n_q + q, (
        f"(env state {s}, automaton state {q}) is not a product row")
    return p


def edge_product(n_q, q, q2, reward=0.0):
    """One step from env state 0 to the terminal env state 1 on event 1,
    with `reward`, which takes automaton state q to q2; the automaton
    starts in q and every other (state, event) pair stays put."""
    delta = [[i, i] for i in range(n_q)]
    delta[q][1] = q2
    return toy_product([[1], [1]], [[reward], [0.0]], event=[[1], [0]],
                       terminal=[1], delta=delta, q_start=q)


def corridor(length, n_actions):
    """Env states 0 .. length, every action moving one state on with reward
    0 and the last state terminal: each step of an episode starts from a
    row it has not updated, so its Q row is still zero."""
    return toy_product(
        [[min(s + 1, length)] * n_actions for s in range(length + 1)],
        np.zeros((length + 1, n_actions)), terminal=[length])


@functools.cache
def _visits_a_last(n, a):
    """(seed, episodes): a run at epsilon 1 over n actions whose last
    episode is its first that takes action a, after every other action.
    An exploring step draws two words, the explore test and the action,
    as RandomState's uniform and randint."""
    seed = 0
    while True:
        seed += 1
        draws = RandomState(seed)
        taken = []
        while not taken or taken[-1] != a:
            draws.uniform()
            taken.append(draws.randint(n))
        if len(set(taken)) == n:
            return seed, len(taken)


def kernel_pull(pi, lam, row, a):
    """The pull g_PD the kernel pays for action a of the Q row `row`, whose
    entry a must be 0.0, under the teacher policy `pi` (None: no policy).

    Every action of env state 0 ends the episode in the terminal env state
    1. Action a stays in the automaton state with reward 0; action b != a
    crosses an edge the knowledge has no value for, so it earns no teacher
    term, with reward row[b]. At alpha 1, gamma 0 and epsilon 1 each
    episode is one random step, and a step of b sets its Q to row[b],
    repeat or not. The run takes a for the first time in its last episode,
    after every other action (`_visits_a_last`), so that step reads the row
    `row`, and Q of a is then the pull alone, the teacher counting in full.
    """
    n = len(row)
    assert row[a] == 0.0, row
    seed, episodes = _visits_a_last(n, a)
    product = toy_product(
        [[1] * n, [1] * n], [list(row), [0.0] * n],
        event=[[0 if b == a else 1 for b in range(n)], [0] * n],
        terminal=[1], delta=[[0, 1], [1, 1]])
    knowledge = toy_knowledge(2, n, pi={} if pi is None else {0: pi})
    res = toy_run(product, knowledge, lam_pd=lam, epsilon=1.0,
                  episodes=episodes, seed=seed)
    assert res.counts[0, a] == 1 and res.counts[0].min() >= 1, res.counts
    return res.q[0, a]


def kernel_fused(omega, delta, teacher):
    """The kernel's fused update at a fixed omega: Q after one step at
    alpha 1 from the zero table that ends the episode with reward `delta`
    (so the student's TD error is `delta`) and crosses an edge whose value
    r_AD is `teacher`, counted in full."""
    res = toy_run(edge_product(2, 0, 1, reward=delta),
                  toy_knowledge(2, 1, q_ad={(0, 1): teacher}), lam_ad=1.0,
                  omega=omega)
    return res.q[0, 0]


def kernel_teacher_weight(v, k, theta):
    """1 - omega, the teacher's weight under the kernel's trust gate at
    volatility v: Q after one step at alpha 1, from v_init = v, whose only
    term is an edge value r_AD = 1 (see `kernel_fused`)."""
    res = toy_run(edge_product(2, 0, 1),
                  toy_knowledge(2, 1, q_ad={(0, 1): 1.0}), lam_ad=1.0,
                  trust=SimpleNamespace(eta=1.0, k=k, theta=theta,
                                        v_init=v))
    return res.q[0, 0]


def kernel_volatility(v, eta, reward, steps=1, alpha=0.0):
    """The kernel's volatility trace from v_init = v after `steps` updates
    of one pair, a wall bump with `reward`, at gamma 0 and without teacher
    terms: update n is reward - Q, with Q moved by alpha times each update
    (at alpha 0, every update is `reward`)."""
    res = toy_run(toy_product([[0]], [[reward]]), alpha=alpha,
                  max_steps=steps,
                  trust=SimpleNamespace(eta=eta, k=1.0, theta=0.0,
                                        v_init=v))
    assert res.counts[0, 0] == steps
    return res.vol[0, 0]


# ---------------------------------------------------------------------------
# the training loop before its per-step bookkeeping was cut

_INV32 = 2.0 ** -32


def _row_argmax(q, row, n):
    """Offset of the largest of q[row:row+n]; ties go to the lowest."""
    best_a, best_v = 0, q[row]
    for b in range(1, n):
        if q[row + b] > best_v:
            best_a, best_v = b, q[row + b]
    return best_a


def _row_softmax_prob(q, a, row, n):
    """Temperature-1 softmax probability of offset a over q[row:row+n],
    shifted by the row's greedy value and summed in action order."""
    m = q[row + _row_argmax(q, row, n)]
    tot = 0.0
    pa = 0.0
    for b in range(n):
        eb = math.exp(q[row + b] - m)
        tot += eb
        if b == a:
            pa = eb
    return pa / tot


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
    when the step moves the env state within an automaton state), fused
    update, then Q += alpha * update and the volatility absorbs |update|.
    With use_guidance False this reduces exactly to Q-learning. Update
    magnitudes above `bound` are recorded (first len(soft_steps) global
    step indices); non-finite updates abort.
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
                a = _row_argmax(q, row, n_actions)
            sa = s * n_actions + a
            s2 = int(next_state[sa])
            r = reward[sa]
            q2 = int(delta[qq * n_events + int(event[sa])])
            done = terminal[s2] or dead[s2] or t == max_steps - 1
            if done:
                boot = 0.0
            else:
                row2 = (s2 * n_q + q2) * n_actions
                boot = gamma * q[row2 + _row_argmax(q, row2, n_actions)]
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
                if pi_known[qq] and q2 == qq and s2 != s:
                    g = lam_pd * (pi_teacher[qq * n_actions + a]
                                  - _row_softmax_prob(q, a, row, n_actions))
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


def read_run_csv(path):
    """A run CSV, column by column: the reward, steps and accept columns as
    the episode arrays `ep_reward`, `ep_steps` and `ep_accept`, the others
    as lists of their values."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert ",".join(header) == RUN_CSV_HEADER, path
    col = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    assert set(col["reached_accept"]) <= {"0", "1"}, path
    return SimpleNamespace(
        variant=col["variant"], env=col["env"],
        seed=[int(x) for x in col["seed"]],
        episode=[int(x) for x in col["episode"]],
        cumulative_steps=[int(x) for x in col["cumulative_steps"]],
        ep_reward=np.array([float(x) for x in col["reward"]],
                           dtype=np.float64),
        ep_steps=np.array([int(x) for x in col["steps"]], dtype=np.int64),
        ep_accept=np.array([x == "1" for x in col["reached_accept"]],
                           dtype=np.bool_))
