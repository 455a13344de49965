"""Dense transition tables compiled from an environment by exhaustion.

Every benchmark environment is a finite, deterministic MDP, so its reachable
state set can be enumerated breadth-first from the reset state. The result is
a set of flat arrays (successor, reward, event id, terminal/dead flags) that
training kernels, planners, and reference oracles all consume, keeping the
pure-Python `step` the single definition of the dynamics.

`product_tables` joins the tables with the task automaton: the (env state,
automaton state) pairs reachable from the start, which the training kernel
walks. On every benchmark env a live env state already fixes the
automaton state, so there are about as many rows as env states, not n_q
times as many.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass
class EnvTables:
    """Array form of one environment. State index 0 is the reset state."""

    states: list                 # index -> state tuple
    next_state: np.ndarray       # (S, A) int32
    reward: np.ndarray           # (S, A) float64
    event: np.ndarray            # (S, A) int16; 0 = null event
    terminal: np.ndarray         # (S,) bool; task complete
    dead: np.ndarray             # (S,) bool; unrecoverable failure
    start: int
    n_actions: int
    # (cdfa, ProductTables) of the last product_tables call
    product: tuple = field(default=None, repr=False, compare=False)

    @property
    def n_states(self):
        return len(self.states)

    @cached_property
    def rank(self):
        """(S,) position of each state index in the sorted order of the
        state tuples, the order in which state-keyed results are summed."""
        order = sorted(range(self.n_states), key=self.states.__getitem__)
        rank = np.empty(self.n_states, dtype=np.int64)
        rank[order] = np.arange(self.n_states)
        return rank


def compile_env(env):
    """Enumerate the reachable state space of `env` into dense tables.

    Traversal is breadth-first in action-index order, so state indices are a
    deterministic function of the environment alone. Terminal and dead states
    are indexed but never expanded; their table rows self-loop with zero
    reward and are never read by a correct training loop. Each row is
    appended to flat typed buffers, which become the tables without a copy.
    """
    if env._tables is not None:
        return env._tables
    symbols = {None: 0, **env.dfa.compiled().symbol_index}
    n_actions = env.n_actions
    actions = range(n_actions)
    step, is_terminal, is_dead = env.step, env.is_terminal, env.is_dead
    start = env.reset()
    states = [start]
    index = {start: 0}
    terminal = bytearray([bool(is_terminal(start))])
    dead = bytearray([bool(is_dead(start))])
    next_state, reward, event = array("i"), array("d"), array("h")
    stop_reward = array("d", [0.0]) * n_actions
    stop_event = array("h", [0]) * n_actions
    # `states` grows while it is walked: the iterator reaches every state
    for head, s in enumerate(states):
        if terminal[head] or dead[head]:
            next_state.extend([head] * n_actions)
            reward.extend(stop_reward)
            event.extend(stop_event)
            continue
        for a in actions:
            nxt, r, e, _done, _timeout = step(s, a)
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(states)
                states.append(nxt)
                terminal.append(bool(is_terminal(nxt)))
                dead.append(bool(is_dead(nxt)))
            next_state.append(j)
            reward.append(r)
            event.append(symbols[e])
    shape = (len(states), n_actions)
    tables = EnvTables(
        states=states,
        next_state=np.frombuffer(next_state, dtype=np.int32).reshape(shape),
        reward=np.frombuffer(reward, dtype=np.float64).reshape(shape),
        event=np.frombuffer(event, dtype=np.int16).reshape(shape),
        terminal=np.frombuffer(terminal, dtype=np.bool_),
        dead=np.frombuffer(dead, dtype=np.bool_),
        start=0,
        n_actions=n_actions,
    )
    env._tables = tables
    return tables


@dataclass
class ProductTables:
    """The reachable rows of the product of an env and its automaton.

    Row p is the pair (env state s, automaton state q) whose old index
    `s * n_q + q` is rows[p]. Rows ascend in that index, so any order taken
    over rows is the order over old indices. Every successor of a row is a
    row, so the set is closed under all actions.
    """

    rows: np.ndarray             # (P,) int64 ascending; old index s*n_q + q
    next: np.ndarray             # (P, A) int32 successor row
    reward: np.ndarray           # (P, A) float64
    stop: np.ndarray             # (P,) bool; the env state is terminal or dead
    dead: np.ndarray             # (P,) bool
    q_of: np.ndarray             # (P,) int64 automaton state of each row
    start: int                   # row of (env reset state, automaton start)


def product_tables(tables, cdfa):
    """Product rows reachable from the start pair, built once per tables.

    Breadth-first over whole frontiers with numpy: a row's successor under
    action a is (next_state[s, a], delta[q, event[s, a]]). Terminal and
    dead rows are expanded like any other; in compiled tables they
    self-loop on the null event, so they add no row. The result is kept on
    `tables` and returned again for the same `cdfa`.
    """
    memo = getattr(tables, "product", None)
    if memo is not None and memo[0] is cdfa:
        return memo[1]
    n_s = tables.next_state.shape[0]
    n_q = cdfa.delta.shape[0]
    next_pid = tables.next_state.astype(np.int64) * n_q

    def successors(pids):
        s, q = np.divmod(pids, n_q)
        return next_pid[s] + cdfa.delta[q[:, None], tables.event[s]]

    start = int(tables.start) * n_q + int(cdfa.start)
    seen = np.zeros(n_s * n_q, dtype=np.bool_)
    seen[start] = True
    last = np.empty(n_s * n_q, dtype=np.int64)
    frontier = np.array([start], dtype=np.int64)
    while frontier.size:
        new = successors(frontier).ravel()
        new = new[~seen[new]]
        seen[new] = True
        # keep one copy of each new row: the last one written wins `last`
        order = np.arange(len(new))
        last[new] = order
        frontier = new[last[new] == order]
    rows = np.flatnonzero(seen)
    pos = np.zeros(n_s * n_q, dtype=np.int32)
    pos[rows] = np.arange(len(rows), dtype=np.int32)
    s, q = np.divmod(rows, n_q)
    product = ProductTables(
        rows=rows, next=pos[successors(rows)], reward=tables.reward[s],
        stop=tables.terminal[s] | tables.dead[s], dead=tables.dead[s],
        q_of=q, start=int(pos[start]))
    tables.product = (cdfa, product)
    return product
