"""Dense transition tables compiled from an environment by exhaustion.

Every benchmark environment is a finite, deterministic MDP, so its reachable
state set can be enumerated breadth-first from the reset state. The result is
a set of flat arrays (successor, reward, event id, terminal/dead flags) that
training kernels, planners, and reference oracles all consume, keeping the
pure-Python `step` the single definition of the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class EnvTables:
    """Array form of one environment. State index 0 is the reset state."""

    states: list                 # index -> state tuple
    index: dict                  # state tuple -> index
    next_state: np.ndarray       # (S, A) int32
    reward: np.ndarray           # (S, A) float64
    event: np.ndarray            # (S, A) int16; 0 = null event
    terminal: np.ndarray         # (S,) bool; task complete
    dead: np.ndarray             # (S,) bool; unrecoverable failure
    start: int
    n_actions: int

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
    reward and are never read by a correct training loop.
    """
    if env._tables is not None:
        return env._tables
    comp = env.dfa.compiled()
    n_actions = env.n_actions
    start = env.reset()
    states = [start]
    index = {start: 0}
    terminal = [env.is_terminal(start)]
    dead = [env.is_dead(start)]
    next_rows, reward_rows, event_rows = [], [], []
    head = 0
    while head < len(states):
        s = states[head]
        if terminal[head] or dead[head]:
            next_rows.append([head] * n_actions)
            reward_rows.append([0.0] * n_actions)
            event_rows.append([0] * n_actions)
            head += 1
            continue
        nxt, rew, evt = [], [], []
        for a in range(n_actions):
            out = env.step(s, a)
            if out.state not in index:
                index[out.state] = len(states)
                states.append(out.state)
                terminal.append(env.is_terminal(out.state))
                dead.append(env.is_dead(out.state))
            nxt.append(index[out.state])
            rew.append(out.reward)
            evt.append(comp.symbol_index[out.event]
                       if out.event is not None else 0)
        next_rows.append(nxt)
        reward_rows.append(rew)
        event_rows.append(evt)
        head += 1
    tables = EnvTables(
        states=states,
        index=index,
        next_state=np.array(next_rows, dtype=np.int32),
        reward=np.array(reward_rows, dtype=np.float64),
        event=np.array(event_rows, dtype=np.int16),
        terminal=np.array(terminal, dtype=np.bool_),
        dead=np.array(dead, dtype=np.bool_),
        start=0,
        n_actions=n_actions,
    )
    env._tables = tables
    return tables


def product_reach(tables, cdfa):
    """Map each reachable env state index to its automaton state.

    Walks the synchronous product from (reset, start). For these benchmarks
    the mapping is a function on live states (each env state pins down one
    automaton state); a live state reached under two different automaton
    states, an event that fails to advance the automaton, or a
    terminal/accepting mismatch is reported as a violation. Dead sink states
    are exempt from uniqueness: they absorb runs from any automaton state.
    """
    q_of = {tables.start: cdfa.start}
    violations = []
    frontier = [tables.start]
    while frontier:
        s = frontier.pop()
        q = q_of[s]
        if tables.terminal[s] or tables.dead[s]:
            continue
        for a in range(tables.n_actions):
            s2 = int(tables.next_state[s, a])
            ev = int(tables.event[s, a])
            q2 = int(cdfa.delta[q, ev])
            if ev != 0 and q2 == q:
                violations.append(
                    f"event {ev} at state {s} action {a} does not advance "
                    f"the automaton from {q}")
            if ev == 0 and q2 != q:
                violations.append(
                    f"null event moved the automaton at state {s}")
            if bool(tables.terminal[s2]) != bool(cdfa.accepting[q2]):
                violations.append(
                    f"terminal/accepting mismatch at env state {s2} "
                    f"(q={q2})")
            if tables.dead[s2]:
                continue
            if s2 in q_of:
                if q_of[s2] != q2:
                    violations.append(
                        f"env state {s2} reached under automaton states "
                        f"{q_of[s2]} and {q2}")
            else:
                q_of[s2] = q2
                frontier.append(s2)
    return q_of, violations
