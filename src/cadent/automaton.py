"""Deterministic finite automata over environment event alphabets.

A task automaton consumes the event emitted by each environment step (or the
null event, which leaves the state unchanged) and reports acceptance. States
and symbols are interned to dense integer ids so training kernels can run on
flat arrays; the string-facing API stays the source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

NULL_EVENT = None


class DfaError(ValueError):
    """Raised when an automaton definition fails validation."""


class ProductState(NamedTuple):
    """Joint (environment state, automaton state) key used by Q-tables."""

    env: object
    q: str


@dataclass
class Dfa:
    """Explicit-transition DFA; every (state, symbol) pair needs a
    transition (`make_dfa` fills in the self-loops).

    Construction is permissive so that malformed definitions can be built
    and inspected; `validate` reports violations and `compiled` refuses to
    produce kernel arrays for an invalid automaton.
    """

    states: tuple
    alphabet: tuple
    start: str
    accepting: frozenset
    transitions: dict
    _compiled: "CompiledDfa" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.states = tuple(self.states)
        self.alphabet = tuple(self.alphabet)
        self.accepting = frozenset(self.accepting)
        self.transitions = dict(self.transitions)

    def validate(self):
        """Return a list of human-readable structural violations."""
        problems = []
        if len(set(self.states)) != len(self.states):
            problems.append("duplicate state names")
        if len(set(self.alphabet)) != len(self.alphabet):
            problems.append("duplicate alphabet symbols")
        state_set = set(self.states)
        if self.start not in state_set:
            problems.append(f"start state {self.start!r} not in states")
        for q in sorted(self.accepting):
            if q not in state_set:
                problems.append(f"accepting state {q!r} not in states")
        symbol_set = set(self.alphabet)
        for (q, sym), q2 in self.transitions.items():
            if q not in state_set:
                problems.append(f"transition from unknown state {q!r}")
            if sym not in symbol_set:
                problems.append(f"transition on unknown symbol {sym!r}")
            if q2 not in state_set:
                problems.append(f"transition to unknown state {q2!r}")
        for q in self.states:
            for sym in self.alphabet:
                if (q, sym) not in self.transitions:
                    problems.append(f"missing transition ({q!r}, {sym!r})")
        if (not problems and self.accepting
                and not self.accepting & _reachable(self, [self.start])):
            problems.append("no accepting state reachable from start")
        return problems

    def compiled(self):
        """Dense integer form for kernels. Raises on invalid automata."""
        if self._compiled is None:
            problems = self.validate()
            if problems:
                raise DfaError("invalid automaton: " + "; ".join(problems))
            self._compiled = CompiledDfa.from_dfa(self)
        return self._compiled


@dataclass
class CompiledDfa:
    """Array view of a validated DFA. Symbol id 0 is the null event."""

    state_index: dict
    symbol_index: dict
    delta: np.ndarray       # (n_states, n_symbols + 1) int32; column 0 = identity
    accepting: np.ndarray   # (n_states,) bool
    start: int

    @classmethod
    def from_dfa(cls, dfa):
        state_index = {q: i for i, q in enumerate(dfa.states)}
        symbol_index = {s: i + 1 for i, s in enumerate(dfa.alphabet)}
        nq = len(dfa.states)
        delta = np.zeros((nq, len(dfa.alphabet) + 1), dtype=np.int32)
        for q, qi in state_index.items():
            delta[qi, 0] = qi
            for sym, si in symbol_index.items():
                delta[qi, si] = state_index[dfa.transitions[(q, sym)]]
        accepting = np.zeros(nq, dtype=np.bool_)
        for q in dfa.accepting:
            accepting[state_index[q]] = True
        return cls(state_index, symbol_index, delta, accepting,
                   state_index[dfa.start])


def make_dfa(states, alphabet, start, accepting, edges):
    """Build a DFA from explicit progress edges; all other pairs self-loop.

    `edges` maps (state, symbol) -> state. The result is validated and the
    compiled form is checked eagerly so broken definitions fail loudly here
    rather than mid-training.
    """
    transitions = {}
    for q in states:
        for sym in alphabet:
            transitions[(q, sym)] = q
    transitions.update(edges)
    dfa = Dfa(tuple(states), tuple(alphabet), start, frozenset(accepting),
              transitions)
    dfa.compiled()
    return dfa


def step_automaton(dfa, q, symbol):
    """Advance one symbol. The null event is the identity on states."""
    if symbol is NULL_EVENT:
        return q
    if symbol not in set(dfa.alphabet):
        raise KeyError(f"symbol {symbol!r} not in automaton alphabet")
    return dfa.transitions[(q, symbol)]


def is_accepting(dfa, q):
    return q in dfa.accepting


def progress_edges(dfa):
    """Sorted (q, symbol, q') triples where the automaton actually moves."""
    out = []
    for (q, sym), q2 in dfa.transitions.items():
        if q2 != q:
            out.append((q, sym, q2))
    return sorted(out)


def _reachable(dfa, sources, backward=False):
    """The states reachable from `sources` along `dfa.transitions`, or with
    `backward` the states some source is reachable from."""
    succ = {}
    for (q, _sym), q2 in dfa.transitions.items():
        src, dst = (q2, q) if backward else (q, q2)
        succ.setdefault(src, []).append(dst)
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        for q2 in succ.get(frontier.pop(), ()):
            if q2 not in seen:
                seen.add(q2)
                frontier.append(q2)
    return seen


def accepting_path_edges(dfa):
    """Progress edges that lie on some start-to-accept path.

    An edge (q, q') qualifies when q is reachable from the start and an
    accepting state is reachable from q'. These are the edges a competent
    teacher must have exercised.
    """
    dfa.compiled()   # an invalid automaton raises here
    reach = _reachable(dfa, [dfa.start])
    co = _reachable(dfa, dfa.accepting, backward=True)
    return {(q, q2) for (q, _sym), q2 in dfa.transitions.items()
            if q2 != q and q in reach and q2 in co}
