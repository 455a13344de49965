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

from .files import json_text, read_json, write_atomic

NULL_EVENT = None

FILE_FORMAT = "cadent-dfa"
FILE_VERSION = 1


class DfaError(ValueError):
    """Raised when an automaton definition fails validation."""


class ProductState(NamedTuple):
    """Joint (environment state, automaton state) key used by Q-tables."""

    env: object
    q: str


@dataclass
class Dfa:
    """Explicit-transition DFA. Missing (state, symbol) pairs self-loop.

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
        if not problems and self.accepting:
            if not self._accepting_reachable():
                problems.append("no accepting state reachable from start")
        return problems

    def _accepting_reachable(self):
        seen = {self.start}
        frontier = [self.start]
        while frontier:
            q = frontier.pop()
            if q in self.accepting:
                return True
            for sym in self.alphabet:
                q2 = self.transitions[(q, sym)]
                if q2 not in seen:
                    seen.add(q2)
                    frontier.append(q2)
        return bool(self.accepting & {self.start})

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
    for (q, sym), q2 in edges.items():
        if (q, sym) not in transitions:
            raise DfaError(f"edge from unknown pair ({q!r}, {sym!r})")
        transitions[(q, sym)] = q2
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


def accepting_path_edges(dfa):
    """Progress edges that lie on some start-to-accept path.

    An edge (q, q') qualifies when q is reachable from the start and an
    accepting state is reachable from q'. These are the edges a competent
    teacher must have exercised.
    """
    comp = dfa.compiled()
    nq = len(dfa.states)
    reach = np.zeros(nq, dtype=bool)
    reach[comp.start] = True
    frontier = [comp.start]
    while frontier:
        qi = frontier.pop()
        for si in range(1, len(dfa.alphabet) + 1):
            ti = int(comp.delta[qi, si])
            if not reach[ti]:
                reach[ti] = True
                frontier.append(ti)
    co = np.array(comp.accepting, copy=True)
    changed = True
    while changed:
        changed = False
        for qi in range(nq):
            if co[qi]:
                continue
            for si in range(1, len(dfa.alphabet) + 1):
                if co[int(comp.delta[qi, si])]:
                    co[qi] = True
                    changed = True
                    break
    out = set()
    for (q, sym), q2 in dfa.transitions.items():
        if q2 == q:
            continue
        qi, ti = comp.state_index[q], comp.state_index[q2]
        if reach[qi] and co[ti]:
            out.add((q, q2))
    return out


def save_dfa(dfa, path):
    problems = dfa.validate()
    if problems:
        raise DfaError("refusing to save invalid automaton: "
                       + "; ".join(problems))
    payload = {
        "format": FILE_FORMAT,
        "version": FILE_VERSION,
        "states": list(dfa.states),
        "alphabet": list(dfa.alphabet),
        "start": dfa.start,
        "accepting": sorted(dfa.accepting),
        "transitions": [
            {"from": q, "symbol": sym, "to": q2}
            for (q, sym), q2 in sorted(dfa.transitions.items())
            if q2 != q
        ],
    }
    write_atomic(path, json_text(payload))


def load_dfa(path):
    """Load and validate an automaton file; any violation is rejected here."""
    try:
        payload = read_json(path)
    except ValueError as exc:
        raise DfaError(str(exc)) from exc
    if not isinstance(payload, dict) or payload.get("format") != FILE_FORMAT:
        raise DfaError(f"{path}: not a {FILE_FORMAT} file")
    if payload.get("version") != FILE_VERSION:
        raise DfaError(f"{path}: unsupported version {payload.get('version')}")
    try:
        edges = {}
        for t in payload["transitions"]:
            pair = (t["from"], t["symbol"])
            if pair in edges:
                raise DfaError(f"{path}: repeated transition {pair!r}")
            edges[pair] = t["to"]
        return make_dfa(payload["states"], payload["alphabet"],
                        payload["start"], payload["accepting"], edges)
    except (KeyError, TypeError) as exc:
        raise DfaError(f"{path}: malformed automaton payload: {exc}") from exc
