"""Blind Craftsman gridworld.

The agent ferries wood (capacity one) from renewable piles to a factory,
crafting one tool per delivery. Once the tool quota is met it must walk home.
Pickups are inert while carrying or once the quota is reached, and the home
cell only reacts when the quota is met, so every labeled event coincides with
one step of the task automaton: (wood factory)^quota home.
"""

from __future__ import annotations

from .base import (EnvError, Environment, anchor_cell, checked_cell,
                   grid_text, move, validate_positions)
from ..automaton import make_dfa

ALPHABET = ("wood", "factory", "home")

DEFAULT_QUOTA = 3

_FACTORY_ANCHOR = (0.30, 0.70)
_HOME_ANCHOR = (0.80, 0.20)


def build_dfa(quota=DEFAULT_QUOTA):
    """Automaton for (wood factory)^quota then home."""
    if quota < 1:
        raise EnvError(f"blind_craftsman: quota must be at least 1, "
                       f"not {quota}")
    states = []
    edges = {}
    for i in range(quota):
        states.extend([f"q{i}", f"w{i}"])
        edges[(f"q{i}", "wood")] = f"w{i}"
        edges[(f"w{i}", "factory")] = f"q{i + 1}" if i + 1 < quota else f"q{quota}"
    states.append(f"q{quota}")
    states.append("accept")
    edges[(f"q{quota}", "home")] = "accept"
    return make_dfa(states, ALPHABET, "q0", {"accept"}, edges)


class BlindCraftsman(Environment):
    name = "blind_craftsman"
    defaults = {
        "target": {"rows": 25, "cols": 25, "n_piles": 5},
        "source": {"rows": 15, "cols": 15, "n_piles": 4},
    }
    extra_parameters = ("quota", "start", "factory", "home", "piles")
    default_max_steps = 500
    build_dfa = staticmethod(build_dfa)

    def __init__(self, spec):
        super().__init__(spec)
        self.rows, self.cols = self.grid_shape()
        self.quota = self.int_param("quota", DEFAULT_QUOTA)
        self.dfa = build_dfa(self.quota)
        self.start = self.cell_param("start",
                                     (self.rows // 2, self.cols // 2))
        self.factory = self.cell_param(
            "factory", anchor_cell(_FACTORY_ANCHOR, self.rows, self.cols))
        self.home = self.cell_param(
            "home", anchor_cell(_HOME_ANCHOR, self.rows, self.cols))
        fixed = [self.start, self.factory, self.home]
        validate_positions(fixed, self.rows, self.cols, self.name)
        n_piles = self.int_param("n_piles")
        if "piles" in spec.parameters:
            piles = self.list_param("piles", checked_cell)
        else:
            piles = self.place(n_piles, taken=fixed)
        validate_positions(fixed + piles, self.rows, self.cols, self.name)
        if not piles:
            raise EnvError(f"{self.name}: need at least one wood pile")
        self.piles = tuple(piles)
        self._pile_set = frozenset(piles)

    def reset(self):
        return (self.start[0], self.start[1], 0, 0)

    def transition(self, state, action):
        r, c, wood, tools = state
        nr, nc = move((r, c), action, self.rows, self.cols)
        cell = (nr, nc)
        wood2, tools2, event = wood, tools, None
        if cell in self._pile_set and wood == 0 and tools < self.quota:
            wood2 = 1
            event = "wood"
        elif cell == self.factory and wood == 1:
            wood2 = 0
            tools2 = tools + 1
            event = "factory"
        elif cell == self.home and tools == self.quota:
            event = "home"
        return (nr, nc, wood2, tools2), event

    def is_terminal(self, state):
        return (state[0], state[1]) == self.home and state[3] == self.quota

    def layout_text(self):
        markers = {p: "W" for p in self.piles}
        markers[self.factory] = "F"
        markers[self.home] = "H"
        markers[self.start] = "S"
        legend = [("S", "start"), ("W", "wood pile"), ("F", "factory"),
                  ("H", "home"), (".", "open floor")]
        return grid_text(self.rows, self.cols, markers, legend)
