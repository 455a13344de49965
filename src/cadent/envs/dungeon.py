"""Dungeon Quest gridworld.

A strict five-step quest: take the key, open the chest, return to the chest
for the sword, pick up the shield, slay the dragon. Each site only reacts
when it is the next quest step, so labeled events track the automaton
exactly and out-of-order visits are silent.
"""

from __future__ import annotations

from .base import Environment, grid_text, move, validate_positions
from ..automaton import make_dfa

ALPHABET = ("key", "chest", "sword", "shield", "dragon")

# stage k is completed by the event at index k
STAGES = ("key", "chest", "sword", "shield", "dragon")


def build_dfa():
    states = ("q0", "q_key", "q_chest", "q_sword", "q_shield", "q_accept")
    edges = {
        ("q0", "key"): "q_key",
        ("q_key", "chest"): "q_chest",
        ("q_chest", "sword"): "q_sword",
        ("q_sword", "shield"): "q_shield",
        ("q_shield", "dragon"): "q_accept",
    }
    return make_dfa(states, ALPHABET, "q0", {"q_accept"}, edges)


class DungeonQuest(Environment):
    name = "dungeon_quest"
    defaults = {
        "target": {"rows": 20, "cols": 20},
        "source": {"rows": 12, "cols": 12},
    }
    extra_parameters = ("start", "key", "chest", "shield", "dragon")
    default_max_steps = 500
    build_dfa = staticmethod(build_dfa)

    def __init__(self, spec):
        super().__init__(spec)
        self.rows, self.cols = self.grid_shape()
        self.start = self.cell_param("start", (self.rows - 1, 0))
        validate_positions([self.start], self.rows, self.cols, self.name)
        auto = self.place(4, taken=[self.start])
        self.key = self.cell_param("key", auto[0])
        self.chest = self.cell_param("chest", auto[1])
        self.shield = self.cell_param("shield", auto[2])
        self.dragon = self.cell_param("dragon", auto[3])
        validate_positions([self.start, self.key, self.chest, self.shield,
                            self.dragon], self.rows, self.cols, self.name)
        self.dfa = build_dfa()

    def reset(self):
        return (self.start[0], self.start[1], 0)

    def transition(self, state, action):
        r, c, stage = state
        nr, nc = move((r, c), action, self.rows, self.cols)
        cell = (nr, nc)
        event = None
        # the sword sits inside the chest: stage 2 fires on a later arrival
        # at the chest cell, after the chest itself was opened at stage 1
        sites = (self.key, self.chest, self.chest, self.shield, self.dragon)
        if stage < 5 and cell == sites[stage]:
            event = STAGES[stage]
            stage = stage + 1
        return (nr, nc, stage), event

    def is_terminal(self, state):
        return state[2] == 5

    def layout_text(self):
        markers = {
            self.key: "K", self.chest: "C", self.shield: "B",
            self.dragon: "D", self.start: "S",
        }
        legend = [("S", "start"), ("K", "key"), ("C", "chest (sword inside)"),
                  ("B", "shield"), ("D", "dragon"), (".", "open floor")]
        return grid_text(self.rows, self.cols, markers, legend)
