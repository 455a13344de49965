"""Warehouse Robotics gridworld with a draining battery.

The robot runs a fixed logistics chain via the interact action: pick up the
scanner, scan the inventory shelf, return the scanner to the charging
station, fetch the item, deliver it at the dock. The battery loses one of
five charge buckets every ten steps and refills whenever a step ends on the
charging cell; running dry ends the episode. Interactions only succeed in
chain order, keeping events in lockstep with the automaton. Source and
target facilities use different station arrangements.
"""

from __future__ import annotations

from .base import Environment, grid_text, move, validate_positions
from ..automaton import make_dfa

ALPHABET = ("scanner", "scan", "charging_station", "item", "deliver")

ACTION_NAMES = ("up", "down", "left", "right", "interact")
A_INTERACT = 4

BATTERY_BUCKETS = 5
TICKS_PER_BUCKET = 10
DEAD_STATE = (-1, -1, -1, -1, -1)

# interaction sites in chain order; stage k interacts at _SITES[k]
_SITES = ("scanner_station", "shelf", "charger", "item_shelf", "dock")


def build_dfa():
    states = ("r0", "r1", "r2", "r3", "r4", "r_accept")
    edges = {
        ("r0", "scanner"): "r1",
        ("r1", "scan"): "r2",
        ("r2", "charging_station"): "r3",
        ("r3", "item"): "r4",
        ("r4", "deliver"): "r_accept",
    }
    return make_dfa(states, ALPHABET, "r0", {"r_accept"}, edges)


class WarehouseRobotics(Environment):
    name = "warehouse_robotics"
    action_names = ACTION_NAMES
    defaults = {
        "target": {"rows": 10, "cols": 12},
        "source": {"rows": 6, "cols": 8},
    }
    extra_parameters = ("start",) + _SITES
    default_max_steps = 1000
    build_dfa = staticmethod(build_dfa)

    def __init__(self, spec):
        super().__init__(spec)
        self.rows, self.cols = self.grid_shape()
        self.start = tuple(self.param("start", (0, 0)))
        validate_positions([self.start], self.rows, self.cols, self.name)
        auto = self.place(5, taken=[self.start])
        self.scanner_station = tuple(self.param("scanner_station", auto[0]))
        self.shelf = tuple(self.param("shelf", auto[1]))
        self.charger = tuple(self.param("charger", auto[2]))
        self.item_shelf = tuple(self.param("item_shelf", auto[3]))
        self.dock = tuple(self.param("dock", auto[4]))
        self.sites = (self.scanner_station, self.shelf, self.charger,
                      self.item_shelf, self.dock)
        validate_positions((self.start,) + self.sites, self.rows, self.cols,
                           self.name)
        self.dfa = build_dfa()

    def reset(self):
        return (self.start[0], self.start[1], 0, BATTERY_BUCKETS - 1, 0)

    def transition(self, state, action):
        if state == DEAD_STATE:
            raise ValueError("cannot step a dead robot")
        r, c, stage, bucket, tick = state
        if action == A_INTERACT:
            nr, nc = r, c
        else:
            nr, nc = move((r, c), action, self.rows, self.cols)
        cell = (nr, nc)
        event = None
        if action == A_INTERACT and stage < 5 and cell == self.sites[stage]:
            event = ALPHABET[stage]
            stage += 1
        if stage == 5:
            return (nr, nc, 5, bucket, tick), event
        if cell == self.charger:
            bucket2, tick2 = BATTERY_BUCKETS - 1, 0
        else:
            bucket2, tick2 = bucket, tick + 1
            if tick2 == TICKS_PER_BUCKET:
                tick2 = 0
                bucket2 = bucket - 1
        if bucket2 < 0:
            return DEAD_STATE, event
        return (nr, nc, stage, bucket2, tick2), event

    def is_terminal(self, state):
        return state != DEAD_STATE and state[2] == 5

    def is_dead(self, state):
        return state == DEAD_STATE

    def layout_text(self):
        markers = {
            self.scanner_station: "P", self.shelf: "I", self.charger: "C",
            self.item_shelf: "M", self.dock: "D", self.start: "S",
        }
        legend = [("S", "start"), ("P", "scanner pickup"),
                  ("I", "inventory shelf (scan)"),
                  ("C", "charging station (recharges on entry)"),
                  ("M", "item shelf"), ("D", "delivery dock"),
                  (".", "open floor")]
        return grid_text(self.rows, self.cols, markers, legend)
