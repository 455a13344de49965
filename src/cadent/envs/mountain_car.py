"""Mountain Car Collection: a discrete slope with an energy economy.

The track is a 1-D chain of position buckets rising from a valley to a
summit. Gravity pushes the car toward the valley; cresting the steep section
requires energy banked by swinging through the valley at speed, spent as a
thrust boost. Three parts must be collected in order on the way up (via the
interact action, which freezes the car), then delivered at the summit base
station. Interactions only succeed for the next part in order, so events and
automaton progress coincide.
"""

from __future__ import annotations

import math

from .base import EnvError, Environment, checked_int
from ..automaton import make_dfa

ALPHABET = ("power_cell", "sensor_array", "data_crystal", "base_station")
PART_NAMES = ("power_cell", "sensor_array", "data_crystal")

ACTION_NAMES = ("accelerate_left", "no_op", "accelerate_right", "interact")
A_LEFT, A_NOOP, A_RIGHT, A_INTERACT = range(4)

V_MAX = 3
ENERGY_MAX = 4
BOOST_THRUST = 2  # replaces the normal +1 thrust while on the steep section

LEFT, VALLEY, GENTLE, STEEP, SUMMIT = range(5)
_GRAVITY = {LEFT: 1, VALLEY: 0, GENTLE: -1, STEEP: -2, SUMMIT: 0}


def band_layout(n_positions):
    """Assign each bucket to a slope band by fixed fractions of the track."""
    if n_positions < 6:
        raise EnvError("track needs at least 6 position buckets")
    a = math.ceil(0.10 * n_positions)
    b = math.ceil(0.30 * n_positions)
    c = math.ceil(0.65 * n_positions)
    bands = []
    for p in range(n_positions):
        if p == n_positions - 1:
            bands.append(SUMMIT)
        elif p < a:
            bands.append(LEFT)
        elif p < b:
            bands.append(VALLEY)
        elif p < c:
            bands.append(GENTLE)
        else:
            bands.append(STEEP)
    return tuple(bands)


def build_dfa():
    states = ("m0", "m1", "m2", "m3", "m_accept")
    edges = {
        ("m0", "power_cell"): "m1",
        ("m1", "sensor_array"): "m2",
        ("m2", "data_crystal"): "m3",
        ("m3", "base_station"): "m_accept",
    }
    return make_dfa(states, ALPHABET, "m0", {"m_accept"}, edges)


class MountainCarCollection(Environment):
    name = "mountain_car_collection"
    action_names = ACTION_NAMES
    defaults = {
        "target": {"n_positions": 15, "parts": (5, 8, 11)},
        "source": {"n_positions": 9, "parts": (3, 5, 7)},
    }
    default_max_steps = 1000
    build_dfa = staticmethod(build_dfa)

    def __init__(self, spec):
        super().__init__(spec)
        self.n_positions = self.int_param("n_positions")
        self.bands = band_layout(self.n_positions)
        self.gravity = tuple(_GRAVITY[b] for b in self.bands)
        parts = tuple(self.list_param("parts", checked_int))
        if len(parts) != 3 or sorted(set(parts)) != list(parts):
            raise EnvError("parts must be three strictly increasing buckets")
        if parts[0] <= 0 or parts[-1] >= self.n_positions - 1:
            raise EnvError("parts must lie strictly between the track ends")
        self.parts = parts
        self.valley_floor = self.bands.index(VALLEY)
        self.dfa = build_dfa()

    def reset(self):
        return (self.valley_floor, 0, 0, 0)

    def transition(self, state, action):
        p, v, energy, stage = state
        event = None
        if action == A_INTERACT:
            # interacting parks the car for a step: no physics applied
            if stage < 3 and p == self.parts[stage]:
                event = PART_NAMES[stage]
                stage += 1
            elif stage == 3 and p == self.n_positions - 1:
                event = "base_station"
                stage = 4
            next_state = (p, v, energy, stage)
        else:
            thrust = (-1, 0, 1)[action]
            if (action == A_RIGHT and self.bands[p] == STEEP and energy > 0):
                thrust = BOOST_THRUST
                energy -= 1
            v2 = max(-V_MAX, min(V_MAX, v + thrust + self.gravity[p]))
            p2 = p + (1 if v2 > 0 else (-1 if v2 < 0 else 0))
            if p2 < 0:
                p2, v2 = 0, 0
            elif p2 > self.n_positions - 1:
                p2, v2 = self.n_positions - 1, 0
            if self.bands[p2] == VALLEY and abs(v2) >= 2:
                energy = min(energy + 1, ENERGY_MAX)
            next_state = (p2, v2, energy, stage)
        return next_state, event

    def is_terminal(self, state):
        return state[3] == 4

    def layout_text(self):
        band_chars = {LEFT: "<", VALLEY: "_", GENTLE: "/", STEEP: "^",
                      SUMMIT: "T"}
        row = [band_chars[b] for b in self.bands]
        marks = [" "] * self.n_positions
        for i, bucket in enumerate(self.parts):
            marks[bucket] = "123"[i]
        marks[self.valley_floor] = "S"
        lines = ["".join(row), "".join(marks), ""]
        lines.extend([
            "< = left upslope (gravity +1)",
            "_ = valley (gravity 0, energy gained at |v| >= 2)",
            "/ = gentle climb (gravity -1)",
            "^ = steep climb (gravity -2, boost eligible)",
            "T = summit base station",
            "S = start, 1/2/3 = parts in pickup order",
        ])
        return "\n".join(lines)
