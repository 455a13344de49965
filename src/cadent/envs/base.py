"""Shared environment machinery.

Environments are pure transition functions: an instance holds only the layout
(fixed by an EnvSpec), and `step(state, action)` maps an explicit state tuple
to a StepOutcome. That keeps them trivially enumerable, replayable, and safe
to share across runs.

A subclass defines only the dynamics: `reset`, `transition(state, action)
-> (next_state, event)`, `is_terminal`, `is_dead` (default: never) and
`layout_text`, plus its parameters as class attributes (`defaults`,
`extra_parameters`, `default_max_steps`) and its automaton (`build_dfa`).
`Environment.step` is the one definition of the reward scheme and of the end
of an episode: -0.01 per step, +1.0 when the step emits an event (advances
the task automaton), +10.0 when it reaches a terminal (accepting) state, the
bonuses stacking on the accepting step; the episode ends on a terminal or a
dead state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..files import Config, is_integer
from ..rng import RandomState

STEP_PENALTY = -0.01
PROGRESS_BONUS = 1.0
ACCEPT_BONUS = 10.0

GRID_ACTIONS = ("up", "down", "left", "right")
GRID_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))

VARIANTS = ("source", "target")


class EnvError(ValueError):
    """Raised for malformed environment specifications."""


@dataclass(frozen=True)
class EnvSpec(Config):
    """Declarative description of one environment instance.

    `parameters` holds per-environment overrides (grid size, item counts,
    explicit positions). Unknown parameter keys are rejected by the builder
    so typos fail loudly.
    """

    name: str
    variant: str = "target"
    layout_seed: int = 12
    max_steps: int = 0          # 0 = use the environment default
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise EnvError(f"variant must be one of {VARIANTS}, "
                           f"got {self.variant!r}")
        for name in ("layout_seed", "max_steps"):
            value = getattr(self, name)
            if not is_integer(value) or value < 0:
                raise EnvError(f"EnvSpec.{name} must be a non-negative "
                               f"integer, not {value!r}")
            object.__setattr__(self, name, int(value))


class StepOutcome(NamedTuple):
    """Result of one environment step.

    `done` covers task completion and irrecoverable failure; `timeout` is
    the failure alone (a dead state, e.g. a drained battery). The
    per-episode step budget is enforced by the training loop, not here.
    """

    state: tuple
    reward: float
    event: object  # str or None
    done: bool
    timeout: bool = False


class Environment:
    """Base class; subclasses fill in layout, dynamics, and labeling.

    A subclass sets `defaults` (variant -> {key: default value}),
    `extra_parameters` (the keys with no per-variant default; together they
    are the keys an EnvSpec may set) and `default_max_steps`.
    """

    name = "abstract"
    action_names = GRID_ACTIONS
    extra_parameters = ()

    def __init__(self, spec):
        allowed = set(self.defaults[spec.variant]) | set(self.extra_parameters)
        unknown = sorted(set(spec.parameters) - allowed)
        if unknown:
            raise EnvError(f"{self.name}: unknown parameters {unknown}; "
                           f"allowed: {sorted(allowed)}")
        self.spec = spec
        self.max_steps = spec.max_steps or self.default_max_steps
        self._tables = None  # dense-table cache, filled by envs.tables

    @property
    def n_actions(self):
        return len(self.action_names)

    def param(self, key, default=None):
        """The spec's value for `key`, else the variant's default, else
        `default`."""
        if key in self.spec.parameters:
            return self.spec.parameters[key]
        return self.defaults[self.spec.variant].get(key, default)

    def int_param(self, key, default=None):
        """`param` as an int; an EnvError names `key` unless it is an
        integer (a bool is not)."""
        return checked_int(self.name, key, self.param(key, default))

    def cell_param(self, key, default=None):
        """`param` as a (row, col) tuple; an EnvError names `key` unless
        it is a pair of integers."""
        return checked_cell(self.name, key, self.param(key, default))

    def list_param(self, key, check):
        """`param` as a list of items each passed through `check` (one of
        `checked_int` and `checked_cell`); an EnvError names `key` unless
        it is a list or tuple."""
        value = self.param(key)
        if not isinstance(value, (list, tuple)):
            raise EnvError(f"{self.name}: parameter {key!r} must be a list, "
                           f"not {value!r}")
        return [check(self.name, key, item) for item in value]

    def grid_shape(self):
        rows, cols = self.int_param("rows"), self.int_param("cols")
        if rows < 3 or cols < 3:
            raise EnvError("grid must be at least 3x3")
        return rows, cols

    def place(self, count, taken):
        """`count` seeded cells on the grid, clear of `taken`; source and
        target layouts draw from different streams."""
        stream = 0 if self.spec.variant == "source" else 1
        return fractional_cells(self.spec.layout_seed, count, self.rows,
                                self.cols, taken=taken, stream=stream)

    def step(self, state, action):
        state, event = self.transition(state, action)
        terminal = self.is_terminal(state)
        dead = self.is_dead(state)
        reward = STEP_PENALTY
        if event is not None:
            reward += PROGRESS_BONUS
        if terminal:
            reward += ACCEPT_BONUS
        return StepOutcome(state, reward, event, terminal or dead, dead)

    def reset(self):
        raise NotImplementedError

    def transition(self, state, action):
        raise NotImplementedError

    def is_terminal(self, state):
        raise NotImplementedError

    def is_dead(self, state):
        return False

    def layout_text(self):
        raise NotImplementedError


def checked_int(env, key, value):
    """`value` of parameter `key` of env `env` as an int; an EnvError
    unless it is an integer (a bool is not)."""
    if not is_integer(value):
        raise EnvError(f"{env}: parameter {key!r} must be an integer, "
                       f"not {value!r}")
    return int(value)


def checked_cell(env, key, value):
    """`value` of parameter `key` of env `env` as a (row, col) tuple; an
    EnvError unless it is a list or tuple of two integers."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(is_integer, value))):
        raise EnvError(f"{env}: parameter {key!r} must be a [row, col] pair "
                       f"of integers, not {value!r}")
    return (int(value[0]), int(value[1]))


def fractional_cells(seed, count, rows, cols, taken, stream=0):
    """Place `count` items by seeded fractional anchors scaled to the grid.

    The fractions depend only on (seed, stream), so source and target grids
    built from the same seed share structure at different scales. Collisions
    with `taken` cells are resolved by rejection, which preserves the shared
    fractions for non-colliding items.
    """
    rng = RandomState(seed, stream)
    cells = []
    occupied = set(taken)
    for _ in range(count):
        for _attempt in range(10000):
            r = int(rng.uniform() * rows)
            c = int(rng.uniform() * cols)
            if (r, c) not in occupied:
                break
        else:
            raise EnvError("could not place items on grid; too crowded")
        occupied.add((r, c))
        cells.append((r, c))
    return cells


def clamp_cell(cell, rows, cols):
    r, c = cell
    return (min(max(r, 0), rows - 1), min(max(c, 0), cols - 1))


def anchor_cell(frac, rows, cols):
    """Map a fractional (row, col) anchor to a concrete cell."""
    fr, fc = frac
    return clamp_cell((int(fr * rows), int(fc * cols)), rows, cols)


def move(cell, action, rows, cols):
    """Grid move with wall clamping; walking into a wall stays put."""
    dr, dc = GRID_MOVES[action]
    return clamp_cell((cell[0] + dr, cell[1] + dc), rows, cols)


def grid_text(rows, cols, markers, legend):
    """ASCII map: markers is {cell: single-char}, later entries win."""
    grid = [["." for _ in range(cols)] for _ in range(rows)]
    for (r, c), ch in markers.items():
        grid[r][c] = ch
    lines = [" ".join(row) for row in grid]
    lines.append("")
    lines.extend(f"{ch} = {desc}" for ch, desc in legend)
    return "\n".join(lines)


def validate_positions(cells, rows, cols, label):
    seen = set()
    for cell in cells:
        r, c = cell
        if not (0 <= r < rows and 0 <= c < cols):
            raise EnvError(f"{label}: position {cell} out of bounds "
                           f"for {rows}x{cols} grid")
        if cell in seen:
            raise EnvError(f"{label}: duplicate position {cell}")
        seen.add(cell)
