"""Benchmark environment registry."""

from __future__ import annotations

from .base import (ACCEPT_BONUS, PROGRESS_BONUS, STEP_PENALTY, EnvError,
                   Environment, EnvSpec, StepOutcome)
from .craftsman import BlindCraftsman
from .dungeon import DungeonQuest
from .mountain_car import MountainCarCollection
from .warehouse import WarehouseRobotics

_CLASSES = {
    "blind_craftsman": BlindCraftsman,
    "dungeon_quest": DungeonQuest,
    "mountain_car_collection": MountainCarCollection,
    "warehouse_robotics": WarehouseRobotics,
}

ALIASES = {
    "craftsman": "blind_craftsman",
    "dungeon": "dungeon_quest",
    "mountain_car": "mountain_car_collection",
    "warehouse": "warehouse_robotics",
}

ENV_NAMES = tuple(_CLASSES)

# student episode budgets; gridworlds settle faster than the others
DEFAULT_EPISODES = {
    "blind_craftsman": 1500,
    "dungeon_quest": 1500,
    "mountain_car_collection": 3000,
    "warehouse_robotics": 3000,
}


def canonical_name(name):
    name = ALIASES.get(name, name)
    if name not in _CLASSES:
        raise EnvError(f"unknown environment {name!r}; "
                       f"known: {sorted(_CLASSES)}")
    return name


def make_env(spec):
    """Instantiate the environment described by an EnvSpec."""
    cls = _CLASSES[canonical_name(spec.name)]
    return cls(spec)


def default_spec(name, variant="target", layout_seed=EnvSpec.layout_seed):
    return EnvSpec(name=canonical_name(name), variant=variant,
                   layout_seed=layout_seed)


def bundled_dfa(name):
    """The task automaton of a benchmark environment, as its class's
    `build_dfa()` defines it."""
    return _CLASSES[canonical_name(name)].build_dfa()


__all__ = [
    "ACCEPT_BONUS", "PROGRESS_BONUS", "STEP_PENALTY",
    "EnvError", "Environment", "EnvSpec", "StepOutcome",
    "BlindCraftsman", "DungeonQuest", "MountainCarCollection",
    "WarehouseRobotics",
    "ENV_NAMES", "ALIASES", "DEFAULT_EPISODES",
    "canonical_name", "make_env", "default_spec", "bundled_dfa",
]
