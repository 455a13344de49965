"""Shared fixtures: environment instances are layout-immutable, so one
instance per (name, variant) is built for the whole session and reused."""

from __future__ import annotations

import pytest

from cadent.envs import ENV_NAMES, default_spec, make_env
from cadent.envs.tables import compile_env
from cadent.harness import teacher_stream
from cadent.teacher import train_teacher


@pytest.fixture(scope="session")
def env_cache():
    cache = {}

    def get(name, variant="target"):
        key = (name, variant)
        if key not in cache:
            cache[key] = make_env(default_spec(name, variant))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def source_teacher(env_cache):
    """Full-budget source teachers, trained as the experiment harness trains
    them (5000 episodes, seed 7). Each is built on first use, so its cost
    lands in the test that asked for it first."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = train_teacher(env_cache(name, "source"),
                                        episodes=5000, seed=7,
                                        stream=teacher_stream(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def dungeon_target(env_cache):
    return env_cache("dungeon_quest")


@pytest.fixture(scope="session")
def dungeon_source(env_cache):
    return env_cache("dungeon_quest", "source")


@pytest.fixture(scope="session")
def craftsman_target(env_cache):
    return env_cache("blind_craftsman")


@pytest.fixture(scope="session")
def all_env_instances(env_cache):
    return [env_cache(name, variant)
            for name in ENV_NAMES for variant in ("source", "target")]


@pytest.fixture(scope="session")
def dungeon_source_tables(dungeon_source):
    return compile_env(dungeon_source), dungeon_source.dfa.compiled()
