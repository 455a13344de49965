"""Environment behaviour: layouts, dynamics, rewards, and scripted runs."""

import re

import numpy as np
import pytest

from cadent.automaton import is_accepting, step_automaton
from cadent.envs import (DEFAULT_EPISODES, ENV_NAMES, EnvError,
                         canonical_name, default_spec, make_env)
from cadent.envs.base import (ACCEPT_BONUS, GRID_MOVES, PROGRESS_BONUS,
                              STEP_PENALTY, EnvSpec, anchor_cell, clamp_cell,
                              fractional_cells, move)
from cadent.envs.mountain_car import (LEFT, STEEP, SUMMIT, VALLEY,
                                      band_layout)
from cadent.envs.tables import compile_env, product_tables
from cadent.envs.warehouse import DEAD_STATE

from golden import GoldenError, golden_actions, run_actions
from oracles import product_violations

ALL_INSTANCES = [(name, variant)
                 for name in ENV_NAMES for variant in ("source", "target")]


# ---------------------------------------------------------------------------
# registry and specs


def test_env_names_and_default_episodes():
    assert ENV_NAMES == ("blind_craftsman", "dungeon_quest",
                         "mountain_car_collection", "warehouse_robotics")
    assert DEFAULT_EPISODES == {
        "blind_craftsman": 1500,
        "dungeon_quest": 1500,
        "mountain_car_collection": 3000,
        "warehouse_robotics": 3000,
    }


@pytest.mark.parametrize("alias,full", [
    ("craftsman", "blind_craftsman"),
    ("dungeon", "dungeon_quest"),
    ("mountain_car", "mountain_car_collection"),
    ("warehouse", "warehouse_robotics"),
    ("dungeon_quest", "dungeon_quest"),
])
def test_canonical_name_aliases(alias, full):
    assert canonical_name(alias) == full


def test_canonical_name_rejects_unknown():
    with pytest.raises(EnvError):
        canonical_name("frozen_lake")


def test_env_spec_validation():
    with pytest.raises(ValueError):
        EnvSpec("dungeon_quest", variant="teacher")
    # a float seed failed later in make_env, a bool one gave its own cache
    # key, and a float or bool max_steps reached the env as its budget
    for field, value in (("layout_seed", -1), ("layout_seed", 1.5),
                         ("layout_seed", True), ("max_steps", -5),
                         ("max_steps", 2.5), ("max_steps", True)):
        with pytest.raises(EnvError, match=(
                rf"^EnvSpec.{field} must be a non-negative integer, "
                rf"not {re.escape(repr(value))}$")):
            EnvSpec("dungeon_quest", **{field: value})
    # a numpy integer is stored as an int, so the spec stays JSON
    spec = EnvSpec("dungeon_quest", layout_seed=np.int64(3))
    assert type(spec.layout_seed) is int


def test_env_spec_json_round_trip(tmp_path):
    spec = EnvSpec("blind_craftsman", variant="source", layout_seed=3,
                   max_steps=77, parameters={"quota": 2})
    again = EnvSpec.from_json(spec.to_json())
    assert again == spec
    path = tmp_path / "spec.json"
    spec.save(path)
    assert EnvSpec.load(path) == spec


@pytest.mark.parametrize("payload,message", [
    ({"name": "dungeon_quest", "bogus": 1}, "unknown EnvSpec keys: bogus"),
    ({"variant": "source"}, "missing EnvSpec keys: name"),
], ids=["unknown", "missing"])
def test_env_spec_from_json_names_unknown_and_missing_keys(payload, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EnvSpec.from_json(payload)


def test_env_spec_from_json_rejects_a_non_object():
    with pytest.raises(ValueError,
                       match="^env spec must be a JSON object, not list$"):
        EnvSpec.from_json([1, 2])


def test_env_spec_with_override():
    spec = default_spec("dungeon_quest")
    src = spec.with_(variant="source")
    assert src.variant == "source"
    assert spec.variant == "target"


def test_unknown_parameter_rejected():
    spec = EnvSpec("dungeon_quest", parameters={"teleporters": 3})
    with pytest.raises(EnvError):
        make_env(spec)


@pytest.mark.parametrize("name,parameters,key", [
    # a float or string size once built a truncated grid, a float start
    # held 1.5 in every state, and a float key could not be reached
    ("dungeon_quest", {"rows": 7.9}, "rows"),
    ("dungeon_quest", {"rows": "7"}, "rows"),
    ("dungeon_quest", {"cols": True}, "cols"),
    ("dungeon_quest", {"start": [1.5, 0]}, "start"),
    ("dungeon_quest", {"key": [0.5, 2]}, "key"),
    ("dungeon_quest", {"dragon": [1, 2, 3]}, "dragon"),
    ("dungeon_quest", {"chest": "12"}, "chest"),
    ("warehouse_robotics", {"dock": [1, True]}, "dock"),
    ("blind_craftsman", {"quota": 1.5}, "quota"),
    ("blind_craftsman", {"n_piles": "3"}, "n_piles"),
    ("blind_craftsman", {"home": [2.0, 3]}, "home"),
    ("blind_craftsman", {"piles": 3}, "piles"),
    ("blind_craftsman", {"piles": [[1, 2.5]]}, "piles"),
    ("mountain_car_collection", {"n_positions": 9.0}, "n_positions"),
    ("mountain_car_collection", {"parts": [3, 5.5, 7]}, "parts"),
    ("mountain_car_collection", {"parts": 5}, "parts"),
])
def test_parameters_of_the_wrong_type_are_rejected(name, parameters, key):
    with pytest.raises(EnvError, match=f"^{name}: parameter '{key}' must "):
        make_env(EnvSpec(name, parameters=parameters))


@pytest.mark.parametrize("name,parameters,message", [
    ("dungeon_quest", {"key": [-1, 0]},
     "dungeon_quest: position (-1, 0) out of bounds for 20x20 grid"),
    # the start cell
    ("dungeon_quest", {"key": [19, 0]},
     "dungeon_quest: duplicate position (19, 0)"),
    ("dungeon_quest", {"rows": 2},
     "dungeon_quest: grid must be at least 3x3, not 2x20"),
    ("blind_craftsman", {"rows": 3, "cols": 3, "n_piles": 500},
     "blind_craftsman: could not place 500 items on the 3x3 grid; "
     "too crowded"),
    ("blind_craftsman", {"quota": 0},
     "blind_craftsman: quota must be at least 1, not 0"),
    ("blind_craftsman", {"n_piles": 0},
     "blind_craftsman: need at least one wood pile"),
    ("mountain_car_collection", {"n_positions": 5},
     "mountain_car_collection: track needs at least 6 position buckets, "
     "not 5"),
    ("mountain_car_collection", {"parts": [5, 5, 11]},
     "mountain_car_collection: parts must be three strictly increasing "
     "buckets, not [5, 5, 11]"),
    ("mountain_car_collection", {"parts": [0, 8, 11]},
     "mountain_car_collection: parts [0, 8, 11] must lie strictly between "
     "the track ends 0 and 14"),
])
def test_impossible_layouts_are_rejected(name, parameters, message):
    with pytest.raises(EnvError, match=f"^{re.escape(message)}$"):
        make_env(EnvSpec(name, parameters=parameters))


def test_integer_parameters_build_as_before():
    # numpy integers and tuples pass and are stored as plain ints
    env = make_env(EnvSpec("dungeon_quest", parameters={
        "rows": np.int64(7), "start": (np.int32(1), 0)}))
    assert (env.rows, env.start) == (7, (1, 0))
    assert type(env.rows) is int and type(env.start[0]) is int


def test_max_steps_override():
    env = make_env(EnvSpec("dungeon_quest", max_steps=50))
    assert env.max_steps == 50
    assert make_env(default_spec("dungeon_quest")).max_steps == 500


# ---------------------------------------------------------------------------
# pinned sizes for both variants of each task


def test_pinned_grid_sizes(env_cache):
    tgt = env_cache("blind_craftsman")
    src = env_cache("blind_craftsman", "source")
    assert (tgt.rows, tgt.cols, len(tgt.piles)) == (25, 25, 5)
    assert (src.rows, src.cols, len(src.piles)) == (15, 15, 4)
    assert tgt.quota == src.quota == 3

    tgt = env_cache("dungeon_quest")
    src = env_cache("dungeon_quest", "source")
    assert (tgt.rows, tgt.cols) == (20, 20)
    assert (src.rows, src.cols) == (12, 12)

    tgt = env_cache("mountain_car_collection")
    src = env_cache("mountain_car_collection", "source")
    assert tgt.n_positions == 15 and tgt.parts == (5, 8, 11)
    assert src.n_positions == 9 and src.parts == (3, 5, 7)

    tgt = env_cache("warehouse_robotics")
    src = env_cache("warehouse_robotics", "source")
    assert (tgt.rows, tgt.cols) == (10, 12)
    assert (src.rows, src.cols) == (6, 8)


def test_pinned_max_steps(env_cache):
    assert env_cache("blind_craftsman").max_steps == 500
    assert env_cache("dungeon_quest").max_steps == 500
    assert env_cache("mountain_car_collection").max_steps == 1000
    assert env_cache("warehouse_robotics").max_steps == 1000


def test_craftsman_anchor_positions(env_cache):
    tgt = env_cache("blind_craftsman")
    assert tgt.factory == anchor_cell((0.30, 0.70), 25, 25) == (7, 17)
    assert tgt.home == anchor_cell((0.80, 0.20), 25, 25) == (20, 5)
    src = env_cache("blind_craftsman", "source")
    assert src.factory == (4, 10)
    assert src.home == (12, 3)


# ---------------------------------------------------------------------------
# layout placement helpers


def test_fractional_cells_deterministic():
    a = fractional_cells(12, 4, 20, 20, taken=[(19, 0)], stream=1)
    b = fractional_cells(12, 4, 20, 20, taken=[(19, 0)], stream=1)
    assert a == b
    assert len(a) == 4
    assert len(set(a)) == 4
    for r, c in a:
        assert 0 <= r < 20 and 0 <= c < 20
        assert (r, c) != (19, 0)


def test_fractional_cells_stream_salt_differs():
    src = fractional_cells(12, 4, 20, 20, taken=[], stream=0)
    tgt = fractional_cells(12, 4, 20, 20, taken=[], stream=1)
    assert src != tgt


def test_fractional_cells_seed_changes_layout():
    a = fractional_cells(12, 4, 20, 20, taken=[], stream=1)
    b = fractional_cells(13, 4, 20, 20, taken=[], stream=1)
    assert a != b


def test_layout_is_deterministic_per_spec(env_cache):
    for name, variant in ALL_INSTANCES:
        first = make_env(default_spec(name, variant))
        second = make_env(default_spec(name, variant))
        assert first.layout_text() == second.layout_text()


LAYOUT_SEEDS = (1, 2, 3, 4, 5, 6, 12)


def _table_bytes(name, variant, layout_seed):
    tables = compile_env(make_env(EnvSpec(name=name, variant=variant,
                                          layout_seed=layout_seed)))
    return (repr(tables.states).encode(),
            *(array.tobytes() for array in (
                tables.next_state, tables.reward, tables.event,
                tables.terminal, tables.dead)))


@pytest.mark.parametrize("variant", ["source", "target"])
def test_mountain_car_tables_do_not_depend_on_layout_seed(variant):
    # the track and the part buckets come from `defaults` alone, while a
    # grid world places its items from layout_seed
    car = {_table_bytes("mountain_car_collection", variant, seed)
           for seed in LAYOUT_SEEDS}
    dungeon = {_table_bytes("dungeon_quest", variant, seed)
               for seed in LAYOUT_SEEDS}
    assert len(car) == 1
    assert len(dungeon) == len(LAYOUT_SEEDS)


def test_clamp_and_anchor_helpers():
    assert clamp_cell((-3, 99), 10, 10) == (0, 9)
    assert anchor_cell((0.0, 0.999), 10, 10) == (0, 9)
    assert move((0, 0), 0, 5, 5) == (0, 0)
    assert move((0, 0), 1, 5, 5) == (1, 0)
    assert move((0, 0), 3, 5, 5) == (0, 1)
    assert GRID_MOVES == ((-1, 0), (1, 0), (0, -1), (0, 1))


def test_layout_text_smoke(env_cache):
    for name in ENV_NAMES:
        text = env_cache(name).layout_text()
        assert "S" in text
        assert "start" in text


# ---------------------------------------------------------------------------
# dungeon dynamics


def _tiny_dungeon():
    spec = EnvSpec("dungeon_quest", parameters={
        "rows": 4, "cols": 4, "start": (3, 0), "key": (3, 1),
        "chest": (3, 2), "shield": (2, 2), "dragon": (1, 2),
    })
    return make_env(spec)


def test_dungeon_reset_and_plain_step():
    env = _tiny_dungeon()
    assert env.reset() == (3, 0, 0)
    out = env.step((3, 0, 0), 0)
    assert out.state == (2, 0, 0)
    assert out.event is None
    assert out.reward == STEP_PENALTY
    assert not out.done and not out.timeout


def test_dungeon_wall_clamp():
    env = _tiny_dungeon()
    out = env.step((3, 0, 0), 1)  # down off the southern edge
    assert out.state == (3, 0, 0)
    out = env.step((3, 0, 0), 2)  # left off the western edge
    assert out.state == (3, 0, 0)


def test_dungeon_staged_pickups():
    env = _tiny_dungeon()
    out = env.step((3, 0, 0), 3)
    assert out.event == "key" and out.state == (3, 1, 1)
    assert out.reward == pytest.approx(STEP_PENALTY + PROGRESS_BONUS)
    out = env.step((3, 1, 1), 3)
    assert out.event == "chest" and out.state == (3, 2, 2)
    # the sword stage fires on a later visit to the same chest cell
    out = env.step((3, 2, 2), 2)
    assert out.event is None and out.state == (3, 1, 2)
    out = env.step((3, 1, 2), 3)
    assert out.event == "sword" and out.state == (3, 2, 3)
    out = env.step((3, 2, 3), 0)
    assert out.event == "shield" and out.state == (2, 2, 4)
    out = env.step((2, 2, 4), 0)
    assert out.event == "dragon" and out.state == (1, 2, 5)
    assert out.done
    assert out.reward == pytest.approx(
        STEP_PENALTY + PROGRESS_BONUS + ACCEPT_BONUS)
    assert env.is_terminal(out.state)


def test_dungeon_out_of_order_sites_are_silent():
    env = _tiny_dungeon()
    out = env.step((2, 2, 0), 0)  # dragon cell before anything else
    assert out.event is None and out.state == (1, 2, 0)
    out = env.step((3, 2, 0), 0)  # shield cell before the sword
    assert out.event is None and out.state == (2, 2, 0)
    # chest before key is silent too
    out = env.step((3, 1, 0), 3)
    assert out.event is None and out.state == (3, 2, 0)


# ---------------------------------------------------------------------------
# craftsman dynamics


def _tiny_craftsman(quota=2):
    spec = EnvSpec("blind_craftsman", parameters={
        "rows": 3, "cols": 3, "start": (1, 1), "factory": (0, 2),
        "home": (2, 2), "piles": ((0, 0),), "quota": quota,
    })
    return make_env(spec)


def test_craftsman_reset_and_pickup():
    env = _tiny_craftsman()
    assert env.reset() == (1, 1, 0, 0)
    out = env.step((1, 0, 0, 0), 0)
    assert out.event == "wood" and out.state == (0, 0, 1, 0)


def test_craftsman_pile_ignored_when_carrying():
    env = _tiny_craftsman()
    out = env.step((1, 0, 1, 0), 0)
    assert out.event is None and out.state == (0, 0, 1, 0)


def test_craftsman_pile_ignored_at_quota():
    env = _tiny_craftsman()
    out = env.step((1, 0, 0, 2), 0)
    assert out.event is None and out.state == (0, 0, 0, 2)


def test_craftsman_factory_converts_wood():
    env = _tiny_craftsman()
    out = env.step((0, 1, 1, 0), 3)
    assert out.event == "factory" and out.state == (0, 2, 0, 1)
    out = env.step((0, 1, 0, 1), 3)  # empty-handed: nothing happens
    assert out.event is None and out.state == (0, 2, 0, 1)


def test_craftsman_home_needs_quota():
    env = _tiny_craftsman()
    out = env.step((1, 2, 0, 1), 1)
    assert out.event is None and not out.done
    out = env.step((1, 2, 0, 2), 1)
    assert out.event == "home" and out.done
    assert out.reward == pytest.approx(
        STEP_PENALTY + PROGRESS_BONUS + ACCEPT_BONUS)
    assert env.is_terminal(out.state)


def test_craftsman_rejects_bad_quota():
    with pytest.raises(EnvError):
        make_env(EnvSpec("blind_craftsman", parameters={"quota": 0}))


# ---------------------------------------------------------------------------
# mountain car dynamics


def test_band_layout_pins():
    tgt = band_layout(15)
    assert tgt.count(LEFT) == 2
    assert tgt.index(VALLEY) == 2
    assert tgt[-1] == SUMMIT
    assert band_layout(9).index(VALLEY) == 1
    with pytest.raises(EnvError):
        band_layout(5)


def test_mountain_car_reset(env_cache):
    assert env_cache("mountain_car_collection").reset() == (2, 0, 0, 0)
    assert env_cache("mountain_car_collection",
                         "source").reset() == (1, 0, 0, 0)


def test_mountain_car_basic_physics(env_cache):
    env = env_cache("mountain_car_collection")
    # valley is flat: thrust right accelerates by exactly one unit
    out = env.step((2, 0, 0, 0), 2)
    assert out.state == (3, 1, 0, 0)
    # noop on the flat keeps the car parked
    out = env.step((3, 0, 0, 0), 1)
    assert out.state == (3, 0, 0, 0)
    # gentle slope pulls one unit back toward the valley
    out = env.step((5, 0, 0, 0), 1)
    assert out.state == (4, -1, 0, 0)
    assert out.reward == STEP_PENALTY


def test_mountain_car_wall_reset(env_cache):
    env = env_cache("mountain_car_collection")
    # left band has gravity +1 toward the wall; rolling past clamps at 0
    out = env.step((0, -2, 0, 0), 0)
    assert out.state == (0, 0, 0, 0)


def test_mountain_car_velocity_clamp(env_cache):
    env = env_cache("mountain_car_collection")
    out = env.step((3, 3, 0, 0), 2)
    assert out.state[1] == 3  # |v| is capped


def test_mountain_car_energy_gain_in_valley(env_cache):
    env = env_cache("mountain_car_collection")
    out = env.step((3, 1, 0, 0), 2)  # arrive at p=4 (valley) with v=2
    assert out.state == (4, 2, 1, 0)
    out = env.step((4, 2, 4, 0), 2)  # energy is capped at 4
    assert out.state[2] == 4


def test_mountain_car_boost_spends_energy(env_cache):
    env = env_cache("mountain_car_collection")
    assert env.bands[10] == STEEP
    # without energy the steep gravity (-2) beats the +1 thrust
    out = env.step((10, 1, 0, 0), 2)
    assert out.state == (10, 0, 0, 0)
    # with energy the boost thrust (+2) holds the climb
    out = env.step((10, 1, 1, 0), 2)
    assert out.state == (11, 1, 0, 0)


def test_mountain_car_interact_freezes_physics(env_cache):
    env = env_cache("mountain_car_collection")
    out = env.step((10, 2, 1, 0), 3)  # not at a part site: nothing happens
    assert out.state == (10, 2, 1, 0)
    assert out.event is None and out.reward == STEP_PENALTY


def test_mountain_car_part_collection_order(env_cache):
    env = env_cache("mountain_car_collection")
    out = env.step((5, 0, 0, 0), 3)
    assert out.event == "power_cell" and out.state == (5, 0, 0, 1)
    # parts must come in order: the second site is silent at stage 0
    out = env.step((8, 0, 0, 0), 3)
    assert out.event is None and out.state == (8, 0, 0, 0)
    out = env.step((8, 0, 0, 1), 3)
    assert out.event == "sensor_array" and out.state == (8, 0, 0, 2)
    out = env.step((11, 0, 0, 2), 3)
    assert out.event == "data_crystal" and out.state == (11, 0, 0, 3)
    out = env.step((14, 0, 0, 3), 3)
    assert out.event == "base_station" and out.done
    assert out.reward == pytest.approx(
        STEP_PENALTY + PROGRESS_BONUS + ACCEPT_BONUS)
    assert env.is_terminal(out.state)
    # summit interact before all parts are mounted does nothing
    out = env.step((14, 0, 0, 2), 3)
    assert out.event is None and not out.done


# ---------------------------------------------------------------------------
# warehouse dynamics


def _tiny_warehouse():
    spec = EnvSpec("warehouse_robotics", parameters={
        "rows": 3, "cols": 3, "start": (0, 0), "scanner_station": (0, 1),
        "shelf": (0, 2), "charger": (1, 1), "item_shelf": (2, 0),
        "dock": (2, 2),
    })
    return make_env(spec)


def test_warehouse_reset_battery_full(env_cache):
    env = env_cache("warehouse_robotics")
    assert env.reset() == (0, 0, 0, 4, 0)


def test_warehouse_battery_tick_and_bucket_drop(env_cache):
    env = env_cache("warehouse_robotics")
    state = env.reset()
    for expected_tick in range(1, 10):
        out = env.step(state, 0)  # bump the north wall in place
        state = out.state
        assert state == (0, 0, 0, 4, expected_tick)
    out = env.step(state, 0)
    assert out.state == (0, 0, 0, 3, 0)


def test_warehouse_battery_death(env_cache):
    env = env_cache("warehouse_robotics")
    state = env.reset()
    for _ in range(49):
        state = env.step(state, 0).state
    assert state == (0, 0, 0, 0, 9)
    out = env.step(state, 0)
    assert out.state == DEAD_STATE
    assert out.done and out.timeout
    assert out.reward == STEP_PENALTY
    assert env.is_dead(out.state)
    assert not env.is_terminal(out.state)


def test_warehouse_dead_robot_cannot_step(env_cache):
    env = env_cache("warehouse_robotics")
    with pytest.raises(ValueError):
        env.step(DEAD_STATE, 0)


def test_warehouse_charger_refills():
    env = _tiny_warehouse()
    out = env.step((0, 1, 0, 1, 7), 1)  # move down onto the charger
    assert out.state == (1, 1, 0, 4, 0)


def test_warehouse_interact_chain():
    env = _tiny_warehouse()
    out = env.step((0, 1, 0, 4, 0), 4)
    assert out.event == "scanner" and out.state[2] == 1
    # interact away from the staged site is silent
    out = env.step((0, 1, 1, 4, 0), 4)
    assert out.event is None and out.state[2] == 1
    # movement alone never fires an event, even across a site cell
    out = env.step((0, 1, 0, 4, 0), 3)
    assert out.event is None and out.state[2] == 0
    # final interact at the dock pays the acceptance bonus
    out = env.step((2, 2, 4, 2, 3), 4)
    assert out.event == "deliver" and out.done
    assert out.state == (2, 2, 5, 2, 3)
    assert out.reward == pytest.approx(
        STEP_PENALTY + PROGRESS_BONUS + ACCEPT_BONUS)
    assert env.is_terminal(out.state)


def test_warehouse_interact_does_not_drain_on_charger():
    env = _tiny_warehouse()
    out = env.step((1, 1, 1, 2, 5), 4)  # idle interact on the charger cell
    assert out.state == (1, 1, 1, 4, 0)


# ---------------------------------------------------------------------------
# scripted controllers and the product construction


@pytest.mark.parametrize("name,variant", ALL_INSTANCES)
def test_golden_run_accepts(env_cache, name, variant):
    env = env_cache(name, variant)
    actions = golden_actions(env)
    assert 0 < len(actions) <= env.max_steps
    reached, steps, total_reward, events = run_actions(env, actions)
    assert reached
    assert steps == len(actions)
    # replaying the event trace through the task automaton must accept
    q = env.dfa.start
    for ev in events:
        assert ev in env.dfa.alphabet
        q = step_automaton(env.dfa, q, ev)
    assert is_accepting(env.dfa, q)
    expected = (STEP_PENALTY * steps + PROGRESS_BONUS * len(events)
                + ACCEPT_BONUS)
    assert total_reward == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("name,variant", ALL_INSTANCES)
def test_product_reach_has_no_violations(env_cache, name, variant):
    env = env_cache(name, variant)
    tables = compile_env(env)
    cdfa = env.dfa.compiled()
    product = product_tables(tables, cdfa)
    assert product_violations(tables, cdfa, product) == []
    assert product.q_of[product.start] == cdfa.start


def test_golden_error_on_hopeless_budget():
    env = make_env(EnvSpec("dungeon_quest", max_steps=3))
    with pytest.raises(GoldenError):
        golden_actions(env)


def test_scripted_runs_are_deterministic(env_cache):
    env = env_cache("warehouse_robotics")
    assert golden_actions(env) == golden_actions(env)
