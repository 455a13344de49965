"""Pinned compiled tables of every environment, bit for bit.

Each (environment, variant) pair is compiled by `compile_env` and hashed
whole: the state tuples, the successor, reward and event tables, the
terminal and dead flags, and `step`'s `done` and `timeout` for every state
and action the compiler expanded. `test_digests.py` covers only the pairs
that its short runs visit; this pins all of them, so a change to an
environment's dynamics, reward or end-of-episode rule fails here and names
the table it changed. A deliberate change of behaviour records the table
again: `PYTHONPATH=src python tests/test_env_tables.py` prints it.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from cadent.envs import ENV_NAMES, StepOutcome, default_spec, make_env
from cadent.envs.tables import compile_env

PINNED = {
    ('blind_craftsman', 'source'):
        '54e97f85c88b6e4bedd4348a45d5e297ab952118eb7ca94eacc659727f94e031',
    ('blind_craftsman', 'target'):
        '0527a7bb08800b8ab5353fd888c7a3ee48440ba0d4003d78566de4195dbe6586',
    ('dungeon_quest', 'source'):
        '96d7a33de73c8995f5a9814fdbf172399456635bcf796a6fb694ff4a51b9e3db',
    ('dungeon_quest', 'target'):
        '93f7010338a4dfb5d9929e108e0f7e60f8dfbe2d936dd945f737906dfa3bd896',
    ('mountain_car_collection', 'source'):
        '8ad7e435d2b70408217898d7fc5812b627653cc43ded36a0655dc621812d6332',
    ('mountain_car_collection', 'target'):
        '5a7f5aac615872f03bbe05fc23a123ddc4f9ed2c60e9fbfef4554e7c3c28f5d2',
    ('warehouse_robotics', 'source'):
        'f079749d775c8215e7acbac8ee4b96cb73934fa457e7cb73838a1dae2b11db2c',
    ('warehouse_robotics', 'target'):
        '2cefd9d60b9d7b9e9e9b94263261f78601ebe64bfda7cf2f6e7a4d5bcdb1949c',
}

_CELLS = [(name, variant) for name in ENV_NAMES
          for variant in ("source", "target")]


def _digest(name, variant):
    env = make_env(default_spec(name, variant))
    tables = compile_env(env)
    h = hashlib.sha256()
    h.update(repr(tables.states).encode())
    for array in (tables.next_state, tables.reward, tables.event,
                  tables.terminal, tables.dead):
        h.update(array.tobytes())
    flags = bytearray()
    for i, state in enumerate(tables.states):
        if tables.terminal[i] or tables.dead[i]:
            continue
        for a in range(tables.n_actions):
            out = env.step(state, a)
            flags += bytes((out.done, out.timeout))
    h.update(bytes(flags))
    return h.hexdigest()


@pytest.mark.parametrize("name,variant", _CELLS)
def test_compiled_tables_match_pinned_digest(name, variant):
    assert _digest(name, variant) == PINNED[(name, variant)], (
        f"compiled tables of ({name}, {variant}) changed")


@pytest.mark.parametrize("name,variant", _CELLS)
def test_compiled_tables_have_their_dtypes_and_shapes(name, variant):
    # the digests hash bytes only, so they cannot see a dtype or shape
    tables = compile_env(make_env(default_spec(name, variant)))
    n, a = tables.n_states, tables.n_actions
    for array, dtype, shape in (
            (tables.next_state, np.int32, (n, a)),
            (tables.reward, np.float64, (n, a)),
            (tables.event, np.int16, (n, a)),
            (tables.terminal, np.bool_, (n,)),
            (tables.dead, np.bool_, (n,))):
        assert (array.dtype, array.shape) == (np.dtype(dtype), shape)


def test_compile_env_peak_memory_stays_near_what_it_keeps():
    # rows built as Python lists of boxed numbers peaked at 2.8x what the
    # compiled tables keep on the warehouse target; flat buffers at 1.0x
    env = make_env(default_spec("warehouse_robotics", "target"))
    tracemalloc.start()
    try:
        tables = compile_env(env)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tables.n_states > 20000
    assert peak < 2 * kept, (peak, kept)


def test_step_outcome_is_an_immutable_named_tuple():
    out = StepOutcome((1, 2), -0.01, None, False)
    assert out._fields == ("state", "reward", "event", "done", "timeout")
    assert tuple(out) == ((1, 2), -0.01, None, False, False)
    with pytest.raises(AttributeError):
        out.done = True


if __name__ == "__main__":
    for name, variant in _CELLS:
        print(f"    ({name!r}, {variant!r}):\n"
              f"        {_digest(name, variant)!r},")
