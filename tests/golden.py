"""Scripted reference solutions for the bundled environments.

Each controller is a small closed-loop policy that provably solves the
default layouts (source and target) of its environment; `golden_actions`
runs it and returns the verified action sequence. These are fixtures: they
pin down that every shipped task is solvable and give a yardstick length
for judging trained policies. They are written for the default band/layout
recipes; exotic custom parameters may need their own scripts.
"""

from __future__ import annotations

from cadent.envs import mountain_car as mc


class GoldenError(RuntimeError):
    """The scripted controller failed to solve the environment."""


_UP, _DOWN, _LEFT, _RIGHT = range(4)


def _walk_action(cur, target):
    """One row-first step toward target; None when already there."""
    (r, c), (tr, tc) = cur, target
    if r < tr:
        return _DOWN
    if r > tr:
        return _UP
    if c < tc:
        return _RIGHT
    if c > tc:
        return _LEFT
    return None


def _craftsman_policy(env, state):
    r, c, wood, tools = state
    if tools == env.quota:
        return _walk_action((r, c), env.home)
    if wood == 1:
        return _walk_action((r, c), env.factory)
    target = min(env.piles,
                 key=lambda p: (abs(p[0] - r) + abs(p[1] - c), p))
    return _walk_action((r, c), target)


def _dungeon_policy(env, state):
    r, c, stage = state
    sites = (env.key, env.chest, env.chest, env.shield, env.dragon)
    target = sites[stage]
    act = _walk_action((r, c), target)
    if act is None:
        # standing on the chest right after opening it: step off so the
        # next arrival can take the sword
        return _DOWN if r == 0 else _UP
    return act


def _warehouse_policy(env, state):
    r, c, stage, bucket, tick = state
    target = env.sites[stage]
    # low battery: detour to the charger (recharges on entry) unless the
    # chain already points there
    if bucket <= 1 and (r, c) != env.charger and target != env.charger:
        return _walk_action((r, c), env.charger)
    act = _walk_action((r, c), target)
    if act is None:
        return 4  # interact
    return act


def _mountain_car_policy(env, state):
    p, v, energy, stage = state
    if stage < 3 and p == env.parts[stage]:
        return mc.A_INTERACT
    if stage == 3 and p == env.n_positions - 1:
        return mc.A_INTERACT
    if stage == 0:
        steep_len = sum(1 for b in env.bands if b == mc.STEEP)
        need = mc.ENERGY_MAX if steep_len > 2 else 0
        lo = env.bands.index(mc.VALLEY)
        hi = max(i for i, b in enumerate(env.bands) if b == mc.VALLEY)
        if energy < need:
            # farm energy by swinging across the valley band
            if p <= lo:
                return mc.A_RIGHT
            if p >= hi:
                return mc.A_LEFT
            return mc.A_RIGHT if v >= 0 else mc.A_LEFT
        if v <= 0 and p > 0 and env.bands[p] in (mc.LEFT, mc.VALLEY):
            # roll back to the left wall for a full-speed launch
            return mc.A_LEFT
    return mc.A_RIGHT


_POLICIES = {
    "blind_craftsman": _craftsman_policy,
    "dungeon_quest": _dungeon_policy,
    "warehouse_robotics": _warehouse_policy,
    "mountain_car_collection": _mountain_car_policy,
}


def golden_actions(env):
    """Actions of the scripted controller, verified to reach acceptance."""
    policy = _POLICIES[env.name]
    state = env.reset()
    actions = []
    for _ in range(env.max_steps):
        a = policy(env, state)
        out = env.step(state, a)
        actions.append(a)
        state = out.state
        if out.done:
            if env.is_terminal(state):
                return actions
            raise GoldenError(f"{env.name}: scripted controller died "
                              f"after {len(actions)} steps")
    raise GoldenError(f"{env.name}: scripted controller exceeded "
                      f"{env.max_steps} steps")


def run_actions(env, actions):
    """Replay an action sequence; returns (reached, steps, reward, events)."""
    state = env.reset()
    total = 0.0
    events = []
    for i, a in enumerate(actions):
        out = env.step(state, a)
        total += out.reward
        if out.event is not None:
            events.append(out.event)
        state = out.state
        if out.done:
            return env.is_terminal(state), i + 1, total, events
    return False, len(actions), total, events
