"""Guidance terms, the trust gate, and full student training runs."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadent import student
from cadent.baselines import preset_names, resolve_preset
from cadent.envs import DEFAULT_EPISODES
from cadent.envs.tables import compile_env
from cadent.harness import _run_stream
from cadent.kernels import greedy_rollout, run_training
from cadent.student import (Diagnostics, GuidanceParams, StudentConfig,
                            TrustParams, fused_update, strategic_reward,
                            tactical_applies, tactical_gradient,
                            train_student, trust_gate, update_bound,
                            volatility_update)
from cadent.tabular import LearningParams, softmax_policy
from cadent.teacher import build_knowledge, train_teacher

from oracles import ewma_closed_form, q_rows_from_table, sigmoid


# ---------------------------------------------------------------------------
# scalar pieces


def test_volatility_update_examples():
    assert volatility_update(0.0, 2.0, 0.1) == pytest.approx(0.2, abs=1e-12)
    assert volatility_update(1.0, -3.0, 1.0) == 3.0
    assert volatility_update(1.0, 0.0, 0.1) == pytest.approx(0.9, abs=1e-12)


def test_volatility_update_matches_closed_form():
    v = 0.7
    for n in range(1, 40):
        v = volatility_update(v, 1.3, 0.25)
        assert v == pytest.approx(ewma_closed_form(n, 0.25, 1.3, v0=0.7),
                                  abs=1e-12)


def test_trust_gate_midpoint_and_examples():
    assert trust_gate(0.5, 10.0, 0.5) == 0.5
    assert trust_gate(1.0, 10.0, 0.5) == pytest.approx(sigmoid(-5.0),
                                                       abs=1e-12)
    assert trust_gate(0.0, 10.0, 0.5) == pytest.approx(sigmoid(5.0),
                                                       abs=1e-12)


def test_trust_gate_extremes_stay_finite():
    assert trust_gate(1e6, 10.0, 0.5) == 0.0
    assert trust_gate(-1e6, 10.0, 0.5) == 1.0
    assert trust_gate(0.0, 1e6, 0.5) == 1.0


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0),
       st.floats(0.01, 50.0), st.floats(0.0, 2.0))
def test_trust_gate_monotone_decreasing(v1, v2, k, theta):
    lo, hi = min(v1, v2), max(v1, v2)
    assert trust_gate(lo, k, theta) >= trust_gate(hi, k, theta)


def test_strategic_reward_cases():
    know = SimpleNamespace(q_ad={("q0", "q1"): 2.0})
    assert strategic_reward(know, "q0", "q0", 1.0) == 0.0
    assert strategic_reward(know, "q0", "q1", 1.0) == 2.0
    assert strategic_reward(know, "q0", "q1", 0.5) == 1.0


def test_strategic_reward_counts_novel_edges():
    know = SimpleNamespace(q_ad={})
    diag = Diagnostics()
    assert strategic_reward(know, "q0", "q1", 1.0, diag) == 0.0
    assert strategic_reward(know, "q1", "q2", 1.0, diag) == 0.0
    assert diag.novel_transitions == 2
    # no automaton progress is not novelty
    strategic_reward(know, "q0", "q0", 1.0, diag)
    assert diag.novel_transitions == 2


def test_tactical_gradient_cases():
    know = SimpleNamespace(pi={"q0": np.array([0.9, 0.1])})
    row = np.zeros(2)
    # student softmax over a zero row is uniform
    assert tactical_gradient(know, "q0", row, 0, 2.0) == pytest.approx(
        0.8, abs=1e-12)
    assert tactical_gradient(know, "q0", row, 1, 0.5) == pytest.approx(
        -0.2, abs=1e-12)
    assert tactical_gradient(know, "q9", row, 0, 0.5) == 0.0


def test_tactical_gradient_uses_unit_temperature():
    know = SimpleNamespace(pi={"q0": np.array([1.0, 0.0, 0.0])})
    row = np.array([2.0, 1.0, -1.0])
    student = softmax_policy(row, 1.0)
    got = tactical_gradient(know, "q0", row, 1, 0.5)
    assert got == pytest.approx(0.5 * (0.0 - student[1]), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=2, max_size=6),
       st.floats(0.0, 3.0), st.integers(0, 5))
def test_tactical_gradient_bounded(row, lam, action):
    action = action % len(row)
    probs = np.zeros(len(row))
    probs[0] = 1.0
    know = SimpleNamespace(pi={"q0": probs})
    g = tactical_gradient(know, "q0", np.array(row), action, lam)
    assert abs(g) <= lam + 1e-12


def test_fused_update_examples():
    # omega * delta + (1 - omega) * (delta + r_ad + g_pd)
    assert fused_update(1.0, 2.0, 5.0, 5.0) == 2.0            # 2 + 0 * 10
    assert fused_update(0.0, 2.0, 1.0, 0.5) == 3.5            # 2 + 1 * 1.5
    assert fused_update(0.5, 2.0, 1.0, 0.5) == 2.75           # 2 + 0.5 * 1.5
    assert fused_update(0.75, -1.0, 2.0, -0.5) == -0.625      # -1 + 0.25 * 1.5


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-10, 10), st.floats(-10, 10),
       st.floats(-2, 2))
def test_fused_update_convex_bound(omega, delta, r_ad, g_pd):
    # the teacher arm adds at most its own magnitude (triangle inequality)
    fused = fused_update(omega, delta, r_ad, g_pd)
    assert abs(fused) <= abs(delta) + abs(r_ad + g_pd) + 1e-12


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-10, 10))
def test_fused_update_without_guidance_is_scaled_delta(omega, delta):
    # with no teacher terms both arms are the student's TD error
    assert fused_update(omega, delta, 0.0, 0.0) == delta


def test_update_bound_example():
    bound = update_bound(0.9, 10.0, 1.0, 5.0, 0.5)
    assert bound == 10.0 / (1.0 - 0.9) + 1.0 * 5.0 + 2.0 * 0.5
    assert bound == pytest.approx(106.0, abs=1e-9)


def test_update_bound_without_guidance():
    assert update_bound(0.99, 10.99, 0.0, 0.0, 0.0) == pytest.approx(
        10.99 / 0.01, abs=1e-9)


def test_update_bound_validation():
    with pytest.raises(ValueError):
        update_bound(1.0, 10.0, 1.0, 5.0, 0.5)
    with pytest.raises(ValueError):
        update_bound(0.9, -1.0, 1.0, 5.0, 0.5)
    with pytest.raises(ValueError):
        update_bound(0.9, 10.0, -1.0, 5.0, 0.5)


# ---------------------------------------------------------------------------
# parameter bundles


def test_trust_params_validation():
    TrustParams(eta=1.0)
    with pytest.raises(ValueError):
        TrustParams(eta=0.0)
    with pytest.raises(ValueError):
        TrustParams(eta=1.5)
    with pytest.raises(ValueError):
        TrustParams(k=0.0)
    with pytest.raises(ValueError):
        TrustParams(theta=math.inf)
    with pytest.raises(ValueError):
        TrustParams(v_init=-0.1)


def test_guidance_params_validation():
    GuidanceParams(lambda_ad=0.0, lambda_pd=0.0)
    with pytest.raises(ValueError):
        GuidanceParams(lambda_ad=-1.0)
    with pytest.raises(ValueError):
        GuidanceParams(lambda_pd=-0.5)


def test_student_config_variant_rules():
    with pytest.raises(ValueError):
        StudentConfig(variant="sac")
    with pytest.raises(ValueError):
        StudentConfig(variant="cadent", omega0=1.5)
    with pytest.raises(ValueError):
        StudentConfig(variant="fixed_trust", omega0=-0.1)
    # every variant takes any weights and omega0: train_student applies
    # the variant's row (test_preset_kernel_arguments)
    for name in preset_names():
        StudentConfig(variant=name)
        StudentConfig(variant=name, omega0=0.9,
                      guide=GuidanceParams(lambda_ad=2.0, lambda_pd=0.0))


def test_preset_kernel_arguments(monkeypatch, dungeon_target,
                                 source_knowledge):
    # the variant rules: (use_gate, use_guidance, omega_fixed, lam_ad,
    # lam_pd) the kernel gets from one base config; a variant drops the
    # weights it does not use, and no_trust_gate pins omega to 0.5
    expected = {
        "cadent": (True, True, 0.8, 2.0, 0.25),
        "ad": (True, True, 0.8, 2.0, 0.0),
        "pd": (True, True, 0.8, 0.0, 0.25),
        "no_transfer": (False, False, 0.8, 0.0, 0.0),
        "no_trust_gate": (False, True, 0.5, 2.0, 0.25),
        "fixed_trust": (False, True, 0.8, 2.0, 0.25),
    }
    assert tuple(expected) == preset_names()
    seen = {}

    def capture(*args, **kwargs):
        seen.update(kwargs)
        return run_training(*args, **kwargs)

    monkeypatch.setattr(student, "run_training", capture)
    base = StudentConfig(
        guide=GuidanceParams(lambda_ad=2.0, lambda_pd=0.25), omega0=0.8)
    for name, row in expected.items():
        train_student(dungeon_target,
                      source_knowledge if row[1] else None,
                      base.with_(variant=name), episodes=1, seed=1)
        assert tuple(seen[key] for key in (
            "use_gate", "use_guidance", "omega_fixed", "lam_ad",
            "lam_pd")) == row, name


def test_student_config_round_trip():
    cfg = StudentConfig(learn=LearningParams(alpha=0.2),
                        trust=TrustParams(theta=0.7),
                        guide=GuidanceParams(lambda_pd=0.25))
    assert StudentConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("section,key", [
    (None, "omega"), ("learn", "alpah"), ("trust", "v0"), ("guide", "lam")])
def test_student_config_from_json_names_unknown_keys(section, key):
    payload = StudentConfig().to_json()
    (payload[section] if section else payload)[key] = 1.0
    with pytest.raises(ValueError, match=f"unknown .*keys: {key}$"):
        StudentConfig.from_json(payload)


@pytest.mark.parametrize("section", [None, "learn", "trust", "guide"])
def test_student_config_from_json_names_a_section_not_an_object(section):
    payload = StudentConfig().to_json()
    if section:
        payload[section] = [1, 2]
    else:
        payload = [1, 2]
    with pytest.raises(ValueError, match=f"^{section or 'student config'} "
                                         f"must be a JSON object, not list$"):
        StudentConfig.from_json(payload)


def test_tactical_applies():
    assert tactical_applies(3, "q0", 4, "q0")          # a move within q0
    assert not tactical_applies(3, "q0", 3, "q0")      # a wall bump
    assert not tactical_applies(3, "q0", 4, "q1")      # an edge crossing
    assert not tactical_applies(3, "q0", 3, "q1")


# ---------------------------------------------------------------------------
# the kernel's guided step against the scalar reference helpers


_KNOW = SimpleNamespace(q_ad={("q0", "q1"): 4.0},
                        pi={"q0": np.array([0.8, 0.2])})


@pytest.mark.parametrize("case,s_next,event", [
    ("move", 1, 0), ("wall bump", 0, 0), ("edge crossing", 1, 1)])
def test_kernel_guided_step_matches_reference(case, s_next, event):
    # one greedy step from env state 0 under q0; the zero table picks
    # action 0, whose outcome each case sets
    tables = SimpleNamespace(
        next_state=np.array([[s_next, 0], [1, 1]], dtype=np.int32),
        reward=np.array([[0.3, 0.0], [0.0, 0.0]]),
        event=np.array([[event, 0], [0, 0]], dtype=np.int32),
        terminal=np.zeros(2, dtype=np.bool_),
        dead=np.zeros(2, dtype=np.bool_), start=0, n_actions=2)
    cdfa = SimpleNamespace(delta=np.array([[0, 1], [1, 1]], dtype=np.int32),
                           accepting=np.zeros(2, dtype=np.bool_), start=0)
    dense = (np.array([[0.0, 4.0], [0.0, 0.0]]),
             np.array([[False, True], [False, False]]),
             np.array([[0.8, 0.2], [0.5, 0.5]]), np.array([True, False]))
    trust = TrustParams(eta=0.25, k=10.0, theta=0.5, v_init=1.0)
    res = run_training(tables, cdfa, dense, alpha=0.5, gamma=0.9,
                       eps_start=0.0, eps_end=0.0, eps_decay=1.0,
                       eta=trust.eta, gate_k=trust.k, theta=trust.theta,
                       v_init=trust.v_init, lam_ad=1.0, lam_pd=0.5,
                       use_gate=True, omega_fixed=0.0, use_guidance=True,
                       episodes=1, max_steps=1, seed=1)
    q_next = "q1" if event else "q0"
    omega = trust_gate(trust.v_init, trust.k, trust.theta)
    r_ad = strategic_reward(_KNOW, "q0", q_next, 1.0)
    g_pd = 0.0
    if tactical_applies(0, "q0", s_next, q_next):
        g_pd = tactical_gradient(_KNOW, "q0", np.zeros(2), 0, 0.5)
        assert g_pd == 0.5 * (0.8 - 0.5)
    dq = fused_update(omega, 0.3, r_ad, g_pd)   # the step ends the episode
    assert (r_ad != 0.0) == (case == "edge crossing")
    assert (g_pd != 0.0) == (case == "move")
    assert res.q[0, 0] == 0.5 * dq
    assert res.vol[0, 0] == volatility_update(trust.v_init, dq, trust.eta)


# ---------------------------------------------------------------------------
# full training runs


@pytest.fixture(scope="module")
def source_knowledge(dungeon_source):
    teacher = train_teacher(dungeon_source, episodes=1200, seed=7)
    return build_knowledge(teacher, dungeon_source.dfa, tau=2.0)


def test_train_student_validation(dungeon_target, source_knowledge):
    cfg = StudentConfig()
    with pytest.raises(ValueError):
        train_student(dungeon_target, source_knowledge, cfg, episodes=0,
                      seed=1)
    with pytest.raises(ValueError, match="requires teacher knowledge"):
        train_student(dungeon_target, None, cfg, episodes=5, seed=1)
    with pytest.raises(ValueError, match="no_transfer"):
        train_student(dungeon_target, source_knowledge,
                      resolve_preset("no_transfer"), episodes=5, seed=1)


def test_train_student_rejects_foreign_knowledge(env_cache,
                                                 source_knowledge):
    craftsman = env_cache("blind_craftsman")
    with pytest.raises(ValueError, match="alphabet"):
        train_student(craftsman, source_knowledge, StudentConfig(),
                      episodes=5, seed=1)


def test_train_student_no_transfer_shape(dungeon_target):
    res = train_student(dungeon_target, None, resolve_preset("no_transfer"),
                        episodes=20, seed=3)
    assert res.episodes == 20 and res.seed == 3
    assert res.ep_reward.shape == (20,)
    assert res.ep_steps.shape == (20,)
    assert res.ep_accept.shape == (20,)
    assert len(res.qtable) > 0
    # gate unused for this variant: no volatility moves from its start
    assert np.all(res.run.vol == res.config.trust.v_init)
    assert res.bound == pytest.approx(10.99 / (1 - 0.99), abs=1e-9)
    assert res.diagnostics.soft_violations == 0
    assert res.diagnostics.max_abs_update <= res.bound


def test_train_student_cadent_populates_volatility(dungeon_target,
                                                   source_knowledge):
    res = train_student(dungeon_target, source_knowledge, StudentConfig(),
                        episodes=20, seed=3)
    visited = res.run.counts > 0
    assert np.any(res.run.vol[visited] != res.config.trust.v_init)
    assert np.all(res.run.vol[visited] >= 0.0)
    # only visited pairs moved, and each has a Q entry too
    assert np.all(res.run.vol[~visited] == res.config.trust.v_init)
    assert len(res.qtable) == int(visited.sum())


def test_train_student_deterministic(dungeon_target, source_knowledge):
    a = train_student(dungeon_target, source_knowledge, StudentConfig(),
                      episodes=15, seed=9)
    b = train_student(dungeon_target, source_knowledge, StudentConfig(),
                      episodes=15, seed=9)
    assert a.qtable == b.qtable
    assert np.array_equal(a.ep_reward, b.ep_reward)
    assert np.array_equal(a.ep_accept, b.ep_accept)
    c = train_student(dungeon_target, source_knowledge, StudentConfig(),
                      episodes=15, seed=9, stream=4)
    assert not np.array_equal(a.ep_reward, c.ep_reward)


def _crossed_an_edge(result, dfa):
    """True once the run has acted in an automaton state past the start."""
    return any(key.q != dfa.start for (key, _a), _v in result.qtable.items())


def test_train_student_variants_differ(dungeon_target, source_knowledge):
    # early in training the reward curves can coincide (exploration
    # dominates), but the learned tables must differ between variants. The
    # strategic term only fires on an automaton edge, so cadent and pd can
    # only differ once a run has crossed one: the budget must get there.
    episodes = 60
    tables = {}
    for variant in ("cadent", "ad", "pd", "no_trust_gate"):
        res = train_student(dungeon_target, source_knowledge,
                            resolve_preset(variant), episodes=episodes,
                            seed=9)
        assert _crossed_an_edge(res, dungeon_target.dfa), (
            f"{variant} crossed no automaton edge in {episodes} episodes")
        tables[variant] = res.qtable
    base = train_student(dungeon_target, None,
                         resolve_preset("no_transfer"), episodes=episodes,
                         seed=9)
    tables["no_transfer"] = base.qtable
    names = list(tables)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            assert tables[names[i]] != tables[names[j]], (
                f"{names[i]} and {names[j]} learned identical tables")


def test_cadent_q_stays_within_update_bound(dungeon_target,
                                            source_knowledge):
    # the teacher terms are shaping inside the TD target, so Q at the
    # edge-trigger pairs has a fixed point; a raw increment grows it forever
    res = train_student(dungeon_target, source_knowledge, StudentConfig(),
                        episodes=3000, seed=1, stream=0)
    values = np.array([v for _k, v in res.qtable.items()])
    assert np.all(np.abs(values) <= res.bound), (
        f"max |Q| {np.abs(values).max():.1f} exceeds the bound "
        f"{res.bound:.1f}")


@pytest.fixture(scope="module")
def grid_knowledge(env_cache, source_teacher):
    """Knowledge distilled as the experiment harness distills it."""
    def get(name):
        return build_knowledge(source_teacher(name),
                               env_cache(name, "source").dfa, tau=2.0)

    return get


@pytest.mark.parametrize("name", ["blind_craftsman", "dungeon_quest"])
def test_no_trust_gate_greedy_policy_accepts(env_cache, grid_knowledge,
                                             name):
    # at a fixed omega the teacher terms never fade, so they must not pay
    # the student for a loop: its greedy policy has to finish the task
    env = env_cache(name)
    res = train_student(env, grid_knowledge(name),
                        resolve_preset("no_trust_gate"),
                        episodes=DEFAULT_EPISODES[name], seed=1,
                        stream=_run_stream(name, "no_trust_gate"))
    tables = compile_env(env)
    cdfa = env.dfa.compiled()
    q = q_rows_from_table(tables, cdfa, res.qtable)
    accepted, steps, _total = greedy_rollout(tables, cdfa, q,
                                             env.max_steps)
    assert accepted, (f"greedy policy stopped after {steps} steps without "
                      f"accepting")
