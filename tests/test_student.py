"""Guidance terms, the trust gate, and full student training runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadent import student
from cadent.baselines import preset_names, resolve_preset
from cadent.envs import DEFAULT_EPISODES
from cadent.envs.tables import compile_env
from cadent.harness import cell_stream
from cadent.kernels import (LearningParams, greedy_rollout, run_training,
                            softmax_policy)
from cadent.student import (GuidanceParams, StudentConfig, TrustParams,
                            train_student, update_bound)
from cadent.teacher import build_knowledge, train_teacher

from oracles import (corridor, edge_product, ewma_closed_form, fused_update,
                     kernel_fused, kernel_pull, kernel_teacher_weight,
                     kernel_volatility, sigmoid, strategic_reward,
                     tactical_gradient, toy_knowledge, toy_product, toy_run,
                     trust_gate, volatility_update)


# ---------------------------------------------------------------------------
# the update rule, one kernel step or one pair at a time


def test_volatility_update_examples():
    assert kernel_volatility(0.0, 0.1, 2.0) == pytest.approx(0.2, abs=1e-12)
    assert kernel_volatility(1.0, 1.0, -3.0) == 3.0
    assert kernel_volatility(1.0, 0.1, 0.0) == pytest.approx(0.9, abs=1e-12)


def test_volatility_update_matches_closed_form():
    for n in range(1, 40):
        assert kernel_volatility(0.7, 0.25, 1.3, steps=n) == pytest.approx(
            ewma_closed_form(n, 0.25, 1.3, v0=0.7), abs=1e-12)


# the gate's omega is 1 - kernel_teacher_weight


def test_trust_gate_midpoint_and_examples():
    assert kernel_teacher_weight(0.5, 10.0, 0.5) == 0.5
    assert 1.0 - kernel_teacher_weight(1.0, 10.0, 0.5) == pytest.approx(
        sigmoid(-5.0), abs=1e-12)
    assert 1.0 - kernel_teacher_weight(0.0, 10.0, 0.5) == pytest.approx(
        sigmoid(5.0), abs=1e-12)


def test_trust_gate_extremes_stay_finite():
    assert kernel_teacher_weight(1e6, 10.0, 0.5) == 1.0
    assert kernel_teacher_weight(-1e6, 10.0, 0.5) == 0.0
    assert kernel_teacher_weight(0.0, 1e6, 0.5) == 0.0


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 5.0), st.floats(0.0, 5.0),
       st.floats(0.01, 50.0), st.floats(0.0, 2.0))
def test_trust_gate_monotone_decreasing(v1, v2, k, theta):
    lo, hi = min(v1, v2), max(v1, v2)
    assert kernel_teacher_weight(lo, k, theta) <= kernel_teacher_weight(
        hi, k, theta)


def _edge_value(q_ad, q, q2, lam):
    """Q after the kernel's one step crossing q -> q2 (q2 == q: no
    progress), the teacher counting in full: the edge value r_AD alone."""
    res = toy_run(edge_product(3, q, q2), toy_knowledge(3, 1, q_ad=q_ad),
                  lam_ad=lam)
    return res.q[0, 0], res.novel_transitions


def test_strategic_reward_cases():
    q_ad = {(0, 1): 2.0}
    for q2, lam, want in ((0, 1.0, 0.0), (1, 1.0, 2.0), (1, 0.5, 1.0)):
        assert strategic_reward(q_ad, 0, q2, lam) == want
        assert _edge_value(q_ad, 0, q2, lam) == (want, 0)


def test_strategic_reward_counts_novel_edges():
    # automaton q0 -(event 1)-> q1 -(event 2)-> q2 and an episode crossing
    # both edges, then a step on the null event; the teacher knows neither
    tables, cdfa = toy_product(
        [[1], [2], [3], [3]], np.zeros((4, 1)), event=[[1], [2], [0], [0]],
        terminal=[3], delta=[[0, 1, 0], [1, 1, 2], [2, 2, 2]])
    res = toy_run((tables, cdfa), toy_knowledge(3, 1), lam_ad=1.0,
                  max_steps=3)
    assert res.ep_steps.tolist() == [3]
    assert res.novel_transitions == 2
    assert np.all(res.q == 0.0)
    # no automaton progress is not novelty
    assert _edge_value({}, 0, 0, 1.0) == (0.0, 0)
    assert _edge_value({}, 0, 1, 1.0) == (0.0, 1)


def _zero_row_pulls(pi, lam):
    """The pulls the kernel pays on a walk down a corridor at epsilon 1,
    by action. Each step starts from a zero Q row, and at alpha 1 with the
    teacher in full its Q is the pull alone."""
    res = toy_run(corridor(16, 2), toy_knowledge(1, 2, pi=pi), lam_pd=lam,
                  epsilon=1.0, max_steps=16)
    return {a: res.q[res.counts[:, a] > 0, a].tolist() for a in (0, 1)}


def test_tactical_gradient_cases():
    pi = {"q0": np.array([0.9, 0.1])}
    row = np.zeros(2)
    # student softmax over a zero row is uniform
    assert tactical_gradient(pi, "q0", row, 0, 2.0) == pytest.approx(
        0.8, abs=1e-12)
    assert tactical_gradient(pi, "q0", row, 1, 0.5) == pytest.approx(
        -0.2, abs=1e-12)
    assert tactical_gradient(pi, "q9", row, 0, 0.5) == 0.0
    # the kernel pays the same pulls; the walk takes both actions
    pulls = _zero_row_pulls({0: pi["q0"]}, 2.0)[0]
    assert pulls and pulls == pytest.approx([0.8] * len(pulls), abs=1e-12)
    pulls = _zero_row_pulls({0: pi["q0"]}, 0.5)[1]
    assert pulls and pulls == pytest.approx([-0.2] * len(pulls), abs=1e-12)
    outside = _zero_row_pulls({}, 0.5)      # no policy at q0
    assert set(outside[0] + outside[1]) == {0.0}


def test_tactical_gradient_uses_unit_temperature():
    pi = {"q0": np.array([1.0, 0.0, 0.0])}
    row = np.array([2.0, 1.0, -1.0])
    student = softmax_policy(row, 1.0)
    want = 0.5 * (0.0 - student[1])
    assert tactical_gradient(pi, "q0", row, 1, 0.5) == pytest.approx(
        want, abs=1e-12)
    # the kernel's pull on that row: actions 0 and 2 bump into the wall
    # with rewards 2 and -1, action 1 moves on to a terminal state with
    # reward 1. The gate trusts a pair's own first update in full (omega 1
    # at volatility 0) and the teacher in full on its second (omega 0 at
    # volatility 1), so action 1's first visit sets its Q to 1 and its
    # second adds the pull alone. Exploring at epsilon 1, seed 1 bumps into
    # both walls before that second visit, which ends the run.
    product = toy_product([[0, 1, 0], [1, 1, 1]],
                          [[2.0, 1.0, -1.0], [0.0, 0.0, 0.0]], terminal=[1])
    gate = TrustParams(eta=1.0, k=1e4, theta=0.5, v_init=0.0)
    res = toy_run(product, toy_knowledge(1, 3, pi={0: pi["q0"]}),
                  lam_pd=0.5, trust=gate, epsilon=1.0, episodes=2,
                  max_steps=50, seed=1)
    assert res.counts[0, 1] == 2 and min(res.counts[0, ::2]) > 0
    assert res.q[0].tolist()[::2] == [2.0, -1.0]
    assert res.q[0, 1] - 1.0 == pytest.approx(want, abs=1e-12)
    assert res.vol[0, 1] == abs(want)     # eta 1: the update's magnitude


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=2, max_size=6),
       st.floats(0.0, 3.0), st.integers(0, 5))
def test_tactical_gradient_bounded(row, lam, action):
    action = action % len(row)
    probs = np.zeros(len(row))
    probs[0] = 1.0
    g = tactical_gradient({"q0": probs}, "q0", np.array(row), action, lam)
    assert abs(g) <= lam + 1e-12
    # the kernel's pull on the last action, the row's largest entry (0)
    others = [v - 21.0 for v in row[:-1]]
    g = kernel_pull(probs, lam, others + [0.0], len(row) - 1)
    assert abs(g) <= lam + 1e-12
    assert g == pytest.approx(tactical_gradient(
        {"q0": probs}, "q0", others + [0.0], len(row) - 1, lam), abs=1e-12)


def test_fused_update_examples():
    # omega * delta + (1 - omega) * (delta + r_ad + g_pd); a kernel step
    # pays r_AD or g_PD, never both, so the sum r_ad + g_pd is one edge
    assert kernel_fused(1.0, 2.0, 5.0 + 5.0) == 2.0           # 2 + 0 * 10
    assert kernel_fused(0.0, 2.0, 1.0 + 0.5) == 3.5           # 2 + 1 * 1.5
    assert kernel_fused(0.5, 2.0, 1.0 + 0.5) == 2.75          # 2 + 0.5 * 1.5
    assert kernel_fused(0.75, -1.0, 2.0 - 0.5) == -0.625      # -1 + 0.25 * 1.5


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-10, 10), st.floats(-10, 10),
       st.floats(-2, 2))
def test_fused_update_convex_bound(omega, delta, r_ad, g_pd):
    # the teacher arm adds at most its own magnitude (triangle inequality)
    fused = kernel_fused(omega, delta, r_ad + g_pd)
    assert abs(fused) <= abs(delta) + abs(r_ad + g_pd) + 1e-12


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-10, 10))
def test_fused_update_without_guidance_is_scaled_delta(omega, delta):
    # with no teacher terms both arms are the student's TD error
    assert kernel_fused(omega, delta, 0.0) == delta


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


@pytest.mark.parametrize("params,field,value,shown", [
    (LearningParams, "alpha", True, "true"),
    (LearningParams, "gamma", False, "false"),
    (LearningParams, "epsilon_start", True, "true"),
    (LearningParams, "epsilon_decay", True, "true"),
    (LearningParams, "tau", math.nan, "NaN"),
    (LearningParams, "tau", math.inf, "Infinity"),
    (TrustParams, "eta", True, "true"),
    (TrustParams, "k", math.nan, "NaN"),
    (TrustParams, "k", math.inf, "Infinity"),
    (TrustParams, "theta", False, "false"),
    (TrustParams, "v_init", math.nan, "NaN"),
    (TrustParams, "v_init", math.inf, "Infinity"),
    (GuidanceParams, "lambda_ad", math.nan, "NaN"),
    (GuidanceParams, "lambda_ad", True, "true"),
    (GuidanceParams, "lambda_pd", math.inf, "Infinity"),
    (StudentConfig, "omega0", True, "true"),
    (StudentConfig, "omega0", False, "false"),
])
def test_params_reject_bools_and_non_finite_values(params, field, value,
                                                   shown):
    # each passes the range checks; tau=nan distills an all-NaN policy, and
    # lambda_ad=nan or k=nan would stop a grid midway on a non-finite update
    with pytest.raises(ValueError, match=(
            f"^{params.__name__}.{field} must be a finite number, "
            f"not {shown}$")):
        params(**{field: value})


@pytest.mark.parametrize("params,field,value,message", [
    (LearningParams, "alpha", math.nan, r"alpha must be in \(0, 1\]"),
    (LearningParams, "tau", -math.inf, "tau must be positive"),
    (TrustParams, "eta", math.inf, r"eta must be in \(0, 1\]"),
    (TrustParams, "theta", math.nan, "theta must be finite"),
    (GuidanceParams, "lambda_pd", -math.inf,
     "guidance weights must be non-negative"),
    (StudentConfig, "omega0", math.nan, r"omega0 must be in \[0, 1\]"),
    (StudentConfig, "omega0", math.inf, r"omega0 must be in \[0, 1\]"),
])
def test_params_keep_their_range_messages(params, field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        params(**{field: value})


def test_student_config_variant_rules():
    with pytest.raises(ValueError):
        StudentConfig(variant="sac")
    with pytest.raises(ValueError):
        StudentConfig(variant="cadent", omega0=1.5)
    with pytest.raises(ValueError):
        StudentConfig(variant="no_trust_gate", omega0=-0.1)
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
    # weights it does not use, and every variant passes the base's omega0
    expected = {
        "cadent": (True, True, 0.8, 2.0, 0.25),
        "ad": (True, True, 0.8, 2.0, 0.0),
        "pd": (True, True, 0.8, 0.0, 0.25),
        "no_transfer": (False, False, 0.8, 0.0, 0.0),
        "no_trust_gate": (False, True, 0.8, 2.0, 0.25),
    }
    assert tuple(expected) == preset_names()
    seen = {}

    def capture(*args, **kwargs):
        seen.update(kwargs, lam_ad=kwargs["guide"].lambda_ad,
                    lam_pd=kwargs["guide"].lambda_pd)
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


# ---------------------------------------------------------------------------
# the kernel's guided step against the scalar references


@pytest.mark.parametrize("case,s_next,event", [
    ("move", 1, 0), ("wall bump", 0, 0), ("edge crossing", 1, 1),
    ("wall bump across an edge", 0, 1)])
def test_kernel_guided_step_matches_reference(case, s_next, event):
    # one greedy step from env state 0 under q0; the zero table picks
    # action 0, whose outcome each case sets. Only a move within q0 earns
    # g_PD: a wall bump would pay standing still, and an edge crossing
    # earns r_AD instead
    product = toy_product([[s_next, 0], [1, 1]], [[0.3, 0.0], [0.0, 0.0]],
                          event=[[event, 0], [0, 0]], delta=[[0, 1], [1, 1]])
    trust = TrustParams(eta=0.25, k=10.0, theta=0.5, v_init=1.0)
    res = toy_run(product, toy_knowledge(2, 2, q_ad={(0, 1): 4.0},
                                         pi={0: [0.8, 0.2]}),
                  lam_ad=1.0, lam_pd=0.5, trust=trust, alpha=0.5,
                  gamma=0.9)
    q_next = "q1" if event else "q0"
    omega = trust_gate(trust.v_init, trust.k, trust.theta)
    r_ad = strategic_reward({("q0", "q1"): 4.0}, "q0", q_next, 1.0)
    g_pd = 0.0
    if case == "move":
        g_pd = tactical_gradient({"q0": [0.8, 0.2]}, "q0", np.zeros(2), 0,
                                 0.5)
        assert g_pd == 0.5 * (0.8 - 0.5)
    dq = fused_update(omega, 0.3, r_ad, g_pd)   # the step ends the episode
    assert (r_ad != 0.0) == (event == 1)
    assert res.q[0, 0] == 0.5 * dq
    assert res.vol[0, 0] == volatility_update(trust.v_init, dq, trust.eta)


# ---------------------------------------------------------------------------
# full training runs


@pytest.fixture(scope="module")
def source_knowledge(dungeon_source):
    teacher = train_teacher(dungeon_source, episodes=1200, seed=7)
    return build_knowledge(teacher, dungeon_source, tau=2.0)


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
    assert res.seed == 3
    assert res.ep_reward.shape == (20,)
    assert res.ep_steps.shape == (20,)
    assert res.ep_accept.shape == (20,)
    assert res.counts.any()
    # gate unused for this variant: no volatility moves from its start
    assert np.all(res.vol == TrustParams().v_init)
    assert res.bound == pytest.approx(10.99 / (1 - 0.99), abs=1e-9)
    assert res.n_soft_violations == 0
    assert res.max_abs_update <= res.bound


def test_train_student_cadent_populates_volatility(dungeon_target,
                                                   source_knowledge):
    res = train_student(dungeon_target, source_knowledge, StudentConfig(),
                        episodes=20, seed=3)
    visited = res.counts > 0
    assert np.any(res.vol[visited] != TrustParams().v_init)
    assert np.all(res.vol[visited] >= 0.0)
    # only visited pairs moved
    assert np.all(res.vol[~visited] == TrustParams().v_init)


def test_train_student_deterministic(dungeon_target, source_knowledge):
    a = train_student(dungeon_target, source_knowledge, StudentConfig(),
                      episodes=15, seed=9)
    b = train_student(dungeon_target, source_knowledge, StudentConfig(),
                      episodes=15, seed=9)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.ep_reward, b.ep_reward)
    assert np.array_equal(a.ep_accept, b.ep_accept)
    c = train_student(dungeon_target, source_knowledge, StudentConfig(),
                      episodes=15, seed=9, stream=4)
    assert not np.array_equal(a.ep_reward, c.ep_reward)


def _crossed_an_edge(run, dfa):
    """True once the run has acted in an automaton state past the start."""
    acted = run.rows[run.counts.any(axis=1)]
    return bool(np.any(acted % run.n_q != dfa.compiled().start))


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
        tables[variant] = res.q
    base = train_student(dungeon_target, None,
                         resolve_preset("no_transfer"), episodes=episodes,
                         seed=9)
    tables["no_transfer"] = base.q
    names = list(tables)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            same = np.array_equal(tables[names[i]], tables[names[j]])
            assert not same, (
                f"{names[i]} and {names[j]} learned identical tables")


def test_cadent_q_stays_within_update_bound(dungeon_target,
                                            source_knowledge):
    # the teacher terms are shaping inside the TD target, so Q at the
    # edge-trigger pairs has a fixed point; a raw increment grows it forever
    res = train_student(dungeon_target, source_knowledge, StudentConfig(),
                        episodes=3000, seed=1, stream=0)
    values = res.q
    assert np.all(np.abs(values) <= res.bound), (
        f"max |Q| {np.abs(values).max():.1f} exceeds the bound "
        f"{res.bound:.1f}")


@pytest.fixture(scope="module")
def grid_knowledge(env_cache, source_teacher):
    """Knowledge distilled as the experiment harness distills it."""
    def get(name):
        return build_knowledge(source_teacher(name),
                               env_cache(name, "source"), tau=2.0)

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
                        stream=cell_stream(name, "no_trust_gate"))
    accepted, steps, _total = greedy_rollout(
        compile_env(env), env.dfa.compiled(), res.q, env.max_steps)
    assert accepted, (f"greedy policy stopped after {steps} steps without "
                      f"accepting")
