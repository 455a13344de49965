"""Teacher training and the two distillation routines."""

import copy
import itertools
import json
import re

import numpy as np
import pytest

from cadent.automaton import ProductState, make_dfa
from cadent.envs import ENV_NAMES, default_spec, make_env
from cadent.teacher import (AGGREGATION_MODES, TeacherError,
                            build_knowledge, dense_knowledge,
                            distill_automaton_values, distill_teacher_policy,
                            load_knowledge, save_knowledge, train_teacher)

from oracles import (naive_softmax, reference_automaton_values,
                     reference_knowledge, reference_teacher_policy,
                     sparse_results, toy_teacher)

CHAIN = make_dfa(
    states=("q0", "q1", "acc"),
    alphabet=("a", "b"),
    start="q0",
    accepting={"acc"},
    edges={("q0", "a"): "q1", ("q1", "b"): "acc"},
)


def _k(env_state, q):
    return ProductState(env_state, q)


# ---------------------------------------------------------------------------
# strategic value distillation


def test_distill_single_trigger():
    key = _k((0, 0), "q0")
    qt = {(key, 1): 3.0}
    log = {((key, 1), ("q0", "q1")), ((_k((1, 1), "q1"), 0), ("q1", "acc"))}
    out = distill_automaton_values(*toy_teacher(CHAIN, qt, 2, log))
    assert out[("q0", "q1")] == 3.0
    assert out[("q1", "acc")] == 0.0


def test_distill_means_distinct_triggers():
    k1, k2 = _k((0, 0), "q0"), _k((5, 5), "q0")
    qt = {(k1, 0): 2.0, (k2, 1): 4.0}
    log = {((k1, 0), ("q0", "q1")), ((k2, 1), ("q0", "q1")),
           ((_k((1, 1), "q1"), 0), ("q1", "acc"))}
    out = distill_automaton_values(*toy_teacher(CHAIN, qt, 2, log))
    assert out[("q0", "q1")] == pytest.approx(3.0, abs=1e-12)


def test_distill_rejects_uncovered_edge():
    key = _k((0, 0), "q0")
    qt = {(key, 1): 3.0}
    log = {((key, 1), ("q0", "q1"))}
    with pytest.raises(TeacherError, match="q1"):
        distill_automaton_values(*toy_teacher(CHAIN, qt, 2, log))


def test_distill_means_add_left_to_right():
    # triggers in sorted state order; from Python 3.12 the builtin sum
    # would keep the 1.0 and mean 1/3
    keys = [_k((i, i), "q0") for i in range(3)]
    qt = {(k, 0): v for k, v in zip(keys, (1e16, 1.0, -1e16))}
    log = {((k, 0), ("q0", "q1")) for k in keys}
    log.add(((_k((9, 9), "q1"), 0), ("q1", "acc")))
    out = distill_automaton_values(*toy_teacher(CHAIN, qt, 2, log))
    assert out[("q0", "q1")] == 0.0
    assert reference_automaton_values(qt, CHAIN, log)[("q0", "q1")] == 0.0


def test_distill_order_invariant():
    keys = [(_k((i, i), "q0"), i % 2) for i in range(6)]
    qt = {ka: float(i) for i, ka in enumerate(keys)}
    tail = ((_k((9, 9), "q1"), 0), ("q1", "acc"))
    log_fwd = set([(ka, ("q0", "q1")) for ka in keys] + [tail])
    log_rev = set([(ka, ("q0", "q1")) for ka in reversed(keys)] + [tail])
    assert (distill_automaton_values(*toy_teacher(CHAIN, qt, 2, log_fwd))
            == distill_automaton_values(*toy_teacher(CHAIN, qt, 2, log_rev)))


def test_distill_positive_scaling_equivariance():
    k1, k2 = _k((0, 0), "q0"), _k((1, 1), "q1")
    base = {(k1, 0): 2.5, (k2, 1): -1.5}
    log = {((k1, 0), ("q0", "q1")), ((k2, 1), ("q1", "acc"))}
    plain = distill_automaton_values(*toy_teacher(CHAIN, base, 2, log))
    scaled = distill_automaton_values(*toy_teacher(
        CHAIN, {ka: 3.0 * v for ka, v in base.items()}, 2, log))
    for edge, v in plain.items():
        assert scaled[edge] == pytest.approx(3.0 * v, abs=1e-12)


# ---------------------------------------------------------------------------
# tactical policy distillation


def test_policy_single_state_is_softmax_of_row():
    key, tail = _k((0, 0), "q0"), _k((1, 1), "q1")
    qt = {(key, 0): 1.0, (key, 1): 0.0, (tail, 1): 2.0}
    vis = {(key, 0): 4, (key, 1): 2, (tail, 1): 1}
    pi = distill_teacher_policy(*toy_teacher(CHAIN, qt, 2, visits=vis),
                                tau=1.0)
    assert np.allclose(pi["q0"], naive_softmax([1.0, 0.0], 1.0), atol=1e-12)
    assert np.allclose(pi["q1"], naive_softmax([0.0, 2.0], 1.0), atol=1e-12)


def test_policy_visitation_weighting():
    k1, k2, tail = _k((0, 0), "q0"), _k((1, 1), "q0"), _k((2, 2), "q1")
    qt = {(k1, 0): 1.0, (k2, 1): 1.0}
    vis = {(k1, 0): 3, (k2, 0): 1, (tail, 0): 1}
    pi = distill_teacher_policy(*toy_teacher(CHAIN, qt, 2, visits=vis),
                                tau=1.0)
    # weighted mean row is (0.75, 0.25)
    assert np.allclose(pi["q0"], naive_softmax([0.75, 0.25], 1.0), atol=1e-12)
    flat = distill_teacher_policy(*toy_teacher(CHAIN, qt, 2, visits=vis),
                                  tau=1.0, aggregation="unweighted")
    assert np.allclose(flat["q0"], naive_softmax([0.5, 0.5], 1.0), atol=1e-12)


def test_policy_rows_only_for_visited_states():
    key = _k((0, 0), "q0")
    qt = {(key, 0): 1.0}
    vis = {(key, 0): 1, (_k((2, 2), "q1"), 1): 2}
    pi = distill_teacher_policy(*toy_teacher(CHAIN, qt, 2, visits=vis),
                                tau=2.0)
    assert set(pi) == {"q0", "q1"}


def test_policy_requires_accepting_path_heads():
    key = _k((0, 0), "q0")
    qt = {(key, 0): 1.0}
    with pytest.raises(TeacherError, match="q1"):
        distill_teacher_policy(
            *toy_teacher(CHAIN, qt, 2, visits={(key, 0): 1}), tau=1.0)


def test_policy_validation_errors():
    key = _k((0, 0), "q0")
    qt = {(key, 0): 1.0}
    toy = toy_teacher(CHAIN, qt, 2, visits={(key, 0): 1})
    with pytest.raises(ValueError):
        distill_teacher_policy(*toy, tau=0.0)
    with pytest.raises(ValueError):
        distill_teacher_policy(*toy, tau=1.0, aggregation="mode")


# ---------------------------------------------------------------------------
# real teacher on the small dungeon


@pytest.fixture(scope="module")
def dungeon_teacher(dungeon_source):
    return train_teacher(dungeon_source, episodes=1200, seed=7)


@pytest.fixture(scope="module")
def dungeon_knowledge(dungeon_teacher, dungeon_source):
    return build_knowledge(dungeon_teacher, dungeon_source, tau=2.0)


def test_teacher_reaches_acceptance(dungeon_teacher, dungeon_source):
    res = dungeon_teacher
    assert res.ep_accept.any()
    assert res.ep_reward.shape == (1200,)
    assert res.ep_steps.shape == (1200,)
    assert res.counts.any()
    assert sparse_results(dungeon_source, res).transition_log


def test_teacher_is_deterministic(dungeon_source, dungeon_teacher):
    again = train_teacher(dungeon_source, episodes=1200, seed=7)
    assert np.array_equal(again.q, dungeon_teacher.q)
    assert np.array_equal(again.counts, dungeon_teacher.counts)
    assert np.array_equal(again.ep_reward, dungeon_teacher.ep_reward)
    assert np.array_equal(again.ep_accept, dungeon_teacher.ep_accept)


def test_teacher_validation_errors(dungeon_source):
    with pytest.raises(ValueError):
        train_teacher(dungeon_source, episodes=0)


def test_teacher_with_no_successes_is_rejected():
    env = make_env(default_spec("dungeon_quest", "source").with_(max_steps=5))
    with pytest.raises(TeacherError):
        train_teacher(env, episodes=20, seed=7)


def test_knowledge_invariants(dungeon_knowledge, dungeon_source):
    from cadent.automaton import accepting_path_edges
    know = dungeon_knowledge
    assert set(know.q_ad) >= accepting_path_edges(dungeon_source.dfa)
    assert all(np.isfinite(v) for v in know.q_ad.values())
    for q, probs in know.pi.items():
        assert len(probs) == 4
        assert abs(float(np.sum(probs)) - 1.0) < 1e-9
        assert np.all(probs >= 0.0)
    assert know.tau == 2.0
    assert know.aggregation in AGGREGATION_MODES
    assert know.q_ad_max() == max(abs(v) for v in know.q_ad.values())
    prov = know.provenance
    assert prov["env"] == "dungeon_quest"
    assert prov["variant"] == "source"
    assert prov["episodes"] == 1200
    assert prov["n_successes"] > 0


def test_knowledge_round_trip(dungeon_knowledge, tmp_path):
    path = tmp_path / "knowledge.json"
    save_knowledge(dungeon_knowledge, path)
    again = load_knowledge(path)
    assert again.q_ad == dungeon_knowledge.q_ad
    assert set(again.pi) == set(dungeon_knowledge.pi)
    for q in again.pi:
        assert np.array_equal(np.asarray(again.pi[q]),
                              np.asarray(dungeon_knowledge.pi[q]))
    assert again.tau == dungeon_knowledge.tau
    assert again.alphabet == dungeon_knowledge.alphabet
    assert again.provenance == dungeon_knowledge.provenance


def _knowledge_payload(knowledge, tmp_path, **patch):
    path = tmp_path / "knowledge.json"
    save_knowledge(knowledge, path)
    payload = json.loads(path.read_text())
    payload.update(patch)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    return bad


@pytest.mark.parametrize("patch", [
    {"format": "qtable"},
    {"version": 99},
    {"n_actions": 0},
    {"aggregation": "median"},
    {"tau": -1.0},
    {"alphabet": []},
    {"provenance": {}},
])
def test_load_knowledge_rejects_bad_header(dungeon_knowledge, tmp_path,
                                           patch):
    bad = _knowledge_payload(dungeon_knowledge, tmp_path, **patch)
    with pytest.raises(ValueError):
        load_knowledge(bad)


@pytest.mark.parametrize("payload", [[1, 2], "cadent-knowledge", 3, None])
def test_load_knowledge_rejects_a_payload_that_is_not_an_object(tmp_path,
                                                               payload):
    path = tmp_path / "knowledge.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=(
            f"^{re.escape(str(path))}: not a cadent-knowledge file$")):
        load_knowledge(path)


def test_load_knowledge_names_the_file_of_truncated_json(dungeon_knowledge,
                                                        tmp_path):
    path = tmp_path / "knowledge.json"
    save_knowledge(dungeon_knowledge, path)
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    with pytest.raises(ValueError, match=(
            f"^{re.escape(str(path))}: not valid JSON: ")):
        load_knowledge(path)


def test_load_knowledge_rejects_bad_rows(dungeon_knowledge, tmp_path):
    bad = _knowledge_payload(
        dungeon_knowledge, tmp_path,
        q_ad=[{"from": "q0", "to": "q_key", "value": float("nan")}])
    with pytest.raises(ValueError, match="non-finite"):
        load_knowledge(bad)
    bad = _knowledge_payload(
        dungeon_knowledge, tmp_path,
        pi=[{"q": "q0", "probs": [0.5, 0.5]}])
    with pytest.raises(ValueError, match="length"):
        load_knowledge(bad)
    bad = _knowledge_payload(
        dungeon_knowledge, tmp_path,
        pi=[{"q": "q0", "probs": [0.5, 0.1, 0.1, 0.1]}])
    with pytest.raises(ValueError, match="distribution"):
        load_knowledge(bad)


def _nan_row(payload):
    payload["pi"][0]["probs"] = [float("nan")] * payload["n_actions"]


@pytest.mark.parametrize("mutate", [
    lambda p: p.update(n_actions=4.7),
    lambda p: p.update(n_actions=True),
    lambda p: p.update(tau=True),
    lambda p: p.update(tau="2"),
    lambda p: p.update(tau=float("nan")),
    lambda p: p.update(tau=float("inf")),
    _nan_row,
    lambda p: p["pi"][0].update(probs=["0.25"] * 4),
    lambda p: p.update(alphabet="abc"),
    lambda p: p.update(q_ad={}),
    lambda p: p.update(pi={}),
    lambda p: p["q_ad"].append(dict(p["q_ad"][0], value=0.0)),
    lambda p: p["pi"].append(p["pi"][-1]),
    lambda p: p.update(provenance=[1]),
    lambda p: p["q_ad"][0].update(value="1.5"),
], ids=["float-n-actions", "bool-n-actions", "bool-tau", "string-tau",
        "nan-tau", "inf-tau", "nan-policy-row", "string-policy-row",
        "string-alphabet", "q-ad-object", "pi-object", "repeated-edge",
        "repeated-policy-row", "provenance-array", "string-edge-value"])
def test_load_knowledge_names_the_file_of_a_malformed_payload(
        dungeon_knowledge, tmp_path, mutate):
    # each of these once loaded: a float count or tau was truncated or
    # cast, a NaN row passed the distribution check, a string alphabet
    # became its characters and a repeated entry replaced the first
    path = tmp_path / "knowledge.json"
    save_knowledge(dungeon_knowledge, path)
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_knowledge(path)


# ---------------------------------------------------------------------------
# dense form


def test_dense_knowledge_layout(dungeon_knowledge, dungeon_source):
    dfa = dungeon_source.dfa
    comp = dfa.compiled()
    q_ad, known, pi, pi_known = dense_knowledge(dungeon_knowledge, dfa, 4)
    n_q = len(dfa.states)
    assert q_ad.shape == (n_q, n_q) and known.shape == (n_q, n_q)
    assert pi.shape == (n_q, 4) and pi_known.shape == (n_q,)
    for (q, q2), v in dungeon_knowledge.q_ad.items():
        i, j = comp.state_index[q], comp.state_index[q2]
        assert known[i, j]
        assert q_ad[i, j] == v
    assert not known[comp.state_index["q_accept"],
                     comp.state_index["q0"]]
    for q, probs in dungeon_knowledge.pi.items():
        i = comp.state_index[q]
        assert pi_known[i]
        assert np.array_equal(pi[i], np.asarray(probs))


def test_dense_knowledge_rejects_mismatches(dungeon_knowledge,
                                            dungeon_source, env_cache):
    with pytest.raises(ValueError, match="alphabet"):
        dense_knowledge(dungeon_knowledge,
                        env_cache("blind_craftsman").dfa, 4)
    with pytest.raises(ValueError, match="actions"):
        dense_knowledge(dungeon_knowledge, dungeon_source.dfa, 5)


def test_dense_knowledge_rejects_unknown_state(dungeon_source):
    from cadent.teacher import TeacherKnowledge
    know = TeacherKnowledge(
        q_ad={("zz", "q0"): 1.0}, pi={}, tau=2.0, n_actions=4,
        alphabet=tuple(dungeon_source.dfa.alphabet),
        aggregation="visitation_weighted", provenance={"env": "x"})
    with pytest.raises(ValueError, match="unknown automaton"):
        dense_knowledge(know, dungeon_source.dfa, 4)


def test_build_knowledge_matches_manual_distillation(dungeon_teacher,
                                                     dungeon_source):
    know = build_knowledge(dungeon_teacher, dungeon_source, tau=2.0)
    manual_q, manual_pi = reference_knowledge(
        sparse_results(dungeon_source, dungeon_teacher), dungeon_source.dfa,
        dungeon_source.n_actions, 2.0)
    assert know.q_ad == manual_q
    assert set(know.pi) == set(manual_pi)
    for q in manual_pi:
        assert np.array_equal(know.pi[q], manual_pi[q])


# ---------------------------------------------------------------------------
# the dense distillation against the sparse reference, bit for bit

# two teacher budgets per environment, each long enough to reach acceptance
_BUDGETS = {"blind_craftsman": (60, 400), "dungeon_quest": (60, 400),
            "mountain_car_collection": (60, 400),
            "warehouse_robotics": (400, 800)}


def _bits(fn):
    """What fn returns, with policy rows as bytes, or its TeacherError."""
    try:
        out = fn()
    except TeacherError as exc:
        return f"TeacherError: {exc}"
    if isinstance(out, tuple):
        q_ad, pi = out
        return list(q_ad.items()), [(q, p.tobytes()) for q, p in pi.items()]
    return [(q, p.tobytes()) for q, p in out.items()]


def _knowledge(run, env, aggregation):
    know = build_knowledge(run, env, 2.0, aggregation)
    return know.q_ad, know.pi


@pytest.mark.parametrize("name", ENV_NAMES)
def test_build_knowledge_matches_sparse_reference(name):
    # each teacher also runs with its visits under the start automaton
    # state erased, so both distillations must refuse it the same way
    env = make_env(default_spec(name, "source"))
    dfa = env.dfa
    start = dfa.compiled().start
    outcomes = []
    for seed, episodes in itertools.product((3, 7, 11), _BUDGETS[name]):
        run = train_teacher(env, episodes=episodes, seed=seed)
        erased = copy.copy(run)
        erased.counts = run.counts.copy()
        erased.counts[run.rows % run.n_q == start] = 0
        for res in (run, erased):
            ref = sparse_results(env, res)
            for agg in AGGREGATION_MODES:
                got = _bits(lambda: _knowledge(res, env, agg))
                assert got == _bits(lambda: reference_knowledge(
                    ref, dfa, env.n_actions, 2.0, agg))
                assert _bits(lambda: distill_teacher_policy(
                    res, env, 2.0, agg)) == _bits(
                    lambda: reference_teacher_policy(
                        ref.qtable, ref.visits, dfa, 2.0, env.n_actions,
                        agg))
                outcomes.append(isinstance(got, str))
    assert outcomes.count(True) == outcomes.count(False) == 12


@pytest.mark.parametrize("name", ENV_NAMES)
def test_policy_of_a_grid_teacher_matches_sparse_reference(name, env_cache,
                                                           source_teacher):
    # the full-budget teachers a grid distills: long per-state sums, where
    # any change in the order of the additions would show in the bits
    run = source_teacher(name)
    env = env_cache(name, "source")
    ref = sparse_results(env, run)
    for agg in AGGREGATION_MODES:
        assert _bits(lambda: distill_teacher_policy(
            run, env, 2.0, agg)) == _bits(
            lambda: reference_teacher_policy(
                ref.qtable, ref.visits, env.dfa, 2.0, env.n_actions, agg))
