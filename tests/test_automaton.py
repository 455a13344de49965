"""Automaton construction, stepping, validation, compilation, and the
bundled task automata."""

import pytest

from cadent.automaton import (Dfa, DfaError, NULL_EVENT, ProductState,
                              accepting_path_edges, is_accepting, make_dfa,
                              progress_edges, step_automaton)
from cadent.envs import bundled_dfa
from cadent.rng import RandomState


@pytest.fixture(scope="module")
def chain():
    return make_dfa(
        states=("a", "b", "c"), alphabet=("x", "y"), start="a",
        accepting={"c"}, edges={("a", "x"): "b", ("b", "y"): "c"})


def test_make_dfa_completes_self_loops(chain):
    assert chain.transitions[("a", "y")] == "a"
    assert chain.transitions[("c", "x")] == "c"
    assert len(chain.transitions) == 6


def test_step_progress_and_self_loop(chain):
    assert step_automaton(chain, "a", "x") == "b"
    assert step_automaton(chain, "a", "y") == "a"
    assert step_automaton(chain, "b", "y") == "c"


def test_step_null_event_identity(chain):
    for q in chain.states:
        assert step_automaton(chain, q, NULL_EVENT) == q


def test_step_unknown_symbol_raises(chain):
    with pytest.raises(KeyError):
        step_automaton(chain, "a", "zzz")


def test_dungeon_key_transition():
    dfa = bundled_dfa("dungeon_quest")
    assert step_automaton(dfa, "q0", "key") == "q_key"


def test_craftsman_carrying_factory_transition():
    # while carrying wood, delivering at the factory crafts a tool
    dfa = bundled_dfa("blind_craftsman")
    assert step_automaton(dfa, "w0", "factory") == "q1"
    assert step_automaton(dfa, "w2", "factory") == "q3"


def test_is_accepting(chain):
    assert is_accepting(chain, "c")
    assert not is_accepting(chain, "a")
    assert not is_accepting(chain, "b")


def test_dungeon_accepting_states():
    dfa = bundled_dfa("dungeon_quest")
    assert is_accepting(dfa, "q_accept")
    assert not is_accepting(dfa, "q_key")


def test_no_bundled_task_starts_complete():
    for name in ("blind_craftsman", "dungeon_quest",
                 "mountain_car_collection", "warehouse_robotics"):
        dfa = bundled_dfa(name)
        assert not is_accepting(dfa, dfa.start)


def test_validate_well_formed(chain):
    assert chain.validate() == []


def test_validate_unreachable_accepting():
    transitions = {(q, s): q for q in ("a", "b") for s in ("x",)}
    dfa = Dfa(states=("a", "b"), alphabet=("x",), start="a",
              accepting={"b"}, transitions=transitions)
    problems = dfa.validate()
    assert len(problems) == 1
    assert "reachable" in problems[0]


def test_validate_foreign_symbol():
    transitions = {("a", "x"): "a", ("a", "q"): "a"}
    dfa = Dfa(states=("a",), alphabet=("x",), start="a", accepting=set(),
              transitions=transitions)
    problems = dfa.validate()
    assert any("unknown symbol" in p for p in problems)


def test_validate_missing_transition():
    dfa = Dfa(states=("a",), alphabet=("x",), start="a", accepting=set(),
              transitions={})
    assert any("missing transition" in p for p in dfa.validate())


def test_validate_bad_start_and_accepting():
    dfa = Dfa(states=("a",), alphabet=("x",), start="zz",
              accepting={"yy"}, transitions={("a", "x"): "a"})
    problems = dfa.validate()
    assert any("start state" in p for p in problems)
    assert any("accepting state" in p for p in problems)


def test_compiled_refuses_invalid():
    dfa = Dfa(states=("a",), alphabet=("x",), start="a", accepting=set(),
              transitions={})
    with pytest.raises(DfaError):
        dfa.compiled()


def test_compiled_arrays_match_transitions(chain):
    comp = chain.compiled()
    assert comp.delta.shape == (3, 3)
    for q, qi in comp.state_index.items():
        assert comp.delta[qi, 0] == qi  # column 0 is the null event
        for sym, si in comp.symbol_index.items():
            target = chain.transitions[(q, sym)]
            assert comp.delta[qi, si] == comp.state_index[target]
    assert comp.start == comp.state_index["a"]
    acc = [q for q, qi in comp.state_index.items() if comp.accepting[qi]]
    assert acc == ["c"]


def test_compiled_random_walk_agrees(chain):
    comp = chain.compiled()
    rng = RandomState(3)
    q = chain.start
    qi = comp.start
    alphabet = list(chain.alphabet)
    for _ in range(500):
        sym = alphabet[rng.randint(len(alphabet))]
        q = step_automaton(chain, q, sym)
        qi = int(comp.delta[qi, comp.symbol_index[sym]])
        assert comp.state_index[q] == qi


def test_progress_edges(chain):
    assert progress_edges(chain) == [("a", "x", "b"), ("b", "y", "c")]


def test_accepting_path_edges_chain(chain):
    assert accepting_path_edges(chain) == {("a", "b"), ("b", "c")}


def test_accepting_path_edges_skips_dead_branch():
    dfa = make_dfa(
        states=("a", "b", "c", "trap"), alphabet=("x", "y", "t"),
        start="a", accepting={"c"},
        edges={("a", "x"): "b", ("b", "y"): "c", ("a", "t"): "trap"})
    assert accepting_path_edges(dfa) == {("a", "b"), ("b", "c")}


def test_accepting_path_edges_skips_unreachable_source():
    # orphan reaches the accepting state, but the start never reaches orphan
    dfa = make_dfa(
        states=("a", "b", "c", "orphan"), alphabet=("x", "y", "o"),
        start="a", accepting={"c"},
        edges={("a", "x"): "b", ("b", "y"): "c", ("orphan", "o"): "c"})
    assert accepting_path_edges(dfa) == {("a", "b"), ("b", "c")}


def test_bundled_dungeon_shape():
    dfa = bundled_dfa("dungeon_quest")
    assert len(dfa.states) == 6
    assert len(progress_edges(dfa)) == 5
    assert len(dfa.accepting) == 1
    assert dfa.validate() == []


def test_bundled_warehouse_shape():
    dfa = bundled_dfa("warehouse_robotics")
    assert len(dfa.states) == 6


def test_bundled_mountain_car_shape():
    dfa = bundled_dfa("mountain_car_collection")
    assert len(dfa.states) == 5
    assert len(progress_edges(dfa)) == 4


def test_bundled_craftsman_loop_structure():
    # quota 3: the only accepting path alternates wood/factory three times
    dfa = bundled_dfa("blind_craftsman")
    q = dfa.start
    seen = []
    for sym in ("wood", "factory") * 3 + ("home",):
        q2 = step_automaton(dfa, q, sym)
        assert q2 != q, f"{sym} must advance from {q}"
        seen.append(sym)
        q = q2
    assert is_accepting(dfa, q)
    # out-of-order symbols do not advance
    assert step_automaton(dfa, dfa.start, "factory") == dfa.start
    assert step_automaton(dfa, dfa.start, "home") == dfa.start


def test_closure_property():
    dfa = bundled_dfa("dungeon_quest")
    rng = RandomState(17)
    q = dfa.start
    alphabet = list(dfa.alphabet)
    for _ in range(1000):
        q = step_automaton(dfa, q, alphabet[rng.randint(len(alphabet))])
        assert q in set(dfa.states)


def test_make_dfa_rejects_unknown_edge_pair():
    with pytest.raises(DfaError):
        make_dfa(states=("a",), alphabet=("x",), start="a", accepting=set(),
                 edges={("a", "nope"): "a"})


def test_product_state_fields():
    ps = ProductState(env=(1, 2, 0), q="q0")
    assert ps.env == (1, 2, 0)
    assert ps.q == "q0"
    assert ps == ProductState((1, 2, 0), "q0")
