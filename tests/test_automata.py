"""Core automata: identifiers, alphabets, composition, reachability."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simsup import (Alphabet, Automaton, InputError, compose, product_id,
                    reach_via, reachable, split_product_id, split_top_level,
                    successors, validate_event_name, validate_state_id)
from simsup.automata import is_deadlock
from simsup.randgen import random_pair

from .fixtures import CHAIN_ALPHA, CHAIN_PLANT, chain_sup_a
from .oracles import oracle_product


# --- identifiers -------------------------------------------------------------

def test_state_ids_allow_nested_brackets():
    for ok in ("x0", "{(x0,z0),(x1,z1)}", "({(x0,z0)},x0)", "<{a}|{b}|{c}>"):
        assert validate_state_id(ok) == ok


def test_state_ids_reject_structural_abuse():
    for bad in ("", "a b", "x,y", "(a", "a)", "{a,(b}", 'q"q', "a:b", "a#b"):
        with pytest.raises(InputError):
            validate_state_id(bad)


def test_event_names_reject_brackets_and_arrows():
    validate_event_name("sigma_1")
    for bad in ("", "a,b", "a(b", "a->b", "a b"):
        with pytest.raises(InputError):
            validate_event_name(bad)


def test_split_top_level_respects_depth():
    assert split_top_level("a,b,c") == ["a", "b", "c"]
    assert split_top_level("{a,b},c") == ["{a,b}", "c"]
    assert split_top_level("({x,y},z),w") == ["({x,y},z)", "w"]
    with pytest.raises(InputError):
        split_top_level("{a,b")


def test_product_id_round_trip():
    pid = product_id("{(x0,z0)}", "x0")
    assert pid == "({(x0,z0)},x0)"
    assert split_product_id(pid) == ("{(x0,z0)}", "x0")


# --- alphabets and automata --------------------------------------------------

def test_alphabet_order_insensitive():
    a = Alphabet.build(["b", "a"], controllable=["a"])
    b = Alphabet.build(["a", "b"], controllable=["a"])
    assert a == b
    assert a.uncontrollable == {"b"}
    assert a.unobservable == frozenset()


def test_alphabet_rejects_undeclared_attributes():
    with pytest.raises(InputError):
        Alphabet.build(["a"], controllable=["b"])
    with pytest.raises(InputError):
        Alphabet(("a", "a"), frozenset(), frozenset("a"))


def test_automaton_requires_initial_states():
    with pytest.raises(InputError):
        Automaton.build(CHAIN_ALPHA, [("p", "sigma", "q")], [])


def test_automaton_rejects_undeclared_pieces():
    with pytest.raises(InputError):
        Automaton.build(CHAIN_ALPHA, [("p", "tau", "q")], ["p"])
    with pytest.raises(InputError):
        Automaton(frozenset({"p"}), CHAIN_ALPHA, frozenset(),
                  frozenset({"missing"}))


def test_successors_sorted_and_strict():
    assert successors(CHAIN_PLANT, "x0", "sigma") == ("x1",)
    assert successors(CHAIN_PLANT, "x3", "sigma") == ()
    with pytest.raises(InputError):
        successors(CHAIN_PLANT, "nope", "sigma")
    with pytest.raises(InputError):
        successors(CHAIN_PLANT, "x0", "nope")


def test_deadlock_detection():
    assert is_deadlock(CHAIN_PLANT, "x3")
    assert not is_deadlock(CHAIN_PLANT, "x0")


# --- composition -------------------------------------------------------------

def test_compose_reachable_part():
    prod = compose(chain_sup_a().automaton, CHAIN_PLANT)
    # A stops after sigma,sigma: x3 and the W3 branch never appear
    rights = {split_product_id(p).right for p in prod.states}
    assert rights == {"x0", "x1", "x2"}
    lefts = {split_product_id(p).left for p in prod.states}
    assert "{(x2,z3)}" not in lefts


def test_compose_full_product():
    sup = chain_sup_a().automaton
    prod = compose(sup, CHAIN_PLANT, full=True)
    assert len(prod.states) == len(sup.states) * len(CHAIN_PLANT.states)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.05, max_value=0.6),
       st.integers(min_value=1, max_value=2))
def test_compose_matches_product_oracle(seed, ny, nx, density, n_initial):
    s, g = random_pair(seed, plant_states=ny, spec_states=nx, n_events=2,
                       density=density, n_initial=n_initial)
    for full in (False, True):
        got, want = compose(s, g, full=full), oracle_product(s, g, full)
        assert got.states == want.states
        assert got.transitions == want.transitions
        assert got.initial == want.initial


def test_compose_needs_shared_alphabet():
    other = Alphabet.build(["sigma"], controllable=[])
    lone = Automaton.build(other, [], ["q"])
    with pytest.raises(InputError):
        compose(CHAIN_PLANT, lone)


# --- reachability ------------------------------------------------------------

def test_reachable_excludes_islands():
    a = Automaton.build(CHAIN_ALPHA, [("p", "sigma", "q")], ["p"],
                        states=["p", "q", "island"])
    live = reachable(a)
    assert set(live) == {"p", "q"}
    assert live["q"] == ("sigma",)


def test_reachable_chain_plant():
    assert set(reachable(CHAIN_PLANT)) == {"x0", "x1", "x2", "x3"}


def test_reach_via():
    assert reach_via(CHAIN_PLANT, []) == CHAIN_PLANT.initial
    assert reach_via(CHAIN_PLANT, ["sigma", "sigma"]) == {"x2"}
    assert reach_via(CHAIN_PLANT, ["sigma", "c"]) == frozenset()
    with pytest.raises(InputError):
        reach_via(CHAIN_PLANT, ["tau"])
