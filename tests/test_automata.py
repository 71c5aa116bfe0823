"""Core automata: identifiers, alphabets, composition, reachability."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simsup import (Alphabet, Automaton, InputError, bisim_quotient, compose,
                    product_id, reach_via, reachable, split_product_id,
                    split_top_level, successors, validate_event_name,
                    validate_state_id)
from simsup import automata
from simsup.automata import is_deadlock
from simsup.partial import build_partial
from simsup.randgen import random_pair
from simsup.synthesis import SynthesisContext, build, prune_deadlocks

from .fixtures import CHAIN_ALPHA, CHAIN_PLANT, CHAIN_SPEC, chain_sup_a
from .oracles import oracle_bisimulation_classes, oracle_product
from .pool import uc_instance


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
    # the transition arrow cannot occur in a name: its '>' is a bracket
    with pytest.raises(InputError, match="illegal character '>' in event "
                                         "name 'a->b'"):
        validate_event_name("a->b")


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


@pytest.mark.parametrize("pid", ["x0", "{(x0,z0)}", "(a,b,c)", "(a)"])
def test_split_product_id_rejects_non_pairs(pid):
    with pytest.raises(InputError,
                       match=re.escape("not a product state id: %r" % pid)):
        split_product_id(pid)


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
    with pytest.raises(InputError, match=re.escape(
            "transition (p,sigma,q) uses undeclared state")):
        Automaton(frozenset({"p"}), CHAIN_ALPHA,
                  frozenset({("p", "sigma", "q")}), frozenset({"p"}))


def test_automaton_rejects_bad_state_ids():
    with pytest.raises(InputError, match=re.escape(
            "illegal character ' ' in state id 'p q'")):
        Automaton(frozenset({"p q"}), CHAIN_ALPHA, frozenset(),
                  frozenset({"p q"}))
    with pytest.raises(InputError, match=re.escape(
            "unbalanced brackets in state id '(r'")):
        Automaton.build(CHAIN_ALPHA, [("p", "sigma", "(r")], ["p"])


def test_derived_automata_validate_no_state_id(monkeypatch):
    # ids built from valid ids are valid: compose, bisim_quotient and the
    # builds do not check them again, while a direct Automaton(...) does
    plant, spec, _ = uc_instance(68)
    checked = []
    real = automata.validate_state_id

    def counting(name):
        checked.append(name)
        return real(name)

    monkeypatch.setattr(automata, "validate_state_id", counting)
    sup = build(SynthesisContext(plant, spec), "takai")
    derived = [sup.automaton, prune_deadlocks(sup).automaton,
               build_partial(CHAIN_PLANT, CHAIN_SPEC).automaton,
               compose(sup.automaton, plant, full=True),
               bisim_quotient(sup.automaton)]
    assert checked == []
    # and each is the Automaton that the checked path makes of its parts
    for a in derived:
        again = Automaton(a.states, a.alphabet, a.transitions, a.initial)
        assert again == a and hash(again) == hash(a)
        assert sorted(checked) == sorted(a.states)
        checked.clear()


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
    with pytest.raises(InputError, match="unknown state 'x9'"):
        is_deadlock(CHAIN_PLANT, "x9")


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


# --- bisimulation quotient ---------------------------------------------------

def _renamed(a: Automaton, prefix: str) -> Automaton:
    name = {s: prefix + s for s in a.states}
    return Automaton(frozenset(name.values()), a.alphabet,
                     frozenset((name[s], ev, name[t])
                               for (s, ev, t) in a.transitions),
                     frozenset(name[s] for s in a.initial))


def _union(a: Automaton, b: Automaton) -> Automaton:
    return Automaton(a.states | b.states, a.alphabet,
                     a.transitions | b.transitions, a.initial | b.initial)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=3),
       st.floats(min_value=0.05, max_value=0.6),
       st.integers(min_value=1, max_value=2))
def test_bisim_quotient_matches_oracle_classes(seed, n, n_events, density,
                                               n_initial):
    plant, spec = random_pair(seed, plant_states=n, spec_states=n,
                              n_events=n_events, density=density,
                              n_initial=n_initial)
    # the unions put bisimilar twins side by side: a plant and its renamed
    # copy, and two random automata over one alphabet
    for a in (plant, _union(plant, spec), _union(plant, _renamed(plant, "w"))):
        classes = oracle_bisimulation_classes(a)
        least = {s: min(c) for c in classes for s in c}
        q = bisim_quotient(a)
        # one state per class, named by its least member
        assert q.states == {min(c) for c in classes}
        assert q.transitions == {(least[s], ev, least[t])
                                 for (s, ev, t) in a.transitions}
        assert q.initial == {least[s] for s in a.initial}
        assert bisim_quotient(q) == q


def test_bisim_quotient_keeps_a_minimal_automaton():
    assert bisim_quotient(CHAIN_PLANT) is CHAIN_PLANT


def test_bisim_quotient_merges_twins():
    twins = Automaton.build(CHAIN_ALPHA,
                            [("p", "sigma", "q2"), ("p", "sigma", "q1"),
                             ("q1", "c", "d"), ("q2", "c", "d")], ["p"])
    q = bisim_quotient(twins)
    assert q.states == {"p", "q1", "d"}
    assert q.transitions == {("p", "sigma", "q1"), ("q1", "c", "d")}


def test_bisim_quotient_of_long_chains():
    # chains a and b are twins; c ends in a loop, so every c state differs
    # from every a state, and the splits reach the chain heads one round at a
    # time: a refinement that re-signs every state each round is quadratic
    n = 1500
    chain = {k: ["%s%04d" % (k, i) for i in range(n)] for k in "abc"}
    trans = [(c[i], "sigma", c[i + 1]) for c in chain.values()
             for i in range(n - 1)]
    a = Automaton.build(CHAIN_ALPHA, trans + [(chain["c"][-1], "c",
                                               chain["c"][-1])],
                        [chain["a"][0], chain["b"][0]])
    q = bisim_quotient(a)
    assert q.states == set(chain["a"]) | set(chain["c"])
    assert q.transitions == {t for t in a.transitions if t[0][0] != "b"}
    assert q.initial == {chain["a"][0]}


def test_pool_draw_2_supervisor_is_bisimilar_to_one_state():
    plant, spec, _ = uc_instance(2)
    sup = build(SynthesisContext(plant, spec), "takai").automaton
    assert len(sup.states) == 500
    assert len(bisim_quotient(sup).states) == 1


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
