"""Simulation preorders, the matching operator, and projections."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simsup import (InputError, Relation, check_simulation, compose, f_step,
                    greatest_uc_fixpoint, is_simulation_relation, pi_g,
                    project_pi)
from simsup.randgen import random_pair
from simsup.simulation import _greatest_fixpoint, _tracked, bit_positions

from .fixtures import (CHAIN_PLANT, CHAIN_SPEC, CHAIN_W_UP, FORK_PLANT,
                       FORK_SPEC, chain_sup_b)
from .oracles import oracle_check_simulation, oracle_greatest_simulation


def full_relation(g, r):
    return Relation(frozenset((x, z) for x in g.states for z in r.states))


def test_f_step_contracts_toward_the_fixpoint():
    rel = full_relation(CHAIN_PLANT, CHAIN_SPEC)
    seen = []
    while True:
        nxt = f_step(CHAIN_PLANT, CHAIN_SPEC, rel)
        assert nxt.pairs <= rel.pairs
        if nxt.pairs == rel.pairs:
            break
        seen.append(len(rel.pairs) - len(nxt.pairs))
        rel = nxt
    assert rel.pairs == CHAIN_W_UP
    assert seen  # the chain example does strictly shrink at least once


def test_fixpoint_is_a_fixpoint():
    w = greatest_uc_fixpoint(CHAIN_PLANT, CHAIN_SPEC)
    assert f_step(CHAIN_PLANT, CHAIN_SPEC, w).pairs == w.pairs


def test_uc_mode_is_weaker_than_full():
    # every simulation is a uc-simulation: fewer tracked events, fewer
    # obligations, so the full-mode greatest relation embeds in the uc one
    full = check_simulation(CHAIN_PLANT, CHAIN_SPEC, "full")
    uc = check_simulation(CHAIN_PLANT, CHAIN_SPEC, "uc")
    assert uc is not None
    if full is not None:
        assert full.pairs <= uc.pairs


def test_uc_can_hold_where_full_fails():
    # a controllable move the spec cannot match is invisible to uc mode
    from simsup import Automaton
    from .fixtures import CHAIN_ALPHA
    g = Automaton.build(CHAIN_ALPHA, [("x0", "c", "x1")], ["x0"])
    r = Automaton.build(CHAIN_ALPHA, [], ["z0"])
    assert check_simulation(g, r, "uc") is not None
    assert check_simulation(g, r, "full") is None
    # the chain fixture happens to be fully similar too
    assert check_simulation(CHAIN_PLANT, CHAIN_SPEC, "full") is not None


def test_mode_validation():
    with pytest.raises(InputError):
        check_simulation(CHAIN_PLANT, CHAIN_SPEC, "sideways")


def test_is_simulation_relation_accepts_the_fixpoint():
    w = greatest_uc_fixpoint(CHAIN_PLANT, CHAIN_SPEC)
    ok, witness = is_simulation_relation(w, CHAIN_PLANT, CHAIN_SPEC, "uc")
    assert ok and witness is None


def test_is_simulation_relation_step_witness():
    bad = Relation(frozenset({("x0", "z0")}))  # sigma obligation unanswered
    ok, witness = is_simulation_relation(bad, CHAIN_PLANT, CHAIN_SPEC, "uc",
                                         check_initial=False)
    assert not ok
    assert witness == ("step", ("x0", "z0"), "sigma", "x1")


def test_is_simulation_relation_initial_witness():
    bad = Relation(frozenset({("x1", "z1")}))
    ok, witness = is_simulation_relation(bad, CHAIN_PLANT, CHAIN_SPEC, "uc")
    assert not ok
    assert witness == ("initial", "x0")


def test_relation_json_round_trip():
    w = greatest_uc_fixpoint(FORK_PLANT, FORK_SPEC)
    again = Relation.from_json(w.to_json())
    assert again.pairs == w.pairs
    assert again.left == "plant"


def test_relation_keeps_a_frozenset_and_converts_other_iterables():
    pairs = frozenset({("x0", "z0"), ("x1", "z1")})
    assert Relation(pairs).pairs is pairs
    for other in ([["x0", "z0"], ("x1", "z1")], set(pairs), iter(pairs)):
        rel = Relation(other)
        assert isinstance(rel.pairs, frozenset) and rel.pairs == pairs
    body = {"left": "g", "right": "r", "pairs": [["x0", "z0"], ["x1", "z1"]]}
    assert Relation.from_json(body).pairs == pairs


def test_project_pi_yields_uc_simulation():
    sup = chain_sup_b().automaton
    loop = compose(sup, CHAIN_PLANT)
    rel = check_simulation(loop, CHAIN_SPEC, "full")
    assert rel is not None
    projected = project_pi(rel, sup, CHAIN_PLANT)
    ok, _ = is_simulation_relation(projected, CHAIN_PLANT, CHAIN_SPEC, "uc",
                                   check_initial=False)
    assert ok
    assert ("x0", "z0") in projected


def test_pi_g_projection():
    assert pi_g({("x0", "z0"), ("x1", "z1")}) == {"x0", "x1"}
    assert pi_g(greatest_uc_fixpoint(CHAIN_PLANT, CHAIN_SPEC)) == \
        {"x0", "x1", "x2", "x3"}


# --- randomized properties ---------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(("uc", "full")), st.integers(1, 7), st.integers(1, 7),
       st.floats(0.05, 0.5), st.integers(1, 2))
def test_fixpoint_matches_oracle(seed, mode, nx, nz, density, n_initial):
    # up to three events; densities above 1/n give nondeterministic moves
    plant, spec = random_pair(seed, plant_states=nx, spec_states=nz,
                              n_events=3, density=density,
                              n_initial=n_initial)
    events = _tracked(plant, mode)
    theirs = oracle_greatest_simulation(plant, spec, events)
    fix = _greatest_fixpoint(plant, spec, events)
    assert fix.pairs() == theirs
    assert len(fix) == len(theirs)
    if mode == "uc":
        assert greatest_uc_fixpoint(plant, spec).pairs == theirs
    rel = check_simulation(plant, spec, mode)
    assert (rel is not None) == oracle_check_simulation(plant, spec, mode)
    if rel is not None:
        assert rel.pairs == theirs


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2000).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), max_size=n)))
def test_bit_positions(bits):
    mask = 0
    for b in bits:
        mask |= 1 << b
    assert bit_positions(mask) == sorted(set(bits))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_f_step_is_monotone(seed, data):
    plant, spec = random_pair(seed, plant_states=4, spec_states=4, n_events=2)
    universe = sorted((x, z) for x in plant.states for z in spec.states)
    small = frozenset(data.draw(st.sets(st.sampled_from(universe))))
    extra = frozenset(data.draw(st.sets(st.sampled_from(universe))))
    big = small | extra
    fs = f_step(plant, spec, Relation(small)).pairs
    fb = f_step(plant, spec, Relation(big)).pairs
    assert fs <= big and fs <= fb


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(("uc", "full")), st.data())
def test_is_simulation_relation_least_step_witness(seed, mode, data):
    # random relations usually break several obligations at once; the
    # witness is the least of them (sorted pair, event order, successor)
    plant, spec = random_pair(seed, plant_states=4, spec_states=4,
                              n_events=3, density=0.4)
    universe = sorted((x, z) for x in plant.states for z in spec.states)
    pairs = frozenset(data.draw(st.sets(st.sampled_from(universe))))
    events = _tracked(plant, mode)
    broken = [((x, z), k, x1) for (x, z) in pairs
              for k, ev in enumerate(events)
              for x1 in plant.succ.get((x, ev), ())
              if not any((x1, z1) in pairs
                         for z1 in spec.succ.get((z, ev), ()))]
    got = is_simulation_relation(Relation(pairs), plant, spec, mode,
                                 check_initial=False)
    if not broken:
        assert got == (True, None)
    else:
        pair, k, x1 = min(broken)
        assert got == (False, ("step", pair, events[k], x1))
