"""Seeded random instance generation."""

import pytest

from simsup import InputError, RejectionLimitError, check_simulation
from simsup.randgen import (random_alphabet, random_automaton, random_pair,
                            random_uc_pair)

import random


def test_same_seed_same_instances():
    a1 = random_pair(42, plant_states=5, spec_states=4, n_events=3)
    a2 = random_pair(42, plant_states=5, spec_states=4, n_events=3)
    assert a1 == a2


def test_different_seeds_differ_somewhere():
    drawn = {random_pair(seed, plant_states=5, spec_states=5, n_events=2)
             for seed in range(20)}
    assert len(drawn) > 1


def test_alphabet_ratios():
    rng = random.Random(7)
    alpha = random_alphabet(rng, 40, controllable_ratio=0.0,
                            observable_ratio=1.0)
    assert not alpha.controllable and alpha.observable == frozenset(alpha.events)
    alpha = random_alphabet(rng, 40, controllable_ratio=1.0,
                            observable_ratio=0.0)
    assert alpha.controllable == frozenset(alpha.events)
    assert not alpha.observable


def test_random_automaton_shape():
    rng = random.Random(3)
    alpha = random_alphabet(rng, 2)
    a = random_automaton(rng, 6, alpha, density=0.5, n_initial=2, prefix="q")
    assert len(a.states) == 6
    assert len(a.initial) == 2
    assert all(s.startswith("q") for s in a.states)


def test_density_extremes():
    rng = random.Random(0)
    alpha = random_alphabet(rng, 2)
    empty = random_automaton(rng, 4, alpha, density=0.0)
    assert not empty.transitions
    full = random_automaton(rng, 4, alpha, density=1.0)
    assert len(full.transitions) == 4 * 4 * 2


def test_uc_pair_postcondition():
    plant, spec, attempts = random_uc_pair(5, plant_states=4, spec_states=4,
                                           n_events=2)
    assert attempts >= 1
    assert check_simulation(plant, spec, "uc") is not None


def test_uc_pair_rejection_limit():
    # a spec with no transitions cannot uc-simulate a dense plant; with
    # density pinned to 1 and everything uncontrollable every draw fails
    with pytest.raises(RejectionLimitError):
        random_uc_pair(1, plant_states=3, spec_states=3, n_events=2,
                       density=1.0, spec_density=0.0, controllable_ratio=0.0,
                       max_rejects=20)


@pytest.mark.parametrize("kwargs,name", [
    (dict(density=-1), "density"),
    (dict(density=1.5), "density"),
    (dict(density=float("nan")), "density"),
    (dict(spec_density=3), "spec_density"),
    (dict(controllable_ratio=2), "controllable_ratio"),
    (dict(observable_ratio=-1), "observable_ratio"),
])
def test_ratios_and_densities_outside_the_unit_interval(kwargs, name):
    # each is a probability; 0 and 1 stay valid (test_alphabet_ratios,
    # test_density_extremes)
    with pytest.raises(InputError, match=r"^%s must lie in \[0, 1\], got "
                       % name):
        random_pair(1, **kwargs)


@pytest.mark.parametrize("max_rejects", [0, -4])
def test_max_rejects_must_be_positive(max_rejects):
    with pytest.raises(InputError, match="^max_rejects must be at least 1, "
                       "got %d$" % max_rejects):
        random_uc_pair(1, max_rejects=max_rejects)
