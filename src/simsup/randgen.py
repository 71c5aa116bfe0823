"""Seeded random plant/spec instances for property suites and the CLI.

Everything is driven by a single stdlib Random stream per call, so a seed
fully determines the output.  Rejection sampling (require_uc_sim) redraws the
whole pair until the plant is uc-similar to the spec.
"""

from __future__ import annotations

import random

from .automata import Alphabet, Automaton
from .errors import InputError, RejectionLimitError
from .simulation import simulates


def _check_unit(name: str, value: float) -> None:
    """A ratio or density is a probability: it must lie in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise InputError("%s must lie in [0, 1], got %r" % (name, value))


def check_max_rejects(max_rejects: int) -> None:
    """Rejection sampling draws at least one pair."""
    if max_rejects < 1:
        raise InputError("max_rejects must be at least 1, got %d" % max_rejects)


def random_alphabet(rng: random.Random, n_events: int,
                    controllable_ratio: float = 0.5,
                    observable_ratio: float = 1.0) -> Alphabet:
    if n_events < 1:
        raise InputError("need at least one event")
    _check_unit("controllable_ratio", controllable_ratio)
    _check_unit("observable_ratio", observable_ratio)
    events = ["e%d" % i for i in range(n_events)]
    controllable = [ev for ev in events if rng.random() < controllable_ratio]
    observable = [ev for ev in events if rng.random() < observable_ratio]
    return Alphabet.build(events, controllable, observable)


def random_automaton(rng: random.Random, n_states: int, alphabet: Alphabet,
                     density: float, n_initial: int = 1,
                     prefix: str = "s") -> Automaton:
    if n_states < 1 or n_initial < 1:
        raise InputError("sizes must be positive")
    _check_unit("density", density)
    states = ["%s%d" % (prefix, i) for i in range(n_states)]
    transitions = set()
    for src in states:
        for ev in alphabet.events:
            for tgt in states:
                if rng.random() < density:
                    transitions.add((src, ev, tgt))
    initial = rng.sample(states, min(n_initial, n_states))
    return Automaton(frozenset(states), alphabet, frozenset(transitions),
                     frozenset(initial))


def random_pair(seed: int, plant_states: int = 4, spec_states: int = 4,
                n_events: int = 2, controllable_ratio: float = 0.5,
                density: float = 0.3, spec_density: float | None = None,
                observable_ratio: float = 1.0, n_initial: int = 1,
                spec_initial: int | None = None) -> tuple[Automaton, Automaton]:
    """One seeded plant/spec pair over a shared alphabet."""
    if spec_density is not None:
        _check_unit("spec_density", spec_density)
    rng = random.Random(seed)
    alphabet = random_alphabet(rng, n_events, controllable_ratio, observable_ratio)
    plant = random_automaton(rng, plant_states, alphabet, density, n_initial, "x")
    spec = random_automaton(rng, spec_states, alphabet,
                            density if spec_density is None else spec_density,
                            n_initial if spec_initial is None else spec_initial,
                            "z")
    return plant, spec


def random_uc_pair(seed: int, max_rejects: int = 500,
                   **kwargs) -> tuple[Automaton, Automaton, int]:
    """Rejection-sample seeded pairs until the plant is uc-similar to the
    spec.  Returns (plant, spec, attempts); sub-seeds derive from the seed, so
    the accepted pair is a pure function of the arguments."""
    check_max_rejects(max_rejects)
    for attempt in range(max_rejects):
        plant, spec = random_pair(seed * 1_000_003 + attempt, **kwargs)
        if simulates(plant, spec, "uc"):
            return plant, spec, attempt + 1
    raise RejectionLimitError(
        "no uc-similar pair within %d attempts for seed %d" % (max_rejects, seed))
