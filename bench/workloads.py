"""Seeded workload instances for the benchmark.

Each workload is a fixed population of rejection-sampled (plant, spec) pairs,
drawn once from `simsup.randgen`.  The workload seed picks a random
renaming of every instance's plant states, spec states and events; seed 0 is
the identity, so `pool` at seed 0 is the acceptance pool of `tests/pool.py`,
file for file.  Instances run in draw order at every seed: the high-water mark
of memory depends on the order in which the allocator saw the calls.

Why a fixed population under a renaming, and not fresh draws per seed: the
cost of an instance is heavy-tailed (one pool instance in a few hundred runs
into a loop-against-loop fixpoint of millions of pairs).  Fresh 500-instance
pools drawn for six seeds took between 4.6 s and 17.5 s per pass, depending on
which blow-ups they happened to contain, so no throughput bound would hold
from one seed to the next.  Even a renaming that reorders states moves the
cost of an instance that trips a guard by up to 3x, because it changes how
far the breadth-first build gets before it reaches the tripping state.  An
order-preserving renaming gives every seed its own input and output files and
keeps the work the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from simsup.automata import Alphabet, Automaton
from simsup.randgen import random_uc_pair
from tests.pool import draw_params

POOL_N = 500
COVERS_N = 48
PARTIAL_N = 48


@dataclass(frozen=True)
class Instance:
    draw: int  # seed of the underlying random_uc_pair draw
    plant: Automaton
    spec: Automaton


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    synth_flags: tuple[str, ...]  # extra `simsup synthesize` arguments
    verify: bool  # run `simsup verify` on every supervisor written
    time_limit_s: float  # per CLI call


WORKLOADS = {
    "pool": Workload("pool", POOL_N, (), True, 12.0),
    "covers": Workload("covers", COVERS_N, ("--max-states", "2000"), False, 20.0),
    "partial": Workload("partial", PARTIAL_N, ("--partial",), False, 4.0),
}


def covers_params(draw: int) -> dict:
    rng = random.Random(draw * 7919 + 29)
    nx = rng.randint(5, 7)
    nz = rng.randint(5, 7)
    return dict(plant_states=nx, spec_states=nz, n_events=3,
                density=1.2 / nx, spec_density=1.2 / nz)


def partial_params(draw: int) -> dict:
    rng = random.Random(draw * 7919 + 31)
    nx = rng.randint(6, 10)
    nz = rng.randint(6, 10)
    return dict(plant_states=nx, spec_states=nz, n_events=3,
                density=1.2 / nx, spec_density=1.2 / nz,
                observable_ratio=0.6)


PARAMS = {"pool": draw_params, "covers": covers_params,
          "partial": partial_params}


def _population(name: str) -> list[tuple[int, Automaton, Automaton]]:
    out = []
    draw = 0
    while len(out) < WORKLOADS[name].size:
        plant, spec, _ = random_uc_pair(draw, **PARAMS[name](draw))
        # partial keeps only draws with an unobservable event, the only ones
        # that reach the triple-state machinery
        if name != "partial" or plant.alphabet.unobservable:
            out.append((draw, plant, spec))
        draw += 1
    return out


# name characters in ASCII order; a renamed id keeps the length of the original
_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def _renaming(rng: random.Random, names) -> dict:
    """Map names like x0..x9 (one prefix letter and one digit) to the same
    prefix and a random, order-preserving choice of one character each."""
    names = sorted(names)
    chars = sorted(rng.sample(_CHARS, len(names)))
    return {old: old[0] + c for old, c in zip(names, chars)}


def _rename(a: Automaton, states: dict, events: dict, alphabet: Alphabet) -> Automaton:
    return Automaton(frozenset(states[s] for s in a.states), alphabet,
                     frozenset((states[s], events[e], states[t])
                               for (s, e, t) in a.transitions),
                     frozenset(states[s] for s in a.initial))


def relabel(plant: Automaton, spec: Automaton, rng: random.Random):
    """An isomorphic copy of the pair with plant states, spec states and
    events renamed.  The renaming keeps every sorted order, so the program
    visits states, pairs and events in the same order and does the same
    work; only the bytes of its inputs and outputs change."""
    ev = _renaming(rng, plant.alphabet.events)
    old = plant.alphabet
    alphabet = Alphabet.build([ev[e] for e in old.events],
                              [ev[e] for e in old.controllable],
                              [ev[e] for e in old.observable])
    return (_rename(plant, _renaming(rng, plant.states), ev, alphabet),
            _rename(spec, _renaming(rng, spec.states), ev, alphabet))


def instances(name: str, seed: int) -> list[Instance]:
    """The workload's instances at this seed, in run order."""
    population = _population(name)
    if seed == 0:
        return [Instance(d, g, r) for (d, g, r) in population]
    out = []
    for (d, g, r) in population:
        g, r = relabel(g, r, random.Random("%s:%d:%d" % (name, seed, d)))
        out.append(Instance(d, g, r))
    return out
