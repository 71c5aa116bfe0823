"""Powerset synthesis: clauses, covers, builds, pruning, SP membership."""

import itertools
from functools import cached_property

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simsup import (ExplosionGuardError, InputError,
                    SynthesisPreconditionError, automaton_digest,
                    check_saturated, check_simulation, compose, synthesis)
from simsup.automata import Alphabet, Automaton
from simsup.randgen import random_pair, random_uc_pair
from simsup.simulation import bit_positions
from simsup.synthesis import (Guards, SynthesisContext, _minimal_transversals,
                              build, clause_a, clause_b, cover_family,
                              in_n_set, in_sp,
                              initial_power_states, is_admissible,
                              minimal_covers, more_permissive,
                              n_set_members, parse_pairs, payloads_from_ids,
                              prune_deadlocks, render_pairs,
                              supervisor_from_pair_sets)

from .fixtures import (CHAIN_ALPHA, CHAIN_PLANT, CHAIN_SPEC, FORK_PLANT,
                       FORK_SPEC, FORK_S1, W0, W1, W2, W3, W4, W5,
                       chain_sup_a, chain_sup_b, fork_sup_a1)
from .oracles import (oracle_admissibility_witness, oracle_admissible,
                      oracle_greatest_simulation,
                      oracle_cover_family, oracle_in_sp,
                      oracle_initial_power_states, oracle_loop_below,
                      oracle_matchable, oracle_minimal,
                      oracle_minimal_covers_by_choice, oracle_n_set,
                      oracle_variant2_targets)
from .pool import uc_instance


def chain_ctx(**kw):
    return SynthesisContext(CHAIN_PLANT, CHAIN_SPEC, Guards(**kw))


def fork_ctx(**kw):
    return SynthesisContext(FORK_PLANT, FORK_SPEC, Guards(**kw))


# --- ids ---------------------------------------------------------------------

def test_render_parse_pairs_round_trip():
    for w in (W0, W4, frozenset()):
        assert parse_pairs(render_pairs(w)) == w
    assert render_pairs(W4) == "{(x2,z2),(x2,z3)}"


def test_parse_pairs_rejects_noise():
    for bad in ("", "(x,z)", "{x}", "{(x)}", "{(x,y,z)}"):
        with pytest.raises(InputError):
            parse_pairs(bad)


# --- clauses and covers ------------------------------------------------------

def test_clause_a_needs_a_plant_move():
    ctx = chain_ctx()
    assert clause_a(W0, "sigma", ctx)
    assert not clause_a(W0, "c", ctx)
    assert clause_a(W3, "c", ctx)


def test_clause_b_uncontrollable_escape():
    ctx = chain_ctx()
    # sigma is uncontrollable: clause_b passes even where matching fails
    assert clause_b(W0, "sigma", ctx)
    # c from W2 cannot be matched (z2 has no c): controllable, so it fails
    assert not clause_b(W2, "c", ctx)
    assert clause_b(W3, "c", ctx)


def test_clause_b_simplification_agrees_on_fixture():
    # the plant is uc-similar to the spec, so the uncontrollable escape is
    # never load-bearing at reachable states
    ctx = chain_ctx()
    sup = build(ctx)
    for w in sup.payloads.values():
        for ev in CHAIN_ALPHA.events:
            if clause_a(w, ev, ctx):
                assert clause_b(w, ev, ctx) == oracle_matchable(
                    w, ev, CHAIN_PLANT, CHAIN_SPEC, ctx.w_up)


def test_cover_family_shape():
    fam = cover_family(W1, "sigma", chain_ctx())
    assert fam.source == W1
    assert fam.candidate_pairs == (("x2", "z2"), ("x2", "z3"))
    ((ob, allowed),) = fam.obligations
    assert ob == ("x1", "z1", "x2")
    assert set(allowed) == {("x2", "z2"), ("x2", "z3")}


def test_cover_family_rejects_pairs_outside_fixpoint():
    with pytest.raises(InputError):
        cover_family(frozenset({("x0", "z4")}), "sigma", chain_ctx())


def test_n_set_membership_predicate():
    ctx = chain_ctx()
    assert in_n_set(W1, "sigma", W2, ctx)
    assert in_n_set(W1, "sigma", W4, ctx)
    assert not in_n_set(W1, "sigma", W5, ctx)
    assert not in_n_set(W1, "sigma", frozenset(), ctx)


def test_n_set_enumeration_guard():
    ctx = chain_ctx(max_covers=2)
    covers = n_set_members(W1, "sigma", ctx)
    assert ctx.power_state(next(covers)) == W2
    assert ctx.power_state(next(covers)) == W4
    with pytest.raises(ExplosionGuardError) as exc:
        next(covers)
    assert str(exc.value) == ("cover enumeration cap 2 exceeded at "
                              "({(x1,z1)}, sigma) with 2 candidate pairs")


def test_n_set_members_yield_order():
    # covers come once each, in canonical order: as their PowerStates sort
    # by their sorted pairs
    plant, spec = random_pair(4, plant_states=3, spec_states=3, n_events=2,
                              density=0.4)
    ctx = SynthesisContext(plant, spec, Guards())
    pairs = sorted(ctx.w_up)
    seen = 0
    for i in range(0, len(pairs) - 1, 2):
        w = frozenset(pairs[i:i + 2])
        for ev in plant.alphabet.events:
            got = [ctx.power_state(m) for m in n_set_members(w, ev, ctx)]
            assert got == sorted(set(got), key=lambda s: tuple(sorted(s)))
            seen += len(got)
    assert seen == 53


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_n_sets_match_brute_force(seed):
    plant, spec = random_pair(seed, plant_states=3, spec_states=3, n_events=2,
                              density=0.4)
    ctx = SynthesisContext(plant, spec, Guards())
    w_up = ctx.w_up
    if not w_up:
        return
    outside = [(x, z) for x in plant.sorted_states for z in spec.sorted_states
               if (x, z) not in w_up][:1]
    # a small sample of subsets of the fixpoint as source PowerStates
    sample = sorted(w_up)[:3]
    for k in (1, 2):
        for i in range(len(sample) - k + 1):
            w = frozenset(sample[i:i + k])
            for ev in plant.alphabet.events:
                mine = set(ctx.power_states(n_set_members(w, ev, ctx)))
                brute = set(oracle_n_set(w, ev, plant, spec, w_up))
                # the oracle keeps covers made of candidate pairs only, and
                # so does the enumerator; compare them outright
                assert mine == brute
                assert set(ctx.power_states(minimal_covers(w, ev, ctx))) \
                    == set(oracle_minimal(list(brute)))
                # membership: every subset of the pool, alone and with one
                # fixpoint pair outside the pool or one pair outside the
                # fixpoint added
                pool = cover_family(w, ev, ctx).candidate_pairs
                extras = [p for p in sorted(w_up) if p not in pool][:1]
                for n in range(len(pool) + 1):
                    for combo in itertools.combinations(pool, n):
                        t = frozenset(combo)
                        for extra in [()] + [(p,) for p in extras + outside]:
                            t1 = t | frozenset(extra)
                            assert in_n_set(w, ev, t1, ctx) == (t1 in brute)


def _covers_or_guard(fn, w, ev, ctx):
    try:
        return list(fn(w, ev, ctx))
    except ExplosionGuardError as exc:
        return ("guard", str(exc))


def _as_power_states(covers, ctx):
    """Pair masks as PowerStates, in the order given; a guard as it is."""
    if covers[:1] == ("guard",):
        return covers
    return [ctx.power_state(m) for m in covers]


@pytest.mark.parametrize("seed,nx,nz,max_covers", [
    (0, 5, 6, 4096), (2, 7, 7, 4096), (6, 5, 6, 4096),
    (1, 7, 7, 64), (4, 6, 6, 64)])  # the last two trip the cover cap
def test_minimal_covers_match_choice_oracle_on_builds(monkeypatch, seed, nx,
                                                      nz, max_covers):
    # every (W, event) the takai build reaches, guard trips included
    plant, spec, _ = random_uc_pair(seed, plant_states=nx, spec_states=nz,
                                    n_events=3, density=1.2 / nx,
                                    spec_density=1.2 / nz)
    ctx = SynthesisContext(plant, spec,
                           Guards(max_states=60, max_covers=max_covers))
    real = synthesis.minimal_covers
    outcomes = []

    def checked(w, ev, ctx):
        got = _covers_or_guard(real, w, ev, ctx)
        assert _as_power_states(got, ctx) == \
            _covers_or_guard(oracle_minimal_covers_by_choice, w, ev, ctx)
        outcomes.append(got)
        if isinstance(got, tuple):
            raise ExplosionGuardError(got[1])
        return got

    monkeypatch.setattr(synthesis, "minimal_covers", checked)
    try:
        build(ctx)
    except ExplosionGuardError:
        pass
    assert len(outcomes) >= 25


class _ProductContext(SynthesisContext):
    """A context that takes the whole product X x Z for its fixpoint.  It is
    no uc-simulation, so an uncontrollable obligation can go unanswered in
    it, and clause (b)'s uncontrollable escape decides."""

    @cached_property
    def w_up(self):
        return frozenset(itertools.product(self.plant.states, self.spec.states))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7),
       st.floats(min_value=0.05, max_value=0.5), st.data())
def test_obligation_readers_match_string_oracles(seed, nx, nz, density, data):
    # cover_family, the gates, clause_b and minimal_covers all read the
    # context's obligation table; each must equal its string-pair oracle for
    # every W of up to 3 pairs out of (up to) 8 fixpoint pairs, and every
    # event, over the greatest uc fixpoint and over the whole product
    plant, spec = random_pair(seed, plant_states=nx, spec_states=nz,
                              n_events=3, density=density)
    for ctx in (SynthesisContext(plant, spec, Guards(max_covers=16)),
                _ProductContext(plant, spec, Guards(max_covers=16))):
        pool = data.draw(st.permutations(sorted(ctx.w_up)))[:8]
        for k in range(4):
            for combo in itertools.combinations(pool, k):
                w = frozenset(combo)
                mask = ctx.mask(w)
                for ev in plant.alphabet.events:
                    fam = cover_family(w, ev, ctx)
                    assert (fam.obligations, fam.candidate_pairs) == \
                        oracle_cover_family(w, ev, plant, spec, ctx.w_up)
                    enabling, blocked = ctx.gates(ev)
                    assert bool(mask & enabling) == clause_a(w, ev, ctx)
                    matchable = (ev in plant.alphabet.uncontrollable
                                 or oracle_matchable(w, ev, plant, spec, ctx.w_up))
                    assert (not mask & blocked) == clause_b(w, ev, ctx) == \
                        matchable
                    assert _as_power_states(
                        _covers_or_guard(minimal_covers, w, ev, ctx), ctx) == \
                        _covers_or_guard(oracle_minimal_covers_by_choice, w, ev, ctx)


def _brute_minimal_transversals(n, edges):
    hitting = [s for s in range(1 << n) if all(s & e for e in edges)]
    return sorted(s for s in hitting if not any(t != s and t & s == t
                                                for t in hitting))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(min_value=0, max_value=(1 << n) - 1), max_size=7))))
def test_minimal_transversals_match_brute_force(case):
    # the edge lists cover singletons, duplicates, nested edges, the empty
    # edge and the empty family
    n, edges = case
    assert sorted(_minimal_transversals(edges)) == \
        _brute_minimal_transversals(n, edges)


@st.composite
def _split_families(draw):
    """(n, edges): the union of 2-4 sub-families on disjoint bit ranges of
    n <= 10 bits in all; each repeats up to two of its edges and adds a
    superset of each, and the narrow ranges give single-bit edges."""
    widths = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=2,
                           max_size=4).filter(lambda ws: sum(ws) <= 10))
    edges, low = [], 0
    for w in widths:
        full = (1 << w) - 1
        part = draw(st.lists(st.integers(min_value=1, max_value=full),
                             min_size=1, max_size=4))
        again = draw(st.lists(st.sampled_from(part), max_size=2))
        part += again + [e | draw(st.integers(min_value=0, max_value=full))
                         for e in again]
        edges += [e << low for e in part]
        low += w
    return low, draw(st.permutations(edges))


@settings(max_examples=200, deadline=None)
@given(_split_families())
def test_minimal_transversals_of_split_families(case):
    # a family whose edges fall into components: the transversals are
    # products of the components', and the context's order key sorts them
    # as their bit positions do
    n, edges = case
    brute = _brute_minimal_transversals(n, edges)
    assert sorted(_minimal_transversals(edges)) == brute
    assert chain_ctx().minimal_transversals(edges) == \
        tuple(sorted(brute, key=bit_positions))


def _fan(branches: int, answers: int, max_covers: int,
         sources=("p",)) -> SynthesisContext:
    """W = {(p,z)}: p -a-> q_i for each branch, z -a-> r_j for each answer,
    so (W, a) has `branches` obligations of `answers` allowed pairs each.
    Every other source state moves as p does."""
    alpha = Alphabet.build(["a"])
    plant = Automaton.build(alpha, [(x, "a", "q%d" % i) for x in sources
                                    for i in range(branches)], ["p"])
    spec = Automaton.build(alpha, [("z", "a", "r%d" % j)
                                   for j in range(answers)], ["z"])
    return SynthesisContext(plant, spec, Guards(max_covers=max_covers))


def test_minimal_covers_guard_boundary():
    w = frozenset({("p", "z")})
    # 2 x 2 choice functions: the cap is inclusive
    ctx = _fan(2, 2, 4)
    covers = minimal_covers(w, "a", ctx)
    assert len(covers) == 4
    assert _as_power_states(covers, ctx) == \
        oracle_minimal_covers_by_choice(w, "a", ctx)
    with pytest.raises(ExplosionGuardError) as exc:
        minimal_covers(w, "a", _fan(2, 2, 3))
    assert str(exc.value) == ("choice-function enumeration cap 3 exceeded at "
                              "({(p,z)}, a) with 4 candidate pairs")
    # 2^60 choice functions, each one a minimal cover: only a check made
    # before any enumeration returns
    with pytest.raises(ExplosionGuardError) as exc:
        minimal_covers(w, "a", _fan(60, 2, 4096))
    assert str(exc.value).startswith("choice-function enumeration cap 4096 ")


def _counted_transversals(monkeypatch) -> list:
    """Record each MMCS run the synthesis module makes."""
    runs = []

    def counted(edges):
        runs.append(list(edges))
        return _minimal_transversals(edges)

    monkeypatch.setattr(synthesis, "_minimal_transversals", counted)
    return runs


P, P2 = frozenset({("p", "z")}), frozenset({("p2", "z")})


def test_minimal_covers_run_once_per_obligation_family(monkeypatch):
    # {(p,z)}, {(p2,z)} and both together owe one answer to each of two
    # moves, out of the same two pairs: one obligation family
    runs = _counted_transversals(monkeypatch)
    ctx = _fan(2, 2, 4096, sources=("p", "p2"))
    got = [minimal_covers(w, "a", ctx) for w in (P, P2, P | P2)]
    assert len(runs) == 1
    assert got[0] == got[1] == got[2]
    assert _as_power_states(got[0], ctx) == \
        oracle_minimal_covers_by_choice(P2, "a", ctx)


def test_cover_cap_trips_before_the_transversal_cache(monkeypatch):
    runs = _counted_transversals(monkeypatch)
    # P has 2 x 2 choice functions, P | P2 has 4 x 4 over the same family:
    # the cached family does not let P | P2 past the cap
    ctx = _fan(2, 2, 4, sources=("p", "p2"))
    assert len(minimal_covers(P, "a", ctx)) == 4
    for _ in range(2):
        with pytest.raises(ExplosionGuardError) as exc:
            minimal_covers(P | P2, "a", ctx)
        assert str(exc.value) == (
            "choice-function enumeration cap 4 exceeded at "
            "({(p,z),(p2,z)}, a) with 4 candidate pairs")
    assert len(runs) == 1
    # a family over the cap trips on every call, and is never run
    over = _fan(2, 2, 3)
    for _ in range(2):
        with pytest.raises(ExplosionGuardError):
            minimal_covers(P, "a", over)
    assert len(runs) == 1


# --- initial states ----------------------------------------------------------

def test_initial_power_states_chain():
    assert initial_power_states(chain_ctx()) == [W0]


def test_initial_power_states_fork():
    got = initial_power_states(fork_ctx())
    assert got == [frozenset({("x0", "z01")}), frozenset({("x0", "z02")})]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_initial_power_states_come_in_canonical_order(seed, n_initial, spec_initial):
    # the product of the sorted partner lists is the order, with no sort
    plant, spec, _ = random_uc_pair(seed, plant_states=4, spec_states=4,
                                    n_events=2, density=0.3,
                                    n_initial=n_initial,
                                    spec_initial=spec_initial)
    ctx = SynthesisContext(plant, spec, Guards())
    got = initial_power_states(ctx)
    assert got == sorted(got, key=lambda w: tuple(sorted(w)))
    assert len(set(got)) == len(got)
    assert set(got) == oracle_initial_power_states(plant, spec, ctx.w_up)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_power_states_in_canonical_order(data):
    plant, spec, _ = uc_instance(data.draw(st.integers(0, 499)))
    ctx = SynthesisContext(plant, spec, Guards())
    pairs = ctx.fixpoint_pairs
    masks = data.draw(st.lists(st.integers(0, (1 << len(pairs)) - 1),
                               unique=True, max_size=12))
    expected = [frozenset(p for i, p in enumerate(pairs) if m >> i & 1)
                for m in masks]
    assert ctx.power_states(masks) == sorted(
        expected, key=lambda w: tuple(sorted(w)))


def test_initial_power_states_precondition():
    # no initial spec partner: x0 enables uncontrollable sigma, z0 does not
    g = Automaton.build(CHAIN_ALPHA, [("x0", "sigma", "x0")], ["x0"])
    r = Automaton.build(CHAIN_ALPHA, [], ["z0"])
    with pytest.raises(SynthesisPreconditionError):
        initial_power_states(SynthesisContext(g, r, Guards()))


def test_initial_power_states_guard_in_check_saturated():
    # the sistate clause enumerates through initial_power_states, so its
    # choice-function cap trips there: the fork has two initial partners
    sup = build(fork_ctx())
    with pytest.raises(ExplosionGuardError, match="initial"):
        check_saturated(sup, FORK_PLANT, FORK_SPEC, fork_ctx(max_covers=1))


# --- builds ------------------------------------------------------------------

def test_takai_build_chain():
    sup = build(chain_ctx())
    assert set(sup.payloads.values()) == {W0, W1, W2, W3, W5}
    assert set(sup.automaton.transitions) == {
        (render_pairs(W0), "sigma", render_pairs(W1)),
        (render_pairs(W1), "sigma", render_pairs(W2)),
        (render_pairs(W1), "sigma", render_pairs(W3)),
        (render_pairs(W3), "c", render_pairs(W5)),
    }
    assert sup.construction_tag == "takai"


def test_variant1_adds_every_cover():
    ctx = chain_ctx()
    takai = build(ctx)
    v1 = build(ctx, "variant1")
    assert set(v1.payloads.values()) == set(takai.payloads.values()) | {W4}
    assert set(takai.automaton.transitions) <= set(v1.automaton.transitions)
    assert (render_pairs(W1), "sigma", render_pairs(W4)) in v1.automaton.transitions
    assert v1.construction_tag == "variant1"


def test_takai_targets_equal_variant2_oracle():
    ctx = chain_ctx()
    sup = build(ctx)
    auto = sup.automaton
    edges = 0
    for sid, w in sup.payloads.items():
        for ev in CHAIN_ALPHA.events:
            targets = {sup.payloads[t] for t in auto.succ.get((sid, ev), ())}
            if targets:
                assert targets == set(oracle_variant2_targets(
                    ctx.power_states(n_set_members(w, ev, ctx))))
                edges += len(targets)
    assert edges == len(auto.transitions)


def test_build_variant_validation():
    for variant in ("variant9", "variant2"):
        with pytest.raises(InputError):
            build(chain_ctx(), variant)


def test_build_state_guard():
    with pytest.raises(ExplosionGuardError):
        build(chain_ctx(max_states=2))


@pytest.mark.parametrize("ctx_of,variant,n", [
    (chain_ctx, "takai", 5), (chain_ctx, "variant1", 6), (fork_ctx, "takai", 6)])
def test_build_state_cap_trip_points(ctx_of, variant, n):
    # the build fits a cap of exactly its state count; one less trips the
    # guard at the state the breadth-first walk reaches last
    assert len(build(ctx_of(max_states=n), variant).automaton.states) == n
    with pytest.raises(ExplosionGuardError) as exc:
        build(ctx_of(max_states=n - 1), variant)
    assert str(exc.value) == ("supervisor state cap %d exceeded when reaching "
                              "{(x3,z4)}" % (n - 1))


def covers_draw(seed, nx, nz):
    """A covers-shaped draw: 3 events, every event observable, density 1.2
    per state."""
    plant, spec, _ = random_uc_pair(seed, plant_states=nx, spec_states=nz,
                                    n_events=3, density=1.2 / nx,
                                    spec_density=1.2 / nz)
    return plant, spec


# .aut sha256 of the takai and variant1 builds under a state cap of 2000, and
# the guard messages of those that trip, as computed by the builds that named
# each state when its key was first reached
@pytest.mark.parametrize("seed,nx,nz,variant,expected", [
    (3, 5, 5, "takai",
     "f6a2103028ae9b38b478f5ad448110b813534096451a50d45c9d7922c819ebeb"),
    (4, 7, 6, "takai",
     "17242fbd028c63a85b2439a0d8b195e6dc51679136f5b79690990dd4599f788c"),
    (4, 7, 6, "variant1",
     "0331350ada53bd047d8985d55fb234d1825bf61a1771bda84febd1dfd1c4f4ad"),
    (5, 5, 5, "takai",
     "7ee17418c7175758b1893bbcc3793e2a54173eaeadb01521e7da6f590b54f55b"),
    (5, 5, 5, "variant1",
     "f6b5dd4fddd542503669d76a78954e544f7cb2c5c496574734eae6c49ce47050"),
    (7, 7, 6, "takai",
     "42605e6814511fb1581b00e75a930ac19f8c44f1dd6282d3f1076bd32ac7c28f"),
    (7, 7, 6, "variant1",
     "435bca4495dbe9bf6d77e9542e074af5fdcf6744dd9ceaba647799fd8556da7b"),
    (15, 5, 5, "takai",
     "1444106fcaa306588148dc0ec940d20e029677dfbd603079840788c57017e9d6"),
    (15, 5, 5, "variant1",
     "55b80b814e2bc7d4c3e44fcd9678d08899972356fc6527b2e762ebff5d243f2e"),
    (3, 5, 5, "variant1",
     "supervisor state cap 2000 exceeded when reaching {(x0,z1),(x0,z4),"
     "(x2,z0),(x2,z1),(x3,z0),(x3,z1),(x3,z3),(x3,z4)}"),
    (12, 7, 6, "takai",
     "supervisor state cap 2000 exceeded when reaching {(x0,z0),(x2,z2),"
     "(x3,z0),(x3,z5),(x5,z0)}"),
    (2, 6, 5, "takai",
     "choice-function enumeration cap 4096 exceeded at ({(x0,z2),(x1,z2),"
     "(x2,z2)}, e1) with 18 candidate pairs")])
def test_build_outputs_pinned(seed, nx, nz, variant, expected):
    plant, spec = covers_draw(seed, nx, nz)
    ctx = SynthesisContext(plant, spec, Guards(max_states=2000))
    try:
        got = automaton_digest(build(ctx, variant).automaton)
    except ExplosionGuardError as exc:
        got = str(exc)
    assert got == expected


def test_fork_build_has_two_initials():
    sup = build(fork_ctx())
    assert len(sup.automaton.initial) == 2


# --- pruning -----------------------------------------------------------------

def test_prune_removes_only_covered_deadlock_edges():
    sup = build(chain_ctx())
    pruned = prune_deadlocks(sup)
    w1 = render_pairs(W1)
    assert (w1, "sigma", render_pairs(W2)) not in pruned.automaton.transitions
    assert (w1, "sigma", render_pairs(W3)) in pruned.automaton.transitions
    # W5 deadlocks but is the only c-successor of W3, so its edge stays
    assert (render_pairs(W3), "c", render_pairs(W5)) in pruned.automaton.transitions
    assert pruned.automaton.states == sup.automaton.states
    assert pruned.construction_tag == "tilde-of-takai"


def test_prune_keeps_payloads():
    pruned = prune_deadlocks(build(chain_ctx()))
    assert pruned.payloads == build(chain_ctx()).payloads


# --- loop properties ---------------------------------------------------------

def test_admissibility_of_builds():
    sup = build(chain_ctx())
    ok, witness = is_admissible(sup.automaton, CHAIN_PLANT)
    assert ok and witness is None


def test_admissibility_witness():
    # a supervisor that stops after one sigma disables the second
    s = Automaton.build(CHAIN_ALPHA, [("y0", "sigma", "y1")], ["y0"])
    ok, witness = is_admissible(s, CHAIN_PLANT)
    assert not ok
    assert witness == (("y1", "x1"), "sigma")


def test_in_sp_fixture_supervisors():
    assert in_sp(chain_sup_a().automaton, CHAIN_PLANT, CHAIN_SPEC)
    assert in_sp(chain_sup_b().automaton, CHAIN_PLANT, CHAIN_SPEC)
    assert in_sp(fork_sup_a1().automaton, FORK_PLANT, FORK_SPEC)
    assert in_sp(FORK_S1, FORK_PLANT, FORK_SPEC)


def test_more_permissive_chain_a_vs_b():
    a, b = chain_sup_a().automaton, chain_sup_b().automaton
    assert more_permissive(a, b, CHAIN_PLANT)
    assert not more_permissive(b, a, CHAIN_PLANT)


def test_fork_s1_not_below_a1():
    assert not more_permissive(FORK_S1, fork_sup_a1().automaton, FORK_PLANT)


def test_loop_fixpoints_match_oracle_on_pool():
    # closed loops of takai, variant1 and pruned takai builds compared with
    # each other both ways: removals must propagate back through chains of
    # loop states, unlike the plant x spec fixpoint of the builds themselves
    compared = shrunk = 0
    for seed in range(500):
        plant, spec, _ = uc_instance(seed)
        ctx = SynthesisContext(plant, spec)
        takai = build(ctx, "takai")
        loops = {"takai": compose(takai.automaton, plant)}
        if len(loops["takai"].states) > 60:
            continue
        try:
            others = [build(ctx, "variant1"), prune_deadlocks(takai)]
        except ExplosionGuardError:
            continue
        for sup in others:
            loops[sup.construction_tag] = compose(sup.automaton, plant)
        if any(len(loop.states) > 60 for loop in loops.values()):
            continue
        for other in others:
            for s1, s2 in ((takai, other), (other, takai)):
                a = loops[s1.construction_tag]
                b = loops[s2.construction_tag]
                expected = oracle_greatest_simulation(a, b, a.alphabet.events)
                below = oracle_loop_below(s1.automaton, s2.automaton, plant)
                rel = check_simulation(a, b, "full")
                assert (rel is not None) == below, seed
                if rel is not None:
                    assert rel.pairs == expected, seed
                assert more_permissive(s1.automaton, s2.automaton,
                                       plant) == below, seed
                compared += 1
                shrunk += len(expected) < len(a.states) * len(b.states)
    assert compared > 1000 and shrunk > 100


def test_quotient_verdicts_match_oracles_on_pool():
    # is_admissible, in_sp and more_permissive judge the loops of the
    # supervisors' bisimulation quotients; the oracles compose the unreduced
    # loops.  Thinning a build (every other transition) makes supervisors
    # that fail, so both answers of every verdict are exercised.
    compared, verdicts = 0, set()
    for seed in range(500):
        plant, spec, _ = uc_instance(seed)
        sup = build(SynthesisContext(plant, spec), "takai")
        takai = sup.automaton
        thinned = Automaton(takai.states, takai.alphabet,
                            frozenset(sorted(takai.transitions)[::2]),
                            takai.initial)
        sups = [takai, prune_deadlocks(sup).automaton, thinned]
        if any(len(compose(s, plant).states) > 60 for s in sups):
            continue
        for s in sups:
            ok, witness = is_admissible(s, plant)
            assert ok == oracle_admissible(s, plant), seed
            assert witness == oracle_admissibility_witness(s, plant), seed
            member = in_sp(s, plant, spec)
            assert member == oracle_in_sp(s, plant, spec), seed
            verdicts |= {("admissible", ok), ("in_sp", member)}
        for s1, s2 in itertools.permutations(sups, 2):
            below = more_permissive(s1, s2, plant)
            assert below == oracle_loop_below(s1, s2, plant), seed
            verdicts.add(("below", below))
        compared += 1
    assert compared > 400
    assert verdicts == {(name, answer)
                        for name in ("admissible", "in_sp", "below")
                        for answer in (True, False)}


# --- assembly helpers --------------------------------------------------------

def test_supervisor_from_pair_sets_interning():
    sup = supervisor_from_pair_sets(CHAIN_ALPHA, [W0], [(W0, "sigma", W1)])
    assert sup.payloads[render_pairs(W1)] == W1
    assert sup.construction_tag == "user"
    # an id that does not parse back names no pair of states
    for bad in (("", "z0"), ("x0,x1", "z0")):
        with pytest.raises(InputError, match="other than two state ids"):
            supervisor_from_pair_sets(CHAIN_ALPHA, [frozenset({bad})], [])


def test_payloads_from_ids():
    sup = build(chain_ctx())
    assert payloads_from_ids(sup.automaton) == sup.payloads
    assert payloads_from_ids(CHAIN_PLANT) is None


# --- randomized agreement with the oracles -----------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_builds_agree_with_oracles(seed):
    plant, spec, _ = random_uc_pair(seed, plant_states=3, spec_states=3,
                                    n_events=2, density=0.3)
    ctx = SynthesisContext(plant, spec, Guards())
    try:
        sup = build(ctx)
    except ExplosionGuardError:
        # a handful of dense draws legitimately trip the cover cap; the
        # property quantifies over builds that complete
        assume(False)
    assert oracle_admissible(sup.automaton, plant) == \
        is_admissible(sup.automaton, plant)[0]
    assert oracle_in_sp(sup.automaton, plant, spec) == \
        in_sp(sup.automaton, plant, spec)
    pruned = prune_deadlocks(sup)
    assert oracle_loop_below(pruned.automaton, sup.automaton, plant) == \
        more_permissive(pruned.automaton, sup.automaton, plant)
