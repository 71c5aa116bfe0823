"""Powerset synthesis: clauses, covers, builds, pruning, SP membership."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simsup import (ExplosionGuardError, InputError,
                    SynthesisPreconditionError, check_saturated,
                    check_simulation, compose)
from simsup.automata import Automaton
from simsup.randgen import random_pair, random_uc_pair
from simsup.synthesis import (Guards, SynthesisContext, build, clause_a,
                              clause_b, cover_family, in_n_set, in_sp,
                              initial_power_states, is_admissible,
                              minimal_covers, more_permissive,
                              n_set_members, parse_pairs, payloads_from_ids,
                              prune_deadlocks, render_pairs,
                              supervisor_from_pair_sets)

from .fixtures import (CHAIN_ALPHA, CHAIN_PLANT, CHAIN_SPEC, FORK_PLANT,
                       FORK_SPEC, FORK_S1, W0, W1, W2, W3, W4, W5,
                       chain_sup_a, chain_sup_b, fork_sup_a1)
from .oracles import (oracle_admissible, oracle_in_sp, oracle_loop_below,
                      oracle_matchable, oracle_minimal, oracle_n_set,
                      oracle_variant2_targets)


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
    with pytest.raises(ExplosionGuardError):
        list(n_set_members(W1, "sigma", chain_ctx(), cap=2))


def test_n_set_members_yield_order():
    # each candidate is left out before it is taken in: covers come in
    # lexicographic order of their membership vectors over candidate_pairs
    plant, spec = random_pair(4, plant_states=3, spec_states=3, n_events=2,
                              density=0.4)
    ctx = SynthesisContext(plant, spec, Guards())
    pairs = sorted(ctx.w_up)
    seen = 0
    for i in range(0, len(pairs) - 1, 2):
        w = frozenset(pairs[i:i + 2])
        for ev in plant.alphabet.events:
            cands = cover_family(w, ev, ctx).candidate_pairs
            got = list(n_set_members(w, ev, ctx))
            assert got == sorted(got, key=lambda s: [c in s for c in cands])
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
    # a small sample of subsets of the fixpoint as source PowerStates
    sample = sorted(w_up)[:3]
    for k in (1, 2):
        for i in range(len(sample) - k + 1):
            w = frozenset(sample[i:i + k])
            for ev in plant.alphabet.events:
                mine = set(n_set_members(w, ev, ctx))
                brute = set(oracle_n_set(w, ev, plant, spec, w_up))
                # the oracle keeps covers made of candidate pairs only, and
                # so does the enumerator; compare them outright
                assert mine == brute
                assert set(minimal_covers(w, ev, ctx)) == set(
                    oracle_minimal(list(brute)))


# --- initial states ----------------------------------------------------------

def test_initial_power_states_chain():
    assert initial_power_states(chain_ctx()) == [W0]


def test_initial_power_states_fork():
    got = initial_power_states(fork_ctx())
    assert got == [frozenset({("x0", "z01")}), frozenset({("x0", "z02")})]


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
                assert targets == set(
                    oracle_variant2_targets(list(n_set_members(w, ev, ctx))))
                edges += len(targets)
    assert edges == len(auto.transitions)


def test_build_variant_validation():
    for variant in ("variant9", "variant2"):
        with pytest.raises(InputError):
            build(chain_ctx(), variant)


def test_build_state_guard():
    with pytest.raises(ExplosionGuardError):
        build(chain_ctx(max_states=2))


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


# --- assembly helpers --------------------------------------------------------

def test_supervisor_from_pair_sets_interning():
    sup = supervisor_from_pair_sets(CHAIN_ALPHA, [W0], [(W0, "sigma", W1)])
    assert sup.payloads[render_pairs(W1)] == W1
    assert sup.construction_tag == "user"


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
