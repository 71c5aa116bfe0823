"""Acceptance gate: the thirteen criteria, one test and one PASS line each.

The PASS lines are printed with capture suspended so they always land in the
piped output; a failing criterion shows up as the test failure line instead.
Shared pools and builds are module-scoped, so the whole gate makes one pass
over the data.  Everything here is deterministic: frozen seeds, sorted
iteration, no wall-clock dependence.
"""

import random

import pytest

from simsup import check_simulation, greatest_uc_fixpoint
from simsup.automata import Automaton, reach_via
from simsup.grcheck import check_saturated
from simsup.partial import build_partial
from simsup.randgen import random_automaton, random_pair
from simsup.simulation import Relation, f_step, is_simulation_relation, pi_g
from simsup.synthesis import (Guards, SynthesisContext, build, clause_a,
                              clause_b, in_sp, initial_power_states,
                              is_admissible, more_permissive, n_set_members,
                              prune_deadlocks)

from .fixtures import (CHAIN_PLANT, CHAIN_SPEC, CHAIN_W_UP, FORK_PLANT,
                       FORK_SPEC, FORK_S1, FORK_W_UP, W0, W1, W2, W3, W4, W5,
                       chain_sup_a, chain_sup_b, fork_sup_a1)
from .oracles import (all_supervisors, canonical_form, oracle_check_simulation,
                      oracle_greatest_simulation, oracle_initial_power_states,
                      oracle_is_uc_simulation, oracle_matchable,
                      oracle_variant2_targets)
from .pool import draw_params, uc_instance

POOL_N = 500


@pytest.fixture
def report(capsys):
    # default capture is fd-level, which swallows even sys.__stdout__ writes;
    # capsys.disabled() suspends it for the one PASS line
    def emit(n: int, text: str) -> None:
        with capsys.disabled():
            print("criterion %02d PASS - %s" % (n, text), flush=True)
    return emit


@pytest.fixture(scope="module")
def pool():
    entries = []
    for seed in range(POOL_N):
        plant, spec, params = uc_instance(seed)
        entries.append({"seed": seed, "plant": plant, "spec": spec,
                        "params": params,
                        "ctx": SynthesisContext(plant, spec, Guards())})
    return entries


@pytest.fixture(scope="module")
def built(pool):
    for e in pool:
        e["takai"] = build(e["ctx"])
        e["variant1"] = build(e["ctx"], "variant1")
        e["pruned"] = prune_deadlocks(e["takai"])
    return pool


def exhaustive_scale(params) -> int:
    """Supervisor state bound for the exhaustive sweep, or 0 to skip.

    Full enumeration of 3-state supervisors over 2-event alphabets is out of
    the time budget, so 1-event instances get up to 3 states and 2-event
    instances up to 2; larger shapes are covered by the randomized spot
    checks.
    """
    if params["plant_states"] > 4 or params["spec_states"] > 4:
        return 0
    if params["n_events"] == 1:
        return 3
    if params["n_events"] == 2:
        return 2
    return 0


@pytest.fixture(scope="module")
def sp_candidates(built):
    """Per qualifying instance: every admissible <=bound-state supervisor in
    SP, deduplicated by closed-loop shape."""
    table = []
    for e in built:
        bound = exhaustive_scale(e["params"])
        if not bound:
            continue
        plant, spec = e["plant"], e["spec"]
        seen = set()
        members = []
        for n in range(1, bound + 1):
            for cand in all_supervisors(plant.alphabet, n):
                key = canonical_form(cand, plant)
                if key in seen:
                    continue
                seen.add(key)
                if in_sp(cand, plant, spec):
                    members.append(cand)
        table.append((e, members))
    return table


@pytest.fixture(scope="module")
def spot_checks(built):
    """Randomized larger instances: controllable subsupervisors of the takai
    build (provably in SP) plus random supervisors filtered by in_sp.

    Loop-vs-loop simulation is quadratic in product size, so instances whose
    takai build exceeds 40 states are skipped and the total is capped; the
    suite still demands at least 200 checks.
    """
    checks = []
    for e in built:
        if len(checks) >= 240:
            break
        if exhaustive_scale(e["params"]) or len(e["takai"].automaton.states) > 40:
            continue
        plant = e["plant"]
        sup = e["takai"].automaton
        rng = random.Random(100_000 + e["seed"])
        ctrl = sorted(t for t in sup.transitions
                      if t[1] in plant.alphabet.controllable)
        for _ in range(2):
            if ctrl:
                drop = set(rng.sample(ctrl, rng.randint(1, len(ctrl))))
                cand = Automaton(sup.states, plant.alphabet,
                                 sup.transitions - frozenset(drop),
                                 sup.initial)
            else:
                cand = sup
            checks.append((e, cand))
        rand = random_automaton(rng, rng.randint(2, 4), plant.alphabet,
                                density=rng.uniform(0.2, 0.6), prefix="y")
        if in_sp(rand, plant, e["spec"]):
            checks.append((e, rand))
    return checks


# --- worked-example criteria -------------------------------------------------

def test_criterion_01_chain_fixpoint(report):
    got = greatest_uc_fixpoint(CHAIN_PLANT, CHAIN_SPEC).pairs
    assert got == CHAIN_W_UP
    report(1, "chain fixture fixpoint matches the closed form (%d pairs)"
           % len(got))


def test_criterion_02_chain_n_sets(report):
    ctx = SynthesisContext(CHAIN_PLANT, CHAIN_SPEC, Guards())

    def n_set(w, ev):
        return set(ctx.power_states(n_set_members(w, ev, ctx)))

    assert n_set(W0, "sigma") == {W1}
    assert n_set(W1, "sigma") == {W2, W3, W4}
    assert n_set(W3, "c") == {W5}
    report(2, "N(W0,sigma)={W1}, N(W1,sigma)={W2,W3,W4}, N(W3,c)={W5}")


def test_criterion_03_chain_supervisor_verdicts(report):
    a, b = chain_sup_a(), chain_sup_b()
    rep_a = check_saturated(a, CHAIN_PLANT, CHAIN_SPEC)
    assert rep_a.verdict != "saturated"
    assert any(f.clause == "6-c" and f.witness == ("{(x1,z1)}", "sigma", W3)
               for f in rep_a.clause_failures)
    rep_b = check_saturated(b, CHAIN_PLANT, CHAIN_SPEC)
    assert rep_b.verdict == "saturated"
    assert in_sp(a.automaton, CHAIN_PLANT, CHAIN_SPEC)
    assert in_sp(b.automaton, CHAIN_PLANT, CHAIN_SPEC)
    assert not more_permissive(b.automaton, a.automaton, CHAIN_PLANT)
    report(3, "A unsaturated with (6-c) witness (W1,sigma,W3); B saturated; "
              "both in SP; B loop not below A loop")


def test_criterion_04_fork_supervisor_verdicts(report):
    assert greatest_uc_fixpoint(FORK_PLANT, FORK_SPEC).pairs == FORK_W_UP
    a1 = fork_sup_a1()
    rep = check_saturated(a1, FORK_PLANT, FORK_SPEC)
    assert rep.verdict != "saturated"
    assert [f.clause for f in rep.clause_failures] == ["sistate"]
    assert rep.clause_failures[0].witness == (frozenset({("x0", "z02")}),)
    assert not more_permissive(FORK_S1, a1.automaton, FORK_PLANT)
    report(4, "A1 fails (sistate) with witness {(x0,z02)}; "
              "S1 loop not below A1 loop")


# --- randomized suites -------------------------------------------------------

def test_criterion_05_builds_in_sp(built, report):
    failures = 0
    for e in built:
        for variant in ("takai", "variant1"):
            if not in_sp(e[variant].automaton, e["plant"], e["spec"]):
                failures += 1
    assert failures == 0
    report(5, "all variant builds on %d instances are in SP" % len(built))


def test_criterion_06_takai_is_maximal(built, sp_candidates, spot_checks,
                                        report):
    checked = 0
    for e, members in sp_candidates:
        for cand in members:
            assert more_permissive(cand, e["takai"].automaton, e["plant"]), \
                (e["seed"], sorted(cand.transitions))
            checked += 1
    assert len(spot_checks) >= 200
    for e, cand in spot_checks:
        assert in_sp(cand, e["plant"], e["spec"]), e["seed"]
        assert more_permissive(cand, e["takai"].automaton, e["plant"]), e["seed"]
    report(6, "%d exhaustively enumerated SP members on %d instances and %d "
              "spot checks all sit below the takai loop"
           % (checked, len(sp_candidates), len(spot_checks)))


def test_criterion_07_pruned_build_is_maximal_too(built, sp_candidates,
                                                  spot_checks, report):
    for e in built:
        if not in_sp(e["pruned"].automaton, e["plant"], e["spec"]):
            pytest.fail("pruned build leaves SP on seed %d" % e["seed"])
    for e, members in sp_candidates:
        for cand in members:
            assert more_permissive(cand, e["pruned"].automaton, e["plant"])
    for e, cand in spot_checks:
        assert more_permissive(cand, e["pruned"].automaton, e["plant"])
    report(7, "pruned takai builds pass the SP and maximality sweeps verbatim")


def test_criterion_08_takai_builds_saturated(built, report):
    for e in built:
        rep = check_saturated(e["takai"], e["plant"], e["spec"], e["ctx"])
        assert rep.verdict == "saturated", (e["seed"], rep.to_json())
    report(8, "check_saturated(takai) = saturated on all %d instances"
           % len(built))


def test_criterion_09_variant_relationships(built, report):
    # variant2 shares takai's initial states and gates and differs only in
    # its edge targets, so variant2 == takai is checked target set by target
    # set at every reachable (W, event) of the takai build
    for e in built:
        ctx, t, v1 = e["ctx"], e["takai"], e["variant1"]
        auto = t.automaton
        for sid, w in t.payloads.items():
            for ev in auto.alphabet.events:
                got = {t.payloads[tid] for tid in auto.succ.get((sid, ev), ())}
                if not (clause_a(w, ev, ctx) and clause_b(w, ev, ctx)):
                    assert not got, (e["seed"], sid, ev)
                    continue
                want = oracle_variant2_targets(
                    ctx.power_states(n_set_members(w, ev, ctx)))
                assert len(want) == len(got) and set(want) == got, \
                    (e["seed"], sid, ev)
        assert auto.transitions <= v1.automaton.transitions, e["seed"]
    report(9, "variant2 == takai and variant1 edges are a superset, "
              "on all %d instances" % len(built))


def test_criterion_10_fixpoint_characterization_and_simplification(
        built, report):
    # part 1: Phi = f_step(Phi) iff Phi is a uc-simulation relation (step
    # condition only), on 500 random relations per instance
    part1 = built[:20] + [
        {"plant": CHAIN_PLANT, "spec": CHAIN_SPEC},
        {"plant": FORK_PLANT, "spec": FORK_SPEC}]
    relations = 0
    for e in part1:
        plant, spec = e["plant"], e["spec"]
        universe = sorted((x, z) for x in plant.states for z in spec.states)
        rng = random.Random(31_337 + relations)
        for _ in range(500):
            phi = frozenset(rng.sample(universe, rng.randint(0, len(universe))))
            rel = Relation(phi)
            fixed = f_step(plant, spec, rel).pairs == phi
            verified, _ = is_simulation_relation(rel, plant, spec, "uc",
                                                 check_initial=False)
            assert fixed == verified
            assert verified == oracle_is_uc_simulation(phi, plant, spec)
            relations += 1
    # part 2: with the plant uc-similar to the spec, the uncontrollable
    # escape in clause_b is never load-bearing at reachable (W, sigma)
    pairs_checked = 0
    for e in built:
        ctx = e["ctx"]
        for w in e["takai"].payloads.values():
            for ev in ctx.plant.alphabet.events:
                assert clause_b(w, ev, ctx) == oracle_matchable(
                    w, ev, e["plant"], e["spec"], ctx.w_up), (e["seed"], ev)
                pairs_checked += 1
    report(10, "fixpoint iff uc-verifier on %d random relations; clause_b "
               "equals its simplification at %d reachable (W,event) pairs"
           % (relations, pairs_checked))


def test_criterion_11_projection_tracks_plant_reach(built, report):
    checked = 0
    for e in built[:100]:
        plant = e["plant"]
        for tag in ("takai", "variant1", "pruned"):
            sup = e[tag]
            auto = sup.automaton
            frontier = {(sid, ()) for sid in auto.initial}
            seen = set(frontier)
            for _ in range(8):
                step = set()
                for (sid, tr) in frontier:
                    for ev in auto.alphabet.events:
                        for tgt in auto.succ.get((sid, ev), ()):
                            item = (tgt, tr + (ev,))
                            if item not in seen:
                                seen.add(item)
                                step.add(item)
                frontier = step
            for (sid, tr) in seen:
                assert pi_g(sup.payloads[sid]) == reach_via(plant, tr), \
                    (e["seed"], tag, sid, tr)
                checked += 1
    report(11, "pi_G(W) = Reach(trace) on %d (state, trace) pairs of depth "
               "<= 8 across takai, variant1 and pruned builds" % checked)


def test_criterion_12_partial_observation_collapse(built, report):
    for e in built:
        plant, spec = e["plant"], e["spec"]
        assert not plant.alphabet.unobservable  # pool is fully observable
        # both constructions start from initial_power_states; pin its choice
        # functions to the size-|X0| covering-subset definition
        w_up = oracle_greatest_simulation(
            plant, spec, sorted(plant.alphabet.uncontrollable))
        assert set(initial_power_states(e["ctx"])) == \
            oracle_initial_power_states(plant, spec, w_up), e["seed"]
        par = build_partial(e["plant"], e["spec"], Guards())
        takai = e["takai"].automaton
        mapping = {sid: "<%s|{}|%s>" % (sid, sid) for sid in takai.states}
        assert set(par.automaton.states) == set(mapping.values()), e["seed"]
        assert par.automaton.initial == \
            frozenset(mapping[s] for s in takai.initial), e["seed"]
        assert set(par.automaton.transitions) == \
            {(mapping[a], ev, mapping[b])
             for (a, ev, b) in takai.transitions}, e["seed"]
    report(12, "with every event observable, the triple construction is "
               "isomorphic to takai via W -> (W,{},W) on all %d instances"
           % len(built))


def test_criterion_13_oracle_equivalence(report):
    disagreements = 0
    instances = 0
    for i in range(1_000):
        rng = random.Random(900_000 + i)
        plant, spec = random_pair(
            900_000 + i,
            plant_states=rng.randint(2, 6), spec_states=rng.randint(2, 6),
            n_events=rng.randint(1, 3), density=rng.uniform(0.1, 0.5),
            controllable_ratio=rng.uniform(0.0, 1.0),
            n_initial=rng.randint(1, 2))
        instances += 1
        for mode in ("uc", "full"):
            mine = check_simulation(plant, spec, mode) is not None
            theirs = oracle_check_simulation(plant, spec, mode)
            if mine != theirs:
                disagreements += 1
        events = sorted(plant.alphabet.uncontrollable)
        if greatest_uc_fixpoint(plant, spec).pairs != frozenset(
                oracle_greatest_simulation(plant, spec, events)):
            disagreements += 1
    assert disagreements == 0
    report(13, "check_simulation agrees with the naive refinement oracle on "
               "%d instances in both modes, fixpoints included" % instances)


# --- supporting sanity: the pool really exercises the stated scales ----------

def test_pool_covers_the_stated_scales():
    sizes = {(p["plant_states"], p["spec_states"])
             for p in (draw_params(s) for s in range(POOL_N))}
    assert (6, 6) in sizes and (2, 2) in sizes
    inits = {draw_params(s)["n_initial"] for s in range(POOL_N)}
    assert inits == {1, 2}


def test_pool_initial_states_nontrivial(built):
    # at least some instances have several initial PowerStates, so the
    # sistate clause is exercised beyond singletons
    assert any(len(initial_power_states(e["ctx"])) > 1 for e in built)
    assert all(is_admissible(e["takai"].automaton, e["plant"])[0]
               for e in built[:50])
