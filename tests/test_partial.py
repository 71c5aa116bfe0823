"""Partial observation: masks, closures, triple validation, construction."""

import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simsup import (Alphabet, Automaton, ExplosionGuardError, InputError,
                    automaton_digest, partial, synthesis)
from simsup.partial import (TripleState, build_partial, gamma_candidates,
                            is_admissible_partial, minimal_u, sigma_y,
                            validate_triple)
from simsup.randgen import random_pair, random_uc_pair
from simsup.synthesis import (Guards, SynthesisContext, build, clause_a,
                              in_sp, initial_power_states, parse_pairs,
                              render_pairs)

from .fixtures import CHAIN_PLANT, CHAIN_SPEC, W0, W1
from .oracles import (all_supervisors, oracle_closable, oracle_explore,
                      oracle_in_sp, oracle_loop_below, oracle_matchable,
                      oracle_minimal_u_by_branching, oracle_minimal_u_unpruned,
                      oracle_unanswered)
from .pool import uc_instance

# chain fixture with sigma unobservable
UO_ALPHA = Alphabet.build(["sigma", "c"], controllable=["c"], observable=["c"])
UO_PLANT = Automaton.build(
    UO_ALPHA,
    [("x0", "sigma", "x1"), ("x1", "sigma", "x2"), ("x2", "c", "x3")],
    ["x0"])
UO_SPEC = Automaton.build(
    UO_ALPHA,
    [("z0", "sigma", "z1"), ("z1", "sigma", "z2"), ("z1", "sigma", "z3"),
     ("z3", "c", "z4")],
    ["z0"])


def uo_ctx():
    return SynthesisContext(UO_PLANT, UO_SPEC, Guards())


# --- masks -------------------------------------------------------------------

def test_gamma_candidates_all_observable():
    assert gamma_candidates(CHAIN_PLANT.alphabet) == [frozenset()]


def test_gamma_candidates_forced_uncontrollable():
    # sigma is uncontrollable and unobservable: every mask must contain it
    assert gamma_candidates(UO_ALPHA) == [frozenset({"sigma"})]


def test_gamma_candidates_free_controllable():
    alpha = Alphabet.build(["u", "k"], controllable=["k"], observable=[])
    # u is forced; k is optional; order follows the sorted event tuples
    assert gamma_candidates(alpha) == [frozenset({"k", "u"}),
                                       frozenset({"u"})]


# --- closures ----------------------------------------------------------------

def closures(w1, gamma, ctx):
    """minimal_u from the pair mask of the PowerState w1, its closures made
    PowerStates in the order it returns them, as the string oracles give
    theirs."""
    return [ctx.power_state(m) for m in minimal_u(ctx.mask(w1), gamma, ctx)]


def test_minimal_u_identity_under_empty_mask():
    ctx = SynthesisContext(CHAIN_PLANT, CHAIN_SPEC, Guards())
    core = ctx.mask(W0)
    assert minimal_u(core, frozenset(), ctx) == [core]


def test_minimal_u_chain_closures():
    got = closures(W0, frozenset({"sigma"}), uo_ctx())
    assert got == [
        frozenset({("x0", "z0"), ("x1", "z1"), ("x2", "z2")}),
        frozenset({("x0", "z0"), ("x1", "z1"), ("x2", "z3")}),
    ]


def test_minimal_u_requires_fixpoint_subset():
    # a core is a pair mask, and a PowerState becomes one only inside the
    # fixpoint
    with pytest.raises(InputError, match=re.escape(
            "PowerState pair (x0,z4) outside the fixpoint")):
        closures(frozenset({("x0", "z4")}), frozenset(), uo_ctx())


def test_minimal_u_cap():
    ctx = SynthesisContext(UO_PLANT, UO_SPEC, Guards(max_covers=1))
    with pytest.raises(ExplosionGuardError):
        minimal_u(ctx.mask(W0), frozenset({"sigma"}), ctx)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_minimal_u_matches_brute_force(seed):
    from .oracles import oracle_minimal_u
    plant, spec = random_pair(seed, plant_states=3, spec_states=3, n_events=2,
                              density=0.35, observable_ratio=0.5)
    ctx = SynthesisContext(plant, spec, Guards())
    assume(len(ctx.w_up) <= 7)  # oracle scans 2^|w_up| subsets
    for pair in sorted(ctx.w_up)[:4]:
        w1 = frozenset({pair})
        for gamma in gamma_candidates(plant.alphabet):
            mine = set(closures(w1, gamma, ctx))
            brute = set(oracle_minimal_u(w1, gamma, plant, spec, ctx.w_up))
            assert mine == brute


def partial_draw(seed, nx, nz):
    """A partial-observation-shaped draw: 3 events, 60 % observable,
    density 1.2 per state."""
    plant, spec, _ = random_uc_pair(seed, plant_states=nx, spec_states=nz,
                                    n_events=3, density=1.2 / nx,
                                    spec_density=1.2 / nz, observable_ratio=0.6)
    return plant, spec


def _closures_or_guard(fn, w1, gamma, ctx):
    try:
        return fn(w1, gamma, ctx)
    except ExplosionGuardError as exc:
        return ("guard", str(exc))


@pytest.mark.parametrize("seed,nx,nz", [
    (13, 9, 9), (29, 8, 8), (43, 7, 9), (59, 6, 6),
    (54, 9, 6),  # trips the closure cap
    (55, 10, 7),  # trips the cover cap
    (41, 6, 9)])  # deep searches, hundreds of masks each
def test_minimal_u_matches_branching_oracle_on_builds(monkeypatch, seed, nx, nz):
    # every (w1, gamma) the partial build reaches, guard trips included; draw
    # 41's build runs to 1000 states, 840 calls, not to its 3.5 s default
    plant, spec = partial_draw(seed, nx, nz)
    guards = Guards(max_states=1000) if seed == 41 else Guards()
    assert plant.alphabet.unobservable
    real = partial.minimal_u
    outcomes = []

    def checked(core, gamma, ctx):
        got = _closures_or_guard(real, core, gamma, ctx)
        want = _closures_or_guard(oracle_minimal_u_by_branching,
                                  ctx.power_state(core), gamma, ctx)
        outcomes.append(got)
        if isinstance(got, tuple):
            assert got == want
            raise ExplosionGuardError(got[1])
        assert [ctx.power_state(m) for m in got] == want
        return got

    monkeypatch.setattr(partial, "minimal_u", checked)
    try:
        build_partial(plant, spec, guards)
    except ExplosionGuardError:
        pass
    assert outcomes


def _least_finishing_cap(w1, gamma, plant, spec, limit):
    """The least closure cap at which the oracle's search from w1 finishes,
    or None when it needs more than limit."""
    def finishes(cap):
        ctx = SynthesisContext(plant, spec, Guards(max_covers=cap))
        return not isinstance(_closures_or_guard(
            oracle_minimal_u_by_branching, w1, gamma, ctx), tuple)

    if not finishes(limit):
        return None
    lo, hi = 0, limit  # the search trips at lo and finishes at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if finishes(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("seed,nx,nz", [(29, 8, 8), (59, 6, 6)])
def test_closure_cap_trips_exactly_past_the_reachable_masks(seed, nx, nz):
    # the cap trips iff the distinct masks reachable from W1 outnumber it,
    # whatever order the search visits them in: minimal_u finishes at the
    # oracle's least finishing cap and trips one below it
    plant, spec = partial_draw(seed, nx, nz)
    pairs = sorted(SynthesisContext(plant, spec).w_up)
    needs = []
    for gamma in gamma_candidates(plant.alphabet):
        for pair in pairs:
            w1 = frozenset({pair})
            need = _least_finishing_cap(w1, gamma, plant, spec, 128)
            if need is None or need < 2:
                continue
            needs.append(need)
            ctx = SynthesisContext(plant, spec, Guards(max_covers=need))
            assert closures(w1, gamma, ctx) == \
                oracle_minimal_u_by_branching(w1, gamma, ctx)
            ctx = SynthesisContext(plant, spec, Guards(max_covers=need - 1))
            with pytest.raises(ExplosionGuardError, match=re.escape(
                    "closure enumeration cap %d exceeded for W1=%s gamma={%s}"
                    % (need - 1, render_pairs(w1), ",".join(sorted(gamma))))):
                closures(w1, gamma, ctx)
    assert len(needs) >= 20 and max(needs) >= 40


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=64),
       st.integers(min_value=0, max_value=63))
def test_minimal_u_guard_trip_points(seed, cap, pick):
    # a cap of at most 64 bounds every search to 65 explored closures.  The
    # search over closable pairs reaches a subset of the masks the search
    # over every fixpoint pair reaches: where the latter finishes, both
    # return the same closures, and where the former trips, so does the
    # latter, with the same message
    plant, spec = partial_draw(seed, 6 + seed % 3, 6 + seed // 3 % 3)
    assume(plant.alphabet.unobservable)
    ctx = SynthesisContext(plant, spec, Guards(max_covers=cap))
    pairs = sorted(ctx.w_up)
    w1 = frozenset({pairs[pick % len(pairs)], pairs[pick * 7 % len(pairs)]})
    for gamma in gamma_candidates(plant.alphabet):
        got = _closures_or_guard(closures, w1, gamma, ctx)
        assert got == _closures_or_guard(oracle_minimal_u_by_branching,
                                         w1, gamma, ctx)
        old = _closures_or_guard(oracle_minimal_u_unpruned, w1, gamma, ctx)
        if isinstance(got, tuple) or not isinstance(old, tuple):
            assert got == old


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=3, max_value=5),
       st.integers(min_value=3, max_value=5))
def test_closable_is_the_union_of_the_closed_sets(seed, nx, nz):
    plant, spec = partial_draw(seed, nx, nz)
    assume(plant.alphabet.unobservable)
    ctx = SynthesisContext(plant, spec, Guards(max_covers=1))
    pairs = sorted(ctx.w_up)
    assume(len(pairs) <= 12)  # 2^|w_up| subsets per gamma
    for gamma in gamma_candidates(plant.alphabet):
        unanswered = oracle_unanswered(gamma, plant, spec)
        union = set()
        for k in range(len(pairs) + 1):
            for combo in itertools.combinations(pairs, k):
                if not unanswered(frozenset(combo)):
                    union.update(combo)
        assert ctx.power_state(ctx.closable(gamma)) == union
        # a core holding a pair outside every closed set has no closure, and
        # the search says so before it explores a second mask
        for pair in sorted(set(pairs) - union):
            assert closures(frozenset({pair}), gamma, ctx) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=3, max_value=5),
       st.integers(min_value=3, max_value=5))
def test_obligation_bitsets_match_the_unanswered_oracle(seed, nx, nz):
    # the closure search knows a mask W's unmet obligations as the OR of
    # owned over W less the OR of answered over W; the pairs owning one are
    # the pairs of W that the string oracle finds unanswered
    plant, spec = partial_draw(seed, nx, nz)
    assume(plant.alphabet.unobservable)
    ctx = SynthesisContext(plant, spec)
    pairs = ctx.fixpoint_pairs
    for gamma in gamma_candidates(plant.alphabet):
        unanswered = oracle_unanswered(gamma, plant, spec)
        _, owned, answered = ctx.closure_table(gamma)
        for k in range(4):
            for combo in itertools.combinations(range(len(pairs)), k):
                ans = 0
                for i in combo:
                    ans |= answered[i]
                assert {pairs[i] for i in combo if owned[i] & ~ans} == \
                    unanswered(frozenset(pairs[i] for i in combo))
        assert ctx.power_state(ctx.closable(gamma)) == \
            oracle_closable(gamma, plant, spec, ctx.w_up)


def test_closable_pairs_bound_the_search_from_a_workload_core():
    # the benchmark's partial draw 39 (10 x 10 states, 92 fixpoint pairs, 72
    # of them closable under {e1,e2}): from this core the search over every
    # fixpoint pair walks past 4096 masks, the one over closable pairs
    # finds 10 closures
    plant, spec = partial_draw(39, 10, 10)
    ctx = SynthesisContext(plant, spec)
    w1, gamma = frozenset({("x3", "z9")}), frozenset({"e1", "e2"})
    with pytest.raises(ExplosionGuardError, match=re.escape(
            "closure enumeration cap 4096 exceeded for W1={(x3,z9)}")):
        oracle_minimal_u_unpruned(w1, gamma, ctx)
    got = closures(w1, gamma, ctx)
    assert len(got) == 10
    assert got == oracle_minimal_u_by_branching(w1, gamma, ctx)


# --- triple validation -------------------------------------------------------

def test_validate_triple_accepts_built_states():
    # the UO fixture, and three draws of test_build_partial_outputs_pinned
    # whose closure searches branch
    pairs = [(UO_PLANT, UO_SPEC)] + [
        partial_draw(*draw) for draw in ((13, 9, 9), (29, 8, 8), (43, 7, 9))]
    for plant, spec in pairs:
        sup = build_partial(plant, spec, Guards())
        ctx = SynthesisContext(plant, spec)
        for y in sup.payloads.values():
            assert validate_triple(y, ctx) == []


def test_validate_triple_names_violations():
    ctx = uo_ctx()
    empty = TripleState(frozenset(), frozenset({"sigma"}), frozenset())
    assert "w1-empty" in validate_triple(empty, ctx)
    bad_gamma = TripleState(W0, frozenset(), W0)
    assert "gamma-not-admissible" in validate_triple(bad_gamma, ctx)
    outside = TripleState(frozenset({("x0", "z4")}), frozenset({"sigma"}),
                          frozenset({("x0", "z4")}))
    assert "outside-fixpoint" in validate_triple(outside, ctx)
    not_closed = TripleState(W0, frozenset({"sigma"}), W0)
    assert "w2-not-minimal-closure" in validate_triple(not_closed, ctx)


def test_validate_triple_masked_controllable():
    alpha = Alphabet.build(["u", "k"], controllable=["k"], observable=[])
    plant = Automaton.build(alpha, [("x0", "u", "x0")], ["x0"])
    spec = Automaton.build(alpha, [("z0", "u", "z0")], ["z0"])
    ctx = SynthesisContext(plant, spec, Guards())
    w = frozenset({("x0", "z0")})
    # mask includes k, but no pair of w2 enables k in the plant
    y = TripleState(w, frozenset({"u", "k"}), w)
    assert "masked-controllable-disabled" in validate_triple(y, ctx)


def test_triple_id_shape():
    y = TripleState(W0, frozenset({"sigma"}), W1)
    assert y.tid == "<%s|{sigma}|%s>" % (render_pairs(W0), render_pairs(W1))


# --- sigma_y -----------------------------------------------------------------

def test_sigma_y_excludes_unmatchable_controllables():
    ctx = uo_ctx()
    y_c2 = TripleState(
        W0, frozenset({"sigma"}),
        frozenset({("x0", "z0"), ("x1", "z1"), ("x2", "z2")}))
    # z2 cannot answer c, so c is not offered
    assert sigma_y(y_c2, ctx) == ()
    y_c3 = TripleState(
        W0, frozenset({"sigma"}),
        frozenset({("x0", "z0"), ("x1", "z1"), ("x2", "z3")}))
    assert sigma_y(y_c3, ctx) == ("c",)


@pytest.mark.parametrize("seed,nx,nz", [(7, 7, 6), (29, 8, 8), (31, 8, 6)])
def test_sigma_y_is_the_matching_test_on_built_triples(seed, nx, nz):
    # every w2 a build makes lies inside the fixpoint, where clause_b's
    # uncontrollable escape never decides: sigma_y offers exactly the
    # observable events that clause_a and the string matching oracle pass
    plant, spec = partial_draw(seed, nx, nz)
    ctx = SynthesisContext(plant, spec, Guards())
    alphabet = plant.alphabet
    triples = build_partial(plant, spec, Guards()).payloads.values()
    for y in triples:
        assert sigma_y(y, ctx) == tuple(
            ev for ev in alphabet.events
            if ev in alphabet.observable and clause_a(y.w2, ev, ctx)
            and oracle_matchable(y.w2, ev, plant, spec, ctx.w_up))
    assert any(sigma_y(y, ctx) for y in triples)


# --- construction ------------------------------------------------------------

def test_full_observation_collapse():
    takai = build(SynthesisContext(CHAIN_PLANT, CHAIN_SPEC, Guards()))
    par = build_partial(CHAIN_PLANT, CHAIN_SPEC, Guards())
    mapping = {sid: "<%s|{}|%s>" % (sid, sid) for sid in takai.automaton.states}
    assert set(par.automaton.states) == set(mapping.values())
    assert {(mapping[a], ev, mapping[b])
            for (a, ev, b) in takai.automaton.transitions} == \
        set(par.automaton.transitions)
    assert par.notes == ()


def test_unobservable_chain_build():
    sup = build_partial(UO_PLANT, UO_SPEC, Guards())
    a = sup.automaton
    assert len(a.initial) == 2
    # masked events self-loop everywhere
    for sid, y in sup.payloads.items():
        for ev in y.gamma_uo:
            assert a.succ.get((sid, ev)) == (sid,)
    assert sup.construction_tag == "partial"
    assert sup.notes  # policy note present when something is unobservable
    ok, _ = is_admissible_partial(a, UO_PLANT)
    assert ok
    assert in_sp(a, UO_PLANT, UO_SPEC)


def test_initial_cores_complete_under_the_minimal_mask():
    # build_partial needs a completion of every initial core: the core lies
    # in the uc-fixpoint, which is closed under the uncontrollable-
    # unobservable events of the minimal mask, and that mask has no
    # controllable event to disable.  Checked on the acceptance pool and on
    # the 48 first partial-shaped draws with an unobservable event, sized
    # as the benchmark's partial workload
    draws = [uc_instance(seed)[:2] for seed in range(500)]
    seed = 0
    while len(draws) < 500 + 48:
        rng = random.Random(seed * 7919 + 31)
        plant, spec = partial_draw(seed, rng.randint(6, 10), rng.randint(6, 10))
        if plant.alphabet.unobservable:
            draws.append((plant, spec))
        seed += 1
    cores = 0
    for plant, spec in draws:
        # the default cap cuts one of these searches short, and a build
        # then trips the closure guard before any completion can be missing
        ctx = SynthesisContext(plant, spec, Guards(max_covers=1 << 16))
        alpha = plant.alphabet
        gamma = alpha.unobservable & alpha.uncontrollable
        assert gamma in gamma_candidates(alpha)
        for core in initial_power_states(ctx):
            assert partial._completions(
                ctx.mask(core), partial._gamma_gates([gamma], ctx), ctx)
            cores += 1
    assert cores > len(draws)


def test_build_partial_completes_each_core_once(monkeypatch):
    plant, spec = partial_draw(43, 7, 9)
    real = partial.minimal_u
    calls = Counter()

    def counted(core, gamma, ctx):
        calls[core, gamma] += 1
        return real(core, gamma, ctx)

    monkeypatch.setattr(partial, "minimal_u", counted)
    build_partial(plant, spec, Guards())
    assert len(calls) > 1000
    assert set(calls.values()) == {1}


# .aut sha256 of the partial builds, and a guard message, as computed by the
# string-pair closure search with a completion per cover step
@pytest.mark.parametrize("seed,nx,nz,expected", [
    (1, 8, 10, "8869fe90af8e318388243afbd7e5c3b32b2d00b00bcdb691e120f5f98e272935"),
    (7, 7, 6, "52b5fe907b5d5231f5f18a2ebfa1b5b8c7bf0e14dabf8e15def3c0f6e6d8d446"),
    (13, 9, 9, "62e2cb737ad120b8d391df6d0eed46e66eb2bf53bd2a04f9ce3bab22f3facef4"),
    (29, 8, 8, "6ec3496b2157253bd2e36cee6bdeb745c55689bce0c09b45427d9c5fb8625c1f"),
    (31, 8, 6, "d38c90c2b11106f2f4cc4c860b862011ab8622d517d9442fe39226eb851d183d"),
    (43, 7, 9, "b82210356bca8f23ebc62fa523d985294f67b8cd849ef403114d7da70da4da40"),
    (54, 9, 6, "closure enumeration cap 4096 exceeded for "
               "W1={(x0,z2),(x6,z2),(x8,z2)} gamma={e0}")])
def test_build_partial_outputs_pinned(seed, nx, nz, expected):
    plant, spec = partial_draw(seed, nx, nz)
    try:
        got = automaton_digest(build_partial(plant, spec, Guards()).automaton)
    except ExplosionGuardError as exc:
        got = str(exc)
    assert got == expected


@pytest.mark.parametrize("seed,nx,nz", [(13, 9, 9), (29, 8, 8), (43, 7, 9)])
def test_build_partial_matches_the_per_target_walk(monkeypatch, seed, nx, nz):
    # the build steps a minimal-covers tuple met again by one bundle; walked
    # target by target, every cap gives the same supervisor or message
    plant, spec = partial_draw(seed, nx, nz)
    n = len(build_partial(plant, spec, Guards()).automaton.states)
    caps = sorted({*range(1, 25), *range(25, n, max(1, n // 20)),
                   n - 1, n, n + 1})

    def outcomes():
        out = []
        for cap in caps:
            try:
                out.append(build_partial(plant, spec, Guards(max_states=cap)))
            except ExplosionGuardError as exc:
                out.append(str(exc))
        return out

    got = outcomes()
    monkeypatch.setattr(partial, "_explore", oracle_explore)
    assert got == outcomes()
    assert any(isinstance(o, str) for o in got)
    assert not isinstance(got[-1], str)


# the memo sits behind the hook: the build calls minimal_covers at every
# observable step it takes, and minimal_u once per core and gamma
@pytest.mark.parametrize("seed,nx,nz,covers_calls,u_calls", [
    (29, 8, 8, 66, 34), (43, 7, 9, 724, 3100)])
def test_build_partial_hook_call_counts(monkeypatch, seed, nx, nz,
                                        covers_calls, u_calls):
    calls = Counter()
    for name in ("minimal_covers", "minimal_u"):
        def counted(*args, real=getattr(partial, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(partial, name, counted)
    build_partial(*partial_draw(seed, nx, nz), Guards())
    assert calls == {"minimal_covers": covers_calls, "minimal_u": u_calls}


def test_build_partial_state_cap_trip_point():
    assert len(build_partial(UO_PLANT, UO_SPEC,
                             Guards(max_states=3)).automaton.states) == 3
    with pytest.raises(ExplosionGuardError) as exc:
        build_partial(UO_PLANT, UO_SPEC, Guards(max_states=2))
    assert str(exc.value) == ("supervisor state cap 2 exceeded when reaching "
                              "<{(x3,z4)}|{sigma}|{(x3,z4)}>")


def test_a_state_cap_trip_renders_only_initial_and_tripping_ids(monkeypatch):
    # the builds walk keys and name the states they keep once the walk is
    # over: a build cut by the state cap renders a pair set only for the one
    # state it trips at and, since the partial build orders its initial
    # triples by id, for the initial triples; each distinct pair set once
    rendered = Counter()

    def counted(pairs):
        rendered[frozenset(pairs)] += 1
        return render_pairs(pairs)

    monkeypatch.setattr(synthesis, "render_pairs", counted)
    monkeypatch.setattr(partial, "render_pairs", counted)

    plant, spec, _ = random_uc_pair(12, plant_states=7, spec_states=6,
                                    n_events=3, density=1.2 / 7,
                                    spec_density=1.2 / 6)
    with pytest.raises(ExplosionGuardError) as exc:
        build(SynthesisContext(plant, spec, Guards(max_states=2000)))
    tripping = str(exc.value).rpartition(" ")[2]
    assert rendered == {parse_pairs(tripping): 1}

    rendered.clear()
    plant, spec = partial_draw(43, 7, 9)
    with pytest.raises(ExplosionGuardError) as exc:
        build_partial(plant, spec, Guards(max_states=200))
    w1, _, w2 = str(exc.value).rpartition(" ")[2][1:-1].split("|")
    ctx = SynthesisContext(plant, spec, Guards())
    gammas = gamma_candidates(plant.alphabet)
    initial = set()
    for w01 in initial_power_states(ctx):
        initial.add(w01)
        initial.update(ctx.power_state(u) for _, u in
                       partial._completions(
                           ctx.mask(w01), partial._gamma_gates(gammas, ctx),
                           ctx))
    assert len(initial) > 1
    assert set(rendered) == initial | {parse_pairs(w1), parse_pairs(w2)}
    assert set(rendered.values()) == {1}


def test_admissible_partial_flags_disabled_uncontrollables():
    # y0 stops at once, while the plant can take the uncontrollable sigma
    s = Automaton.build(UO_ALPHA, [], ["y0"])
    ok, witness = is_admissible_partial(s, UO_PLANT)
    assert not ok
    assert witness == (("y0", "x0"), "sigma")


def test_admissible_partial_flags_moving_unobservables():
    # y0 -sigma-> y1 changes supervisor state on an unobservable event
    s = Automaton.build(
        UO_ALPHA, [("y0", "sigma", "y1"), ("y1", "sigma", "y1")], ["y0"])
    ok, witness = is_admissible_partial(s, UO_PLANT)
    assert not ok
    assert witness == (("y0", "x0"), "sigma", "y1")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_partial_builds_land_in_sp(seed):
    plant, spec, _ = random_uc_pair(seed, plant_states=3, spec_states=3,
                                    n_events=2, density=0.3,
                                    observable_ratio=0.5)
    try:
        sup = build_partial(plant, spec, Guards())
    except ExplosionGuardError:
        assume(False)
    ok, witness = is_admissible_partial(sup.automaton, plant)
    assert ok, witness
    assert in_sp(sup.automaton, plant, spec)


# --- maximality against every small supervisor --------------------------------

def _unobservable_draws(seeds):
    """Small pool-shaped draws with an unobservable event, each with its
    partial build of at most 60 states."""
    for seed in seeds:
        rng = random.Random(31 * seed + 7)
        nx, nz = rng.randint(2, 4), rng.randint(2, 4)
        plant, spec, _ = random_uc_pair(
            seed, plant_states=nx, spec_states=nz,
            n_events=rng.randint(2, 3), observable_ratio=0.6,
            controllable_ratio=rng.uniform(0.3, 0.7),
            density=rng.uniform(0.1, 1.2 / max(nx, nz)))
        if not plant.alphabet.unobservable:
            continue
        try:
            sup = build_partial(plant, spec, Guards(max_states=60))
        except ExplosionGuardError:
            continue
        yield plant, spec, sup.automaton


def test_partial_build_is_above_every_small_supervisor():
    # every supervisor with 1 state (and 2, with at most two observable
    # events) whose unobservable edges are self-loops, and which is
    # admissible under partial observation and in SP, has its closed loop
    # below the build's
    instances = candidates = 0
    for plant, spec, built in _unobservable_draws(range(30)):
        instances += 1
        unobservable = plant.alphabet.unobservable
        sizes = (1, 2) if len(plant.alphabet.observable) <= 2 else (1,)
        for n in sizes:
            for cand in all_supervisors(plant.alphabet, n):
                if any(ev in unobservable and y != y1
                       for (y, ev, y1) in cand.transitions):
                    continue
                if not is_admissible_partial(cand, plant)[0] \
                        or not oracle_in_sp(cand, plant, spec):
                    continue
                candidates += 1
                assert oracle_loop_below(cand, built, plant), \
                    sorted(cand.transitions)
    assert instances >= 15 and candidates >= 5000
