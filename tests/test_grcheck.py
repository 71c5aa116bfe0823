"""Clause checker: gr clauses, saturation clauses, witnesses, verdicts."""

import hashlib
import json
import random
from collections import Counter

import pytest

from simsup import (ExplosionGuardError, InputError, compose, in_sp,
                    more_permissive)
from simsup import grcheck
from simsup.autfile import format_automaton, parse_automaton
from simsup.automata import Automaton, reachable
from simsup.grcheck import CLAUSE_ORDER, check_gr, check_saturated
from simsup.synthesis import (Guards, SupervisorAutomaton, SynthesisContext,
                              build, in_n_set, payloads_from_ids,
                              supervisor_from_pair_sets)

from .fixtures import (CHAIN_ALPHA, CHAIN_PLANT, CHAIN_SPEC, FORK_PLANT,
                       FORK_SPEC, W0, W1, W2, W3, W5, chain_sup_a,
                       chain_sup_b, chain_sup_c, fork_sup_a1)
from .oracles import oracle_in_sp, oracle_loop_below
from .pool import uc_instance


def chain_ctx():
    return SynthesisContext(CHAIN_PLANT, CHAIN_SPEC, Guards())


# --- gr clauses --------------------------------------------------------------

def test_supervisor_a_is_gr():
    report = check_gr(chain_sup_a(), CHAIN_PLANT, CHAIN_SPEC)
    assert report.ok
    assert report.verdict == "gr-unsaturated"


def test_builds_pass_check_gr():
    ctx = chain_ctx()
    for variant in ("takai", "variant1"):
        report = check_gr(build(ctx, variant), CHAIN_PLANT, CHAIN_SPEC, ctx)
        assert report.ok, report.to_json()


def test_check_gr_takes_no_masks_of_its_own(monkeypatch):
    # check_gr reads each payload's pair mask once, itself, and judges 6-a
    # and 6-b on those masks: on supervisors parsed back from their files,
    # whose payloads no context made, it converts no PowerState through
    # SynthesisContext.mask
    parsed = []
    for draw in range(3, 23):
        plant, spec, _ = uc_instance(draw)
        for variant in ("takai", "variant1"):
            built = build(SynthesisContext(plant, spec), variant).automaton
            auto = parse_automaton(format_automaton(built))
            parsed.append((SupervisorAutomaton(auto, payloads_from_ids(auto),
                                               "user"), plant, spec))
    real = SynthesisContext.mask
    calls = Counter()

    def counted(self, w):
        calls[w] += 1
        return real(self, w)

    monkeypatch.setattr(SynthesisContext, "mask", counted)
    for sup, plant, spec in parsed:
        assert check_gr(sup, plant, spec).ok
    assert sum(len(sup.automaton.transitions) for sup, _, _ in parsed) > 100
    assert not calls


def test_state_clause_failure():
    # (x0,z4) is not in the fixpoint
    w_bad = frozenset({("x0", "z4")})
    sup = supervisor_from_pair_sets(
        CHAIN_ALPHA, [W0], [(W0, "sigma", w_bad)])
    report = check_gr(sup, CHAIN_PLANT, CHAIN_SPEC)
    assert report.verdict == "not-gr"
    fails = report.failures_for("state")
    assert fails and fails[0].witness == ("{(x0,z4)}", ("x0", "z4"))


def test_istate_outside_witness():
    # (x1,z1) is in the fixpoint but x1 is not an initial plant state
    sup = supervisor_from_pair_sets(CHAIN_ALPHA, [W1], [(W1, "sigma", W2)])
    report = check_gr(sup, CHAIN_PLANT, CHAIN_SPEC)
    fails = report.failures_for("istate")
    assert fails
    assert fails[0].witness[1] == ("outside", ("x1", "z1"))


def test_istate_uncovered_witness():
    # an empty initial payload lies over initial pairs only, vacuously, but
    # gives the initial plant state x0 no partner
    sup = supervisor_from_pair_sets(FORK_PLANT.alphabet, [frozenset()], [])
    report = check_gr(sup, FORK_PLANT, FORK_SPEC)
    assert [f.witness for f in report.failures_for("istate")] == \
        [("{}", ("uncovered", "x0"))]


def test_6a_missing_mandatory_edge():
    # stop after the first sigma: W1 enables uncontrollable sigma but has
    # no outgoing edge
    sup = supervisor_from_pair_sets(CHAIN_ALPHA, [W0], [(W0, "sigma", W1)])
    report = check_gr(sup, CHAIN_PLANT, CHAIN_SPEC)
    assert report.verdict == "not-gr"
    fails = report.failures_for("6-a")
    assert fails and fails[0].witness == ("{(x1,z1)}", "sigma")


def test_6b_edge_outside_cover_family():
    # W0 -sigma-> W5 lands nowhere near the sigma successors of W0
    sup = supervisor_from_pair_sets(
        CHAIN_ALPHA, [W0],
        [(W0, "sigma", W1), (W1, "sigma", W2), (W0, "sigma", W5)])
    report = check_gr(sup, CHAIN_PLANT, CHAIN_SPEC)
    fails = report.failures_for("6-b")
    assert fails
    assert fails[0].witness == ("{(x0,z0)}", "sigma", "{(x3,z4)}")


@pytest.mark.parametrize("seed", [4, 11, 22, 31])
def test_6b_failures_match_per_edge_membership(seed):
    # every edge between the takai states: many (source, event) groups hold
    # both members and non-members of their cover family
    plant, spec, _ = uc_instance(seed)
    ctx = SynthesisContext(plant, spec, Guards())
    states = list(build(ctx).payloads.values())
    events = plant.alphabet.events
    sup = supervisor_from_pair_sets(
        plant.alphabet, states[:1],
        [(a, ev, b) for a in states for ev in events for b in states])
    pay = sup.payloads
    expected = [(src, ev, tgt) for (src, ev, tgt) in sorted(sup.automaton.transitions)
                if not in_n_set(pay[src], ev, pay[tgt], ctx)]
    got = [f.witness for f in check_gr(sup, plant, spec, ctx).failures_for("6-b")]
    assert got == expected and 0 < len(expected) < len(sup.automaton.transitions)


def test_6a_and_6b_failures_in_clause_then_state_event_target_order():
    # W1 lacks its mandatory sigma edge and W3 its mandatory c edge; W0's
    # sigma edges to W3 and W5, W3's sigma edge and both of W5's edges land
    # outside their cover families
    sup = supervisor_from_pair_sets(
        CHAIN_ALPHA, [W0],
        [(W5, "sigma", W0), (W0, "sigma", W5), (W3, "sigma", W2),
         (W0, "sigma", W1), (W5, "c", W0), (W0, "sigma", W3)])
    report = check_gr(sup, CHAIN_PLANT, CHAIN_SPEC)
    assert report.verdict == "not-gr"
    assert [(f.clause, f.witness) for f in report.clause_failures] == [
        ("6-a", ("{(x1,z1)}", "sigma")),
        ("6-a", ("{(x2,z3)}", "c")),
        ("6-b", ("{(x0,z0)}", "sigma", "{(x2,z3)}")),
        ("6-b", ("{(x0,z0)}", "sigma", "{(x3,z4)}")),
        ("6-b", ("{(x2,z3)}", "sigma", "{(x2,z2)}")),
        ("6-b", ("{(x3,z4)}", "c", "{(x0,z0)}")),
        ("6-b", ("{(x3,z4)}", "sigma", "{(x0,z0)}"))]
    assert check_saturated(sup, CHAIN_PLANT, CHAIN_SPEC).to_json() == \
        report.to_json()


def test_check_saturated_derives_its_inputs_once(monkeypatch):
    # the gr clauses and the saturation clauses share one derivation of the
    # context, the payloads and the live states
    calls = Counter()
    for name in ("_context_for", "_payloads", "reachable"):
        real = getattr(grcheck, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(grcheck, name, counted)
    report = check_saturated(chain_sup_b(), CHAIN_PLANT, CHAIN_SPEC)
    assert report.verdict == "saturated"
    assert calls == {"_context_for": 1, "_payloads": 1, "reachable": 1}


def test_unreachable_states_warn_not_fail():
    sup = supervisor_from_pair_sets(
        CHAIN_ALPHA, [W0],
        [(W0, "sigma", W1), (W1, "sigma", W2), (W3, "c", W5)])
    report = check_gr(sup, CHAIN_PLANT, CHAIN_SPEC)
    assert report.ok
    assert any("unreachable" in w for w in report.warnings)


def test_payload_outside_plant_spec_is_input_error():
    w_alien = frozenset({("q9", "z0")})
    sup = supervisor_from_pair_sets(CHAIN_ALPHA, [w_alien], [])
    with pytest.raises(InputError):
        check_gr(sup, CHAIN_PLANT, CHAIN_SPEC)


def test_missing_payload_is_input_error():
    auto = Automaton.build(CHAIN_ALPHA, [("y0", "sigma", "y0")], ["y0"])
    sup = SupervisorAutomaton(auto, {}, "user")
    with pytest.raises(InputError):
        check_gr(sup, CHAIN_PLANT, CHAIN_SPEC)


def test_context_mismatch_is_input_error():
    ctx = SynthesisContext(FORK_PLANT, FORK_SPEC, Guards())
    with pytest.raises(InputError):
        check_gr(chain_sup_a(), CHAIN_PLANT, CHAIN_SPEC, ctx)


# --- saturation clauses ------------------------------------------------------

def test_supervisor_a_fails_6c_at_w1_sigma_w3():
    report = check_saturated(chain_sup_a(), CHAIN_PLANT, CHAIN_SPEC)
    assert report.verdict == "gr-unsaturated"
    fails = report.failures_for("6-c")
    assert fails
    assert fails[0].witness == ("{(x1,z1)}", "sigma", W3)


def test_supervisors_b_and_c_are_saturated():
    for sup in (chain_sup_b(), chain_sup_c()):
        report = check_saturated(sup, CHAIN_PLANT, CHAIN_SPEC)
        assert report.verdict == "saturated", report.to_json()


def test_builds_are_saturated():
    ctx = chain_ctx()
    for variant in ("takai", "variant1"):
        report = check_saturated(build(ctx, variant), CHAIN_PLANT,
                                 CHAIN_SPEC, ctx)
        assert report.verdict == "saturated"


def test_fork_a1_fails_sistate_only():
    report = check_saturated(fork_sup_a1(), FORK_PLANT, FORK_SPEC)
    assert report.verdict == "gr-unsaturated"
    assert [f.clause for f in report.clause_failures] == ["sistate"]
    (fail,) = report.failures_for("sistate")
    assert fail.witness == (frozenset({("x0", "z02")}),)


def test_saturated_iff_no_failures():
    cases = [(chain_sup_a(), CHAIN_PLANT, CHAIN_SPEC),
             (chain_sup_b(), CHAIN_PLANT, CHAIN_SPEC),
             (chain_sup_c(), CHAIN_PLANT, CHAIN_SPEC),
             (fork_sup_a1(), FORK_PLANT, FORK_SPEC)]
    for sup, plant, spec in cases:
        report = check_saturated(sup, plant, spec)
        assert (report.verdict == "saturated") == (not report.clause_failures)


def test_gr_failures_short_circuit_saturation():
    sup = supervisor_from_pair_sets(CHAIN_ALPHA, [W0], [(W0, "sigma", W1)])
    report = check_saturated(sup, CHAIN_PLANT, CHAIN_SPEC)
    assert report.verdict == "not-gr"
    assert not report.failures_for("6-c")  # never evaluated


def test_report_json_and_clause_order():
    report = check_saturated(chain_sup_a(), CHAIN_PLANT, CHAIN_SPEC)
    body = report.to_json()
    assert body["verdict"] == "gr-unsaturated"
    assert body["clause_failures"][0]["clause"] in CLAUSE_ORDER
    # frozenset witnesses render as pair-set strings
    assert body["clause_failures"][0]["witness"][2] == "{(x2,z3)}"


# --- the metatheorem on (G,R)-automata that no construction built ----------

def _keep_reachable(sup, transitions):
    """sup with only the given transitions, cut to its reachable part; the
    kept states keep their payloads."""
    a = sup.automaton
    live = frozenset(reachable(Automaton(a.states, a.alphabet,
                                         frozenset(transitions), a.initial)))
    auto = Automaton(live, a.alphabet,
                     frozenset(t for t in transitions if t[0] in live), a.initial)
    return SupervisorAutomaton(auto, {s: sup.payloads[s] for s in live},
                               "user", sup.guards)


def _mutually_permissive(s, t, plant):
    if max(len(compose(s, plant).states), len(compose(t, plant).states)) <= 40:
        return oracle_loop_below(s, t, plant) and oracle_loop_below(t, s, plant)
    return more_permissive(s, t, plant) and more_permissive(t, s, plant)


def test_saturated_automata_are_maximally_permissive():
    # every pool draw whose variant1 build fits in 200 states: drop random
    # nonempty subsets of the variant1 edges that takai lacks (dropping takai
    # edges gives no saturated candidate); every candidate found saturated is
    # in SP and exactly as permissive as takai, as the paper's metatheorem says
    verdicts = {}
    for seed in range(500):
        plant, spec, _ = uc_instance(seed)
        ctx = SynthesisContext(plant, spec, Guards(max_states=200))
        try:
            v1 = build(ctx, "variant1")
        except ExplosionGuardError:
            continue
        takai = build(ctx, "takai").automaton
        extra = sorted(v1.automaton.transitions - takai.transitions)
        rng = random.Random(seed)
        for _ in range(3 if extra else 0):
            drop = set(rng.sample(extra, rng.randint(1, len(extra))))
            cand = _keep_reachable(v1, v1.automaton.transitions - drop)
            verdict = check_saturated(cand, plant, spec, ctx).verdict
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            if verdict == "saturated":
                assert in_sp(cand.automaton, plant, spec), seed
                assert _mutually_permissive(cand.automaton, takai, plant), seed
    assert set(verdicts) == {"saturated", "gr-unsaturated", "not-gr"}
    assert verdicts["saturated"] >= 100


def test_unsaturated_automaton_below_takai():
    # saturation is sufficient for maximal permissiveness, not necessary:
    # pool draw 462's takai build without one edge is a (G,R)-automaton in SP,
    # unsaturated, and strictly less permissive than takai
    plant, spec, _ = uc_instance(462)
    ctx = SynthesisContext(plant, spec, Guards())
    takai = build(ctx, "takai")
    assert (len(takai.automaton.states), len(takai.automaton.transitions)) == (12, 16)
    edge = ("{(x2,z0),(x3,z0)}", "e0", "{(x1,z0),(x2,z0),(x3,z0)}")
    sup = _keep_reachable(takai, takai.automaton.transitions - {edge})
    assert len(sup.automaton.states) == 11
    report = check_saturated(sup, plant, spec, ctx)
    assert report.to_json()["verdict"] == "gr-unsaturated"
    assert [f.to_json() for f in report.clause_failures] == [
        {"clause": "6-c", "witness": list(edge)}]
    s, t = sup.automaton, takai.automaton
    assert in_sp(s, plant, spec) and oracle_in_sp(s, plant, spec)
    assert more_permissive(s, t, plant) and oracle_loop_below(s, t, plant)
    assert not more_permissive(t, s, plant)
    assert not oracle_loop_below(t, s, plant)


# --- pinned reports ----------------------------------------------------------

def _edited(sup, transitions):
    """sup with its transitions replaced; states and payloads are kept."""
    a = sup.automaton
    return SupervisorAutomaton(
        Automaton(a.states, a.alphabet, frozenset(transitions), a.initial),
        sup.payloads, "user", sup.guards)


def _as_built_and_edited(sup):
    """sup as built, without its least edge, and with that edge redirected
    to the least state it does not already reach under its event."""
    a = sup.automaton
    edges = sorted(a.transitions)
    if not edges:
        return [sup]
    src, ev, _ = edges[0]
    out = [sup, _edited(sup, edges[1:])]
    others = [t for t in a.sorted_states if t not in a.succ[(src, ev)]]
    if others:
        out.append(_edited(sup, [(src, ev, others[0])] + edges[1:]))
    return out


# sha256 over the check_gr and check_saturated reports (to_json, one
# sorted-key JSON line each, in loop order) of the takai and variant1 builds
# of pool draws 3-62 (draw 2's variant1 build has 3981 states), each as
# built and as edited by _as_built_and_edited; computed with clauses (a) and
# (b) tested per PowerState, before check_gr read them off the gate masks
GR_REPORTS_SHA256 = ("b9f99754203efeb5f81564eb7a7ca5ee"
                     "567d35b40b89807fe8e6ad0512190220")


def test_gr_reports_on_edited_builds_are_pinned():
    digest = hashlib.sha256()
    clauses = Counter()
    for draw in range(3, 63):
        plant, spec, _ = uc_instance(draw)
        ctx = SynthesisContext(plant, spec, Guards())
        for variant in ("takai", "variant1"):
            for sup in _as_built_and_edited(build(ctx, variant)):
                for check in (check_gr, check_saturated):
                    report = check(sup, plant, spec, ctx).to_json()
                    digest.update(json.dumps(report, sort_keys=True).encode()
                                  + b"\n")
                    clauses.update(f["clause"] for f in report["clause_failures"])
    assert {"6-a", "6-b", "6-c"} <= set(clauses), clauses
    assert digest.hexdigest() == GR_REPORTS_SHA256
