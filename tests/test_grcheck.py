"""Clause checker: gr clauses, saturation clauses, witnesses, verdicts."""

import pytest

from simsup import InputError
from simsup.automata import Automaton
from simsup.grcheck import CLAUSE_ORDER, check_gr, check_saturated
from simsup.synthesis import (Guards, SupervisorAutomaton, SynthesisContext,
                              build, in_n_set, supervisor_from_pair_sets)

from .fixtures import (CHAIN_ALPHA, CHAIN_PLANT, CHAIN_SPEC, FORK_PLANT,
                       FORK_SPEC, W0, W1, W2, W3, W5, chain_sup_a,
                       chain_sup_b, chain_sup_c, fork_sup_a1)
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
    # fork plant initial x0 not covered when the initial payload mentions
    # a different pair only; use an empty-coverage initial instead
    i0 = frozenset({("x1", "z1")})
    sup = supervisor_from_pair_sets(
        FORK_PLANT.alphabet, [i0], [])
    report = check_gr(sup, FORK_PLANT, FORK_SPEC)
    fails = report.failures_for("istate")
    assert fails
    assert fails[0].witness[1] == ("outside", ("x1", "z1"))


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
