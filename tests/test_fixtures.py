"""Validation of the worked-example fixtures against their known sets.

Everything the rest of the suite assumes about the fixtures is pinned here:
the chain fixpoint and its three N-sets, the W0..W5 shorthand, the fork
fixpoint, and the basic sanity of the hand-built supervisors.
"""

from simsup import check_simulation, greatest_uc_fixpoint
from simsup.synthesis import (Guards, SynthesisContext, minimal_covers,
                              n_set_members)

from .fixtures import (CHAIN_PLANT, CHAIN_SPEC, CHAIN_W_UP, FORK_PLANT,
                       FORK_SPEC, FORK_S1, FORK_W_UP, W0, W1, W2, W3, W4, W5,
                       chain_sup_a, chain_sup_b, chain_sup_c, fork_sup_a1)


def chain_ctx():
    return SynthesisContext(CHAIN_PLANT, CHAIN_SPEC, Guards())


def test_chain_is_uc_similar():
    assert check_simulation(CHAIN_PLANT, CHAIN_SPEC, "uc") is not None


def test_chain_fixpoint_matches_closed_form():
    assert greatest_uc_fixpoint(CHAIN_PLANT, CHAIN_SPEC).pairs == CHAIN_W_UP


def test_chain_n_sets():
    ctx = chain_ctx()

    def n_set(w, ev):
        return set(ctx.power_states(n_set_members(w, ev, ctx)))

    assert n_set(W0, "sigma") == {W1}
    assert n_set(W1, "sigma") == {W2, W3, W4}
    assert n_set(W3, "c") == {W5}


def test_chain_minimal_covers():
    ctx = chain_ctx()

    def covers(w, ev):
        return ctx.power_states(minimal_covers(w, ev, ctx))

    assert covers(W0, "sigma") == [W1]
    assert set(covers(W1, "sigma")) == {W2, W3}
    assert covers(W3, "c") == [W5]


def test_chain_supervisors_use_the_known_states():
    a, b, c = chain_sup_a(), chain_sup_b(), chain_sup_c()
    assert set(a.payloads.values()) == {W0, W1, W2}
    assert set(b.payloads.values()) == {W0, W1, W2, W3, W5}
    assert set(c.payloads.values()) == {W0, W1, W2, W3, W4, W5}
    for sup in (a, b, c):
        assert sup.automaton.initial == {"{(x0,z0)}"}


def test_fork_is_uc_similar():
    assert check_simulation(FORK_PLANT, FORK_SPEC, "uc") is not None


def test_fork_fixpoint_matches_closed_form():
    assert greatest_uc_fixpoint(FORK_PLANT, FORK_SPEC).pairs == FORK_W_UP


def test_fork_s1_shape():
    assert FORK_S1.states == {"y0", "y1", "y2"}
    assert ("y1", "c2", "y2") in FORK_S1.transitions


def test_fork_a1_shape():
    a1 = fork_sup_a1()
    assert a1.automaton.initial == {"{(x0,z01)}"}
    assert len(a1.automaton.transitions) == 2
