"""Walkthrough: synthesis when some events are invisible to the supervisor.

Makes sigma unobservable in the chain example, so the supervisor must hold
one control decision across everything the plant might do silently.  States
become triples (W1, gamma_uo, W2): the observable anchor, the unobservable
mask held open, and the belief closure reached under it.  The demo takes the
triple machinery apart first, then builds the full supervisor, and finishes
with the sanity check that full observation collapses the triples back onto
the ordinary powerset construction.

Run from the repository root:

    python3 demos/03_partial_observation.py
"""

from simsup import (Alphabet, Automaton, SynthesisContext, build,
                    build_partial, gamma_candidates, in_sp,
                    is_admissible_partial, minimal_u, render_pairs, sigma_y,
                    validate_triple)
from simsup.partial import TripleState


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def chain_pair(observable):
    alpha = Alphabet.build(["sigma", "c"], controllable=["c"],
                           observable=observable)
    plant = Automaton.build(
        alpha,
        [("x0", "sigma", "x1"), ("x1", "sigma", "x2"), ("x2", "c", "x3")],
        ["x0"])
    spec = Automaton.build(
        alpha,
        [("z0", "sigma", "z1"), ("z1", "sigma", "z2"), ("z1", "sigma", "z3"),
         ("z3", "c", "z4")],
        ["z0"])
    return plant, spec


def main():
    plant, spec = chain_pair(observable=["c"])
    ctx = SynthesisContext(plant, spec)

    banner("Masks and belief closures")
    print("unobservable masks:", [sorted(g) for g in gamma_candidates(plant.alphabet)])
    w0 = frozenset({("x0", "z0")})
    # sigma is uncontrollable, so every admissible mask keeps it open; the
    # closure of W0 under silent sigma steps branches at the second sigma.
    # minimal_u works on pair masks: W0 goes in as its mask, and each
    # closure mask comes back out as its PowerState
    for u in minimal_u(ctx.mask(w0), frozenset({"sigma"}), ctx):
        print("minimal closure of %s:" % render_pairs(w0),
              render_pairs(ctx.power_state(u)))

    banner("Anatomy of a triple state")
    good = TripleState(w0, frozenset({"sigma"}),
                       frozenset({("x0", "z0"), ("x1", "z1"), ("x2", "z3")}))
    print("tid:", good.tid)
    print("violations:", validate_triple(good, ctx) or "none")
    print("enabled observable events:", sigma_y(good, ctx))
    not_closed = TripleState(w0, frozenset({"sigma"}), w0)
    print("closure too small:", validate_triple(not_closed, ctx))
    masked_uc = TripleState(w0, frozenset(), w0)
    print("mask drops an uncontrollable:", validate_triple(masked_uc, ctx))

    banner("The partially observed supervisor")
    sup = build_partial(plant, spec)
    a = sup.automaton
    print("%d states, %d edges, %d initial"
          % (len(a.states), len(a.transitions), len(a.initial)))
    for sid in sorted(a.states):
        print("  state", sid)
    for (src, ev, tgt) in sorted(a.transitions):
        arrow = "silent" if ev not in plant.alphabet.observable else "on obs"
        print("  %s: %s -%s-> %s" % (arrow, src, ev, tgt))
    for note in sup.notes:
        print("note:", note)
    ok, witness = is_admissible_partial(a, plant)
    print("admissible under partial observation:", ok, witness or "")
    print("in SP:", in_sp(a, plant, spec))

    banner("Full observation collapses to the powerset build")
    plant_o, spec_o = chain_pair(observable=None)
    collapsed = build_partial(plant_o, spec_o)
    takai = build(SynthesisContext(plant_o, spec_o), "takai")
    rename = {sid: "<%s|{}|%s>" % (sid, sid) for sid in takai.automaton.states}
    same_states = set(collapsed.automaton.states) == set(rename.values())
    same_edges = (set(collapsed.automaton.transitions)
                  == {(rename[s], e, rename[t])
                      for (s, e, t) in takai.automaton.transitions})
    print("states match takai under W -> <W|{}|W>:", same_states)
    print("edges match too:", same_edges)


if __name__ == "__main__":
    main()
