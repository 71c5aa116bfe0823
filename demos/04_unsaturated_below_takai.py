"""Walkthrough: a supervisor in SP that is not saturated, and less permissive.

The paper's metatheorem reads maximal permissiveness off saturation: a
saturated (G,R)-automaton is a maximally permissive supervisor.  This demo
takes the other case.  It builds the takai supervisor of draw 462 of the
acceptance pool, drops one of its edges, and keeps the reachable part.  What
is left is still a (G,R)-automaton in SP, but the saturation checker now
reports it gr-unsaturated.  Saturation says nothing here, so the only way to
tell how permissive it is is to compare its closed loop with that of a
reference build: it is strictly below takai's.

Run from the repository root:

    python3 demos/04_unsaturated_below_takai.py
"""

from simsup import (Automaton, SupervisorAutomaton, SynthesisContext, build,
                    check_saturated, in_sp, more_permissive, random_uc_pair,
                    reachable)

# the draw parameters of pool draw 462 (tests/pool.py: draw_params(462))
DRAW = dict(plant_states=4, spec_states=2, n_events=1,
            density=0.27278216395739474, n_initial=2,
            controllable_ratio=0.6309041802523525)
DROPPED = ("{(x2,z0),(x3,z0)}", "e0", "{(x1,z0),(x2,z0),(x3,z0)}")


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def show(name, a):
    print("%s: %d states, %d edges, initial %s"
          % (name, len(a.states), len(a.transitions), sorted(a.initial)))
    for (src, ev, tgt) in sorted(a.transitions):
        print("  %s -%s-> %s" % (src, ev, tgt))


def without_edge(sup, edge):
    """sup without one edge, cut to its reachable part; the kept states keep
    their payloads."""
    a = sup.automaton
    transitions = a.transitions - {edge}
    live = frozenset(reachable(Automaton(a.states, a.alphabet, transitions,
                                         a.initial)))
    auto = Automaton(live, a.alphabet,
                     frozenset(t for t in transitions if t[0] in live),
                     a.initial)
    return SupervisorAutomaton(auto, {s: sup.payloads[s] for s in live},
                               "user", sup.guards)


def main():
    plant, spec, _ = random_uc_pair(462, **DRAW)
    ctx = SynthesisContext(plant, spec)

    banner("The takai supervisor of pool draw 462")
    takai = build(ctx, "takai")
    show("takai", takai.automaton)
    print("verdict:", check_saturated(takai, plant, spec, ctx).verdict)

    banner("The same supervisor without one edge")
    print("dropped: %s -%s-> %s" % DROPPED)
    sup = without_edge(takai, DROPPED)
    show("trimmed", sup.automaton)
    report = check_saturated(sup, plant, spec, ctx)
    print("verdict:", report.verdict)
    for failure in report.clause_failures:
        body = failure.to_json()
        print("  clause %s fails: a minimal cover is not offered, %s -%s-> %s"
              % (body["clause"], *body["witness"]))
    print("in SP:", in_sp(sup.automaton, plant, spec))

    banner("Only a reference build tells how permissive it is")
    s, t = sup.automaton, takai.automaton
    print("trimmed loop below the takai loop:", more_permissive(s, t, plant))
    print("takai loop below the trimmed loop:", more_permissive(t, s, plant))
    print("so the trimmed supervisor is in SP, unsaturated, and strictly less "
          "permissive than takai")


if __name__ == "__main__":
    main()
