"""Walkthrough: powerset supervisor synthesis on the chain example.

Builds the corrected powerset supervisor for the chain plant/spec pair,
pokes at the clause gates and cover machinery that decide which edges
exist, then compares the construction variants, the deadlock-pruned
version, and a hand-trimmed supervisor that the saturation checker
rejects with a concrete witness.

Run from the repository root:

    python3 demos/02_synthesis_walkthrough.py
"""

import os

from simsup import (SynthesisContext, build, check_saturated, clause_a,
                    clause_b, cover_family, in_sp, initial_power_states,
                    load_automaton, minimal_covers, more_permissive,
                    n_set_members, prune_deadlocks, render_pairs,
                    supervisor_from_pair_sets)

HERE = os.path.dirname(__file__)


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def show_supervisor(sup):
    a = sup.automaton
    print("%s: %d states, %d edges, initial %s"
          % (sup.construction_tag, len(a.states), len(a.transitions),
             sorted(a.initial)))
    for (src, ev, tgt) in sorted(a.transitions):
        print("  %s -%s-> %s" % (src, ev, tgt))


def main():
    plant = load_automaton(os.path.join(HERE, "data", "chain_plant.aut"))
    spec = load_automaton(os.path.join(HERE, "data", "chain_spec.aut"))
    ctx = SynthesisContext(plant, spec)

    banner("The fixpoint and the initial power state")
    print("W^ =", render_pairs(ctx.w_up))
    print("initial power states:",
          [render_pairs(w) for w in initial_power_states(ctx)])

    banner("Why the second sigma step branches")
    w1 = frozenset({("x1", "z1")})
    print("at W =", render_pairs(w1), "on sigma:")
    print("  clause_a:", clause_a(w1, "sigma", ctx))
    print("  clause_b:", clause_b(w1, "sigma", ctx))
    fam = cover_family(w1, "sigma", ctx)
    print("  candidate pairs:", render_pairs(fam.candidate_pairs))
    # covers come as fixpoint-pair masks; power_states turns them into sets
    print("  N members:", [render_pairs(v) for v in ctx.power_states(
        n_set_members(w1, "sigma", ctx))])
    print("  minimal covers:", [render_pairs(v) for v in ctx.power_states(
        minimal_covers(w1, "sigma", ctx))])

    banner("takai (minimal covers) and variant1 (every cover)")
    takai = build(ctx, "takai")
    show_supervisor(takai)
    v1 = build(ctx, "variant1")
    show_supervisor(v1)
    print("takai edges inside variant1:",
          takai.automaton.transitions <= v1.automaton.transitions)
    print("variant1 extra edges:",
          sorted(v1.automaton.transitions - takai.automaton.transitions))

    banner("Deadlock pruning")
    pruned = prune_deadlocks(takai)
    show_supervisor(pruned)
    print("dropped:", sorted(takai.automaton.transitions
                             - pruned.automaton.transitions))

    banner("Saturation verdicts")
    # A is takai minus the W1 -sigma-> {(x2,z3)} edge: a legal supervisor
    # that forgets the only branch from which c stays live
    w0 = frozenset({("x0", "z0")})
    w2 = frozenset({("x2", "z2")})
    a = supervisor_from_pair_sets(
        plant.alphabet, [w0], [(w0, "sigma", w1), (w1, "sigma", w2)], tag="A")
    for sup in (takai, v1, pruned, a):
        report = check_saturated(sup, plant, spec, ctx)
        print("%-16s %s" % (sup.construction_tag, report.verdict))
        for failure in report.clause_failures:
            print("    clause %s witness %s" % (failure.clause, failure.witness))

    banner("Permissiveness")
    for sup in (takai, v1, pruned, a):
        print("%-16s in SP: %s   below takai: %s   takai below it: %s"
              % (sup.construction_tag,
                 in_sp(sup.automaton, plant, spec),
                 more_permissive(sup.automaton, takai.automaton, plant),
                 more_permissive(takai.automaton, sup.automaton, plant)))


if __name__ == "__main__":
    main()
