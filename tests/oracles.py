"""Brute-force oracles, written against the definitions rather than the
library algorithms.

Each oracle rebuilds its own adjacency from the raw transition triples and
takes the dumbest correct route: bounded refinement for simulations, subset
scans for cover families and closures, exhaustive candidate enumeration for
supervisors.  Slow on purpose; only run at small scales.
"""

import itertools

from simsup import Automaton, compose


def delta(a: Automaton) -> dict:
    """(state, event) -> set of targets, straight from the triples."""
    table = {}
    for (src, ev, tgt) in a.transitions:
        table.setdefault((src, ev), set()).add(tgt)
    return table


def oracle_greatest_simulation(g: Automaton, r: Automaton, events) -> set:
    """Greatest simulation-of-g-by-r pairs over the given tracked events.

    Naive refinement from the full product: recompute the surviving set from
    scratch each round until it stops changing (at most |X|*|Z| rounds).
    """
    dg, dr = delta(g), delta(r)
    sim = {(x, z) for x in g.states for z in r.states}
    for _ in range(len(g.states) * len(r.states) + 1):
        nxt = {(x, z) for (x, z) in sim
               if all(any((x1, z1) in sim for z1 in dr.get((z, ev), ()))
                      for ev in events for x1 in dg.get((x, ev), ()))}
        if nxt == sim:
            break
        sim = nxt
    return sim


def oracle_check_simulation(g: Automaton, r: Automaton, mode: str) -> bool:
    """Does r (uc-)simulate g?  Initial condition over the oracle fixpoint."""
    events = (sorted(g.alphabet.uncontrollable) if mode == "uc"
              else list(g.alphabet.events))
    sim = oracle_greatest_simulation(g, r, events)
    return all(any((x0, z0) in sim for z0 in r.initial) for x0 in g.initial)


def oracle_is_uc_simulation(rel_pairs, g: Automaton, r: Automaton) -> bool:
    """Step condition of the uc-simulation definition, checked pointwise
    (no initial-state condition)."""
    dg, dr = delta(g), delta(r)
    for (x, z) in rel_pairs:
        for ev in sorted(g.alphabet.uncontrollable):
            for x1 in dg.get((x, ev), ()):
                if not any((x1, z1) in rel_pairs for z1 in dr.get((z, ev), ())):
                    return False
    return True


def oracle_n_set(w, event, g: Automaton, r: Automaton, w_up) -> list:
    """Every member of the cover family of (w, event), by scanning all
    subsets of the candidate pool.  Exponential; keep the pool tiny."""
    dg, dr = delta(g), delta(r)
    cands = sorted({(x1, z1)
                    for (x, z) in w
                    for x1 in dg.get((x, event), ())
                    for z1 in dr.get((z, event), ())
                    if (x1, z1) in w_up})
    obligations = [(x, z, x1) for (x, z) in sorted(w)
                   for x1 in sorted(dg.get((x, event), ()))]
    members = []
    for k in range(len(cands) + 1):
        for combo in itertools.combinations(cands, k):
            chosen = set(combo)
            if all(any((x1, z1) in chosen for z1 in dr.get((z, event), ()))
                   for (x, z, x1) in obligations):
                members.append(frozenset(chosen))
    return members


def oracle_minimal(sets) -> list:
    return [s for s in sets if not any(t < s for t in sets)]


def oracle_variant2_targets(covers) -> list:
    """Edge targets under the alternative clause split: the minimal covers,
    plus every cover with no minimal cover below it.  The second clause is
    empty on finite inputs, so this equals the minimal covers."""
    minimal = oracle_minimal(covers)
    unfounded = [s for s in covers if not any(m <= s for m in minimal)]
    return minimal + unfounded


def oracle_matchable(w, event, g: Automaton, r: Automaton, w_up) -> bool:
    """Every event move of a plant state in w has a spec answer from its
    partner that lands inside w_up (clause_b without the uncontrollable
    escape)."""
    dg, dr = delta(g), delta(r)
    return all(any((x1, z1) in w_up for z1 in dr.get((z, event), ()))
               for (x, z) in w for x1 in dg.get((x, event), ()))


def oracle_initial_power_states(g: Automaton, r: Automaton, w_up) -> set:
    """Size-|X0| subsets of the initial pairs in w_up that cover every
    initial plant state, by scanning all such subsets."""
    pool = sorted((x, z) for (x, z) in w_up
                  if x in g.initial and z in r.initial)
    return {frozenset(combo)
            for combo in itertools.combinations(pool, len(g.initial))
            if {x for (x, _) in combo} == set(g.initial)}


def oracle_minimal_u(w1, gamma, g: Automaton, r: Automaton, w_up) -> list:
    """Minimal gamma-closed supersets of w1 inside w_up, by scanning every
    superset.  2^|w_up - w1| subsets; keep w_up tiny."""
    dg, dr = delta(g), delta(r)
    w1 = frozenset(w1)

    def closed(s):
        for (x, z) in s:
            for ev in gamma:
                for x1 in dg.get((x, ev), ()):
                    if not any((x1, z1) in s for z1 in dr.get((z, ev), ())):
                        return False
        return True

    rest = sorted(set(w_up) - w1)
    closures = []
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            s = w1 | set(combo)
            if closed(s):
                closures.append(frozenset(s))
    return oracle_minimal(closures)


def all_supervisors(alphabet, n_states: int):
    """Every supervisor shape with exactly n_states states: initial {y0},
    one target subset per (state, event) slot.  Yields Automaton objects."""
    states = ["y%d" % i for i in range(n_states)]
    slots = [(src, ev) for src in states for ev in alphabet.events]
    subsets = list(
        itertools.chain.from_iterable(
            itertools.combinations(states, k) for k in range(n_states + 1)))
    for assignment in itertools.product(subsets, repeat=len(slots)):
        trans = [(src, ev, tgt)
                 for (src, ev), tgts in zip(slots, assignment)
                 for tgt in tgts]
        yield Automaton.build(alphabet, trans, ["y0"], states=states)


def canonical_form(s: Automaton, g: Automaton):
    """Canonical key of the closed loop S||G: reachable product renamed by
    breadth-first discovery order.  Two supervisors with equal keys drive the
    plant identically."""
    prod = compose(s, g)
    order = {}
    frontier = sorted(prod.initial)
    for pid in frontier:
        order[pid] = len(order)
    while frontier:
        nxt = []
        for pid in frontier:
            for ev in prod.alphabet.events:
                for tgt in prod.succ.get((pid, ev), ()):
                    if tgt not in order:
                        order[tgt] = len(order)
                        nxt.append(tgt)
        frontier = sorted(nxt)
    edges = frozenset((order[a], ev, order[b])
                      for (a, ev, b) in prod.transitions
                      if a in order and b in order)
    return (len(order), frozenset(order[p] for p in prod.initial), edges)


def oracle_admissible(s: Automaton, g: Automaton) -> bool:
    """Reachable closed-loop scan for a disabled uncontrollable plant move."""
    dg = delta(g)
    ds = delta(s)
    seen = {(y, x) for y in s.initial for x in g.initial}
    frontier = list(seen)
    while frontier:
        (y, x) = frontier.pop()
        for ev in s.alphabet.events:
            for y1 in ds.get((y, ev), ()):
                for x1 in dg.get((x, ev), ()):
                    if (y1, x1) not in seen:
                        seen.add((y1, x1))
                        frontier.append((y1, x1))
    for (y, x) in seen:
        for ev in s.alphabet.uncontrollable:
            if dg.get((x, ev), ()) and not ds.get((y, ev), ()):
                return False
    return True


def oracle_in_sp(s: Automaton, g: Automaton, r: Automaton) -> bool:
    """Admissible and the closed loop is simulated by the spec, both judged
    by the oracles above."""
    if not oracle_admissible(s, g):
        return False
    loop = compose(s, g)
    return oracle_check_simulation(loop, r, "full")


def oracle_loop_below(s1: Automaton, s2: Automaton, g: Automaton) -> bool:
    """s1||G simulated by s2||G, judged by the oracle fixpoint."""
    return oracle_check_simulation(compose(s1, g), compose(s2, g), "full")
