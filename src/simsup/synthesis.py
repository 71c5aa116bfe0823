"""Powerset supervisor synthesis for the similarity control problem.

A supervisor state is a PowerState: a set of (plant state, spec state) pairs
drawn from the greatest matching fixpoint.  An event may leave a PowerState
when some pair enables it (clause_a) and, for controllable events, every
enabled occurrence can be answered inside the fixpoint (clause_b).  Successor
PowerStates are covers: subsets of the one-step successor pairs answering
every obligation.  The classic construction (tag "takai") uses the minimal
covers; variant1 uses every cover.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .automata import (Automaton, compose, is_deadlock, split_product_id,
                       split_top_level)
from .errors import ExplosionGuardError, InputError, SynthesisPreconditionError
from .simulation import Pair, check_simulation, greatest_uc_fixpoint

PowerState = frozenset  # of Pair


@dataclass(frozen=True)
class Guards:
    """Explosion caps: reachable supervisor states, and enumerated covers or
    choice functions per (PowerState, event)."""

    max_states: int = 10_000
    max_covers: int = 4_096


def _canon(pairs) -> tuple[Pair, ...]:
    return tuple(sorted(pairs))


def render_pairs(pairs) -> str:
    """Canonical id of a PowerState: sorted pair list, e.g. {(x0,z0),(x1,z1)}."""
    return "{%s}" % ",".join("(%s,%s)" % p for p in _canon(pairs))


def parse_pairs(text: str) -> PowerState:
    """Inverse of render_pairs; raises InputError on anything else."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise InputError("not a pair-set id: %r" % text)
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    pairs = set()
    for item in split_top_level(inner):
        if not (item.startswith("(") and item.endswith(")")):
            raise InputError("bad pair %r in %r" % (item, text))
        parts = split_top_level(item[1:-1])
        if len(parts) != 2 or not all(parts):
            raise InputError("bad pair %r in %r" % (item, text))
        pairs.add((parts[0], parts[1]))
    return frozenset(pairs)


@dataclass(frozen=True)
class SynthesisContext:
    """Shared synthesis state: plant, spec, guard caps, and the greatest
    matching fixpoint (computed once, cached)."""

    plant: Automaton
    spec: Automaton
    guards: Guards = Guards()

    def __post_init__(self):
        if self.plant.alphabet != self.spec.alphabet:
            raise InputError("plant and spec must share one alphabet")

    @cached_property
    def w_up(self) -> frozenset[Pair]:
        return greatest_uc_fixpoint(self.plant, self.spec).pairs

    @cached_property
    def uncontrollable(self) -> frozenset[str]:
        return self.plant.alphabet.uncontrollable


@dataclass(frozen=True)
class CoverFamily:
    """Obligations of (W, event) and the pool their covers are drawn from.

    obligations: ((x, z, x'), allowed) per plant move x -event-> x' enabled at
    a pair (x,z) of W; allowed lists the successor pairs (x',z') inside the
    fixpoint that answer it.  candidate_pairs is the union of all one-step
    successor products, filtered to the fixpoint.
    """

    source: PowerState
    event: str
    obligations: tuple[tuple[tuple[str, str, str], tuple[Pair, ...]], ...]
    candidate_pairs: tuple[Pair, ...]


def cover_family(w: PowerState, event: str, ctx: SynthesisContext) -> CoverFamily:
    gsucc, rsucc = ctx.plant.succ, ctx.spec.succ
    obligations = []
    candidates = set()
    for (x, z) in _canon(w):
        if (x, z) not in ctx.w_up:
            raise InputError("PowerState pair (%s,%s) outside the fixpoint" % (x, z))
        zs = rsucc.get((z, event), ())
        for x1 in gsucc.get((x, event), ()):
            allowed = tuple((x1, z1) for z1 in zs if (x1, z1) in ctx.w_up)
            obligations.append(((x, z, x1), allowed))
            candidates.update(allowed)
    return CoverFamily(frozenset(w), event, tuple(obligations), _canon(candidates))


def clause_a(w: PowerState, event: str, ctx: SynthesisContext) -> bool:
    """Some pair of W enables the event in the plant."""
    return any(ctx.plant.succ.get((x, event)) for (x, _) in w)


def _matchable(w: PowerState, event: str, ctx: SynthesisContext) -> bool:
    gsucc, rsucc = ctx.plant.succ, ctx.spec.succ
    for (x, z) in w:
        zs = rsucc.get((z, event), ())
        for x1 in gsucc.get((x, event), ()):
            if not any((x1, z1) in ctx.w_up for z1 in zs):
                return False
    return True


def clause_b(w: PowerState, event: str, ctx: SynthesisContext) -> bool:
    """Uncontrollable events pass outright; controllable ones need every
    enabled occurrence answered inside the fixpoint."""
    return event in ctx.uncontrollable or _matchable(w, event, ctx)


def _cover_guard(fam: CoverFamily, count_kind: str, cap: int) -> ExplosionGuardError:
    return ExplosionGuardError(
        "%s cap %d exceeded at (%s, %s) with %d candidate pairs"
        % (count_kind, cap, render_pairs(fam.source), fam.event,
           len(fam.candidate_pairs)))


def n_set_members(w: PowerState, event: str, ctx: SynthesisContext,
                  cap: int | None = None):
    """Lazily enumerate every cover of (w, event): each subset of the candidate
    pairs answering every obligation.  Raises the explosion guard when the
    consumer pulls more than cap members (default: context guard)."""
    fam = cover_family(w, event, ctx)
    cap = ctx.guards.max_covers if cap is None else cap
    return _enumerate_covers(fam, cap)


_VISIT, _TAKE, _DROP = range(3)


def _enumerate_covers(fam: CoverFamily, cap: int):
    allowed = [frozenset(a) for (_, a) in fam.obligations]
    if any(not a for a in allowed):
        return
    cands = fam.candidate_pairs
    serves = [[j for j, a in enumerate(allowed) if c in a] for c in cands]
    # possible[j] = satisfied choices + undecided candidates for obligation j;
    # a branch dies the moment some obligation hits zero, so every leaf covers
    possible = [len(a) for a in allowed]
    chosen: list[Pair] = []
    yielded = 0
    # depth-first over candidates, leaving cands[i] out before taking it in;
    # an explicit stack, since a recursive walk is as deep as the pool is wide
    todo = [(_VISIT, 0)]
    while todo:
        step, i = todo.pop()
        if step == _DROP:
            chosen.pop()
        elif step == _TAKE:
            for j in serves[i]:
                possible[j] += 1
            chosen.append(cands[i])
            todo.append((_DROP, i))
            todo.append((_VISIT, i + 1))
        elif i == len(cands):
            yielded += 1
            if yielded > cap:
                raise _cover_guard(fam, "cover enumeration", cap)
            yield frozenset(chosen)
        else:
            dead = False
            for j in serves[i]:
                possible[j] -= 1
                if possible[j] == 0:
                    dead = True
            todo.append((_TAKE, i))
            if not dead:
                todo.append((_VISIT, i + 1))


def in_n_set(w: PowerState, event: str, target: PowerState,
             ctx: SynthesisContext) -> bool:
    """Membership test for the cover family, without enumeration."""
    fam = cover_family(w, event, ctx)
    target = frozenset(target)
    if not target <= set(fam.candidate_pairs):
        return False
    return all(target & frozenset(a) for (_, a) in fam.obligations)


def _choice_selections(fam: CoverFamily, cap: int) -> list[PowerState]:
    """Distinct pair-sets of choice functions: one allowed answer per
    obligation.  Sorted canonically."""
    if not fam.obligations:
        return [frozenset()]
    allowed = [a for (_, a) in fam.obligations]
    if any(not a for a in allowed):
        return []
    out = set()
    scanned = 0
    for combo in itertools.product(*allowed):
        scanned += 1
        if scanned > cap:
            raise _cover_guard(fam, "choice-function enumeration", cap)
        out.add(frozenset(combo))
    return sorted(out, key=_canon)


def _antichain_minima(sets: list[PowerState]) -> list[PowerState]:
    """Subset-minimal members, lexicographically least representative first."""
    minima: list[PowerState] = []
    for cand in sorted(set(sets), key=lambda s: (len(s), _canon(s))):
        if not any(m <= cand for m in minima):
            minima.append(cand)
    return sorted(minima, key=_canon)


def minimal_covers(w: PowerState, event: str, ctx: SynthesisContext) -> list[PowerState]:
    """Minimal members of the cover family, by choice-function enumeration
    plus antichain reduction."""
    fam = cover_family(w, event, ctx)
    return _antichain_minima(_choice_selections(fam, ctx.guards.max_covers))


def initial_power_states(ctx: SynthesisContext) -> list[PowerState]:
    """Initial PowerStates: subsets of fixpoint pairs over initial states that
    pick exactly one spec partner per initial plant state, enumerated as
    choice functions.  Sorted canonically.
    """
    x0s = sorted(ctx.plant.initial)
    z0s = sorted(ctx.spec.initial)
    options = []
    for x0 in x0s:
        opts = [z0 for z0 in z0s if (x0, z0) in ctx.w_up]
        if not opts:
            raise SynthesisPreconditionError(
                "initial plant state %r has no initial spec partner in the "
                "greatest matching fixpoint; the plant is not uc-similar to "
                "the spec and no supervisor exists" % x0)
        options.append(opts)
    cap = ctx.guards.max_covers
    count = 1
    for opts in options:
        count *= len(opts)
    if count > cap:
        raise ExplosionGuardError(
            "initial choice-function cap %d exceeded (%d combinations)" % (cap, count))
    out = [frozenset(zip(x0s, combo)) for combo in itertools.product(*options)]
    return sorted(out, key=_canon)


@dataclass
class SupervisorAutomaton:
    """A synthesized (or user-supplied) supervisor plus its bookkeeping.

    payloads maps each state id to its structured payload: a PowerState
    (frozenset of pairs) for full-observation constructions, a TripleState for
    partial observation.  construction_tag records provenance: takai,
    variant1, tilde-of-<tag>, partial, or user.
    """

    automaton: Automaton
    payloads: dict
    construction_tag: str
    guards: Guards = Guards()
    notes: tuple[str, ...] = ()


def build(ctx: SynthesisContext, variant: str = "takai") -> SupervisorAutomaton:
    """Breadth-first construction of the reachable supervisor.

    takai: edges to every minimal cover.  variant1: edges to every cover.
    """
    if variant not in ("takai", "variant1"):
        raise InputError("unknown variant %r" % variant)
    inits = initial_power_states(ctx)
    events = ctx.plant.alphabet.events
    payloads: dict[str, PowerState] = {}
    queue = deque()
    for w in inits:
        pid = render_pairs(w)
        if pid not in payloads:
            payloads[pid] = w
            queue.append(w)
    edges = set()
    while queue:
        w = queue.popleft()
        src = render_pairs(w)
        for ev in events:
            if not (clause_a(w, ev, ctx) and clause_b(w, ev, ctx)):
                continue
            if variant == "takai":
                targets = minimal_covers(w, ev, ctx)
            else:
                targets = list(n_set_members(w, ev, ctx))
            for w1 in sorted(targets, key=_canon):
                tid = render_pairs(w1)
                edges.add((src, ev, tid))
                if tid not in payloads:
                    if len(payloads) >= ctx.guards.max_states:
                        raise ExplosionGuardError(
                            "supervisor state cap %d exceeded when reaching %s"
                            % (ctx.guards.max_states, tid))
                    payloads[tid] = w1
                    queue.append(w1)
    auto = Automaton(frozenset(payloads), ctx.plant.alphabet, frozenset(edges),
                     frozenset(render_pairs(w) for w in inits))
    return SupervisorAutomaton(auto, payloads, variant, ctx.guards)


def prune_deadlocks(sup: SupervisorAutomaton) -> SupervisorAutomaton:
    """Drop edges into deadlocked states unless every same-event alternative
    deadlocks too.  Deadlock status is judged in the unpruned automaton and
    the state set is kept."""
    a = sup.automaton
    dead = {s for s in a.states if is_deadlock(a, s)}
    keep = set()
    for (src, ev, tgt) in a.transitions:
        if tgt not in dead or all(t in dead for t in a.succ[(src, ev)]):
            keep.add((src, ev, tgt))
    pruned = Automaton(a.states, a.alphabet, frozenset(keep), a.initial)
    return SupervisorAutomaton(pruned, dict(sup.payloads),
                               "tilde-of-" + sup.construction_tag,
                               sup.guards, sup.notes)


def is_admissible(s: Automaton, g: Automaton):
    """Whether the closed loop never disables an uncontrollable plant move.

    Returns (True, None) or (False, ((y,x), event)) with the lexicographically
    least reachable violation.
    """
    if s.alphabet != g.alphabet:
        raise InputError("supervisor and plant must share one alphabet")
    prod = compose(s, g)
    uc = sorted(g.alphabet.uncontrollable)
    for pid in prod.sorted_states:
        pair = split_product_id(pid)
        for ev in uc:
            if g.succ.get((pair.right, ev)) and not prod.succ.get((pid, ev)):
                return False, (pair, ev)
    return True, None


def in_sp(s: Automaton, g: Automaton, r: Automaton) -> bool:
    """Supervisor membership: admissible and the closed loop is simulated by
    the spec."""
    ok, _ = is_admissible(s, g)
    return ok and check_simulation(compose(s, g), r, "full") is not None


def more_permissive(s1: Automaton, s2: Automaton, g: Automaton) -> bool:
    """True iff s2's closed loop simulates s1's: s1||G below s2||G."""
    return check_simulation(compose(s1, g), compose(s2, g), "full") is not None


def supervisor_from_pair_sets(alphabet, initial_sets, edges, tag: str = "user",
                              guards: Guards = Guards()) -> SupervisorAutomaton:
    """Assemble a SupervisorAutomaton from explicit pair-set states and
    (source pair-set, event, target pair-set) edges; used for hand-built
    automata and parsed user supervisors."""
    payloads: dict[str, PowerState] = {}

    def intern(ps):
        ps = frozenset(ps)
        pid = render_pairs(ps)
        payloads[pid] = ps
        return pid

    init = frozenset(intern(ps) for ps in initial_sets)
    trans = frozenset((intern(a), ev, intern(b)) for (a, ev, b) in edges)
    auto = Automaton(frozenset(payloads), alphabet, trans, init)
    return SupervisorAutomaton(auto, payloads, tag, guards)


def payloads_from_ids(a: Automaton) -> dict[str, PowerState] | None:
    """Recover pair-set payloads from rendered state ids, or None when some id
    is not a pair-set rendering."""
    try:
        return {s: parse_pairs(s) for s in a.states}
    except InputError:
        return None
