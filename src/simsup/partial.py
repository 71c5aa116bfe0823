"""Supervisor synthesis under partial observation.

States are triples (w1, gamma_uo, w2): a core PowerState, a mask of
unobservable events the supervisor elects to permit (always including the
uncontrollable-unobservable ones), and a minimal closure of w1 under the
masked obligations.  Unobservable events self-loop; observable events step
through the same covering machinery as the full-observation construction.
With every event observable the whole thing collapses, state for state and
edge for edge, onto the takai construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .automata import Alphabet, Automaton, compose, split_product_id
from .errors import ExplosionGuardError
from .synthesis import (Guards, PowerState, SupervisorAutomaton,
                        SynthesisContext, _antichain_order, _explore,
                        _fixpoint_mask, _minimal_masks, clause_a, clause_b,
                        disabled_move, initial_power_states, minimal_covers,
                        render_pairs)


def _render_gamma(gamma) -> str:
    return "{%s}" % ",".join(sorted(gamma))


def _triple_id(w1_id: str, gamma_id: str, w2_id: str) -> str:
    return "<%s|%s|%s>" % (w1_id, gamma_id, w2_id)


@dataclass(frozen=True)
class TripleState:
    w1: PowerState
    gamma_uo: frozenset[str]
    w2: PowerState

    def __post_init__(self):
        object.__setattr__(self, "w1", frozenset(self.w1))
        object.__setattr__(self, "gamma_uo", frozenset(self.gamma_uo))
        object.__setattr__(self, "w2", frozenset(self.w2))

    @cached_property
    def tid(self) -> str:
        """The state id <w1|gamma|w2>, rendered when first asked for: a
        build names the triples it keeps itself."""
        return _triple_id(render_pairs(self.w1), _render_gamma(self.gamma_uo),
                          render_pairs(self.w2))


def gamma_candidates(alphabet: Alphabet) -> list[frozenset[str]]:
    """All subsets of the unobservable events containing every
    uncontrollable-unobservable one, canonically ordered."""
    required = sorted(alphabet.unobservable & alphabet.uncontrollable)
    free = sorted(alphabet.unobservable - alphabet.uncontrollable)
    out = []
    for mask in range(1 << len(free)):
        chosen = [ev for i, ev in enumerate(free) if mask >> i & 1]
        out.append(frozenset(required + chosen))
    return sorted(out, key=lambda g: tuple(sorted(g)))


def minimal_u(core: int, gamma, ctx: SynthesisContext) -> list[int]:
    """Minimal supersets of the pair mask core within the fixpoint closed
    under gamma-labeled obligations, as pair masks in canonical order; empty
    when no closure exists inside the fixpoint.

    A closed core is returned as itself, and a core holding a pair outside
    ctx.closable(gamma) has no closure.  Otherwise the search branches over
    the closable answers to the least unmet obligation, closing each branch
    to a fixpoint, then antichain-reduces the closures.  The cap bounds the
    distinct pair sets the search reaches from the core over closable pairs,
    closed or not.
    """
    gamma = frozenset(gamma)
    closable = ctx.closable(gamma)
    if core & ~closable:
        # a closed core lies inside closable, so this one has no closure
        return []
    answer, owned, answered = ctx.closure_table(gamma)
    have = ans = 0
    rest = core
    while rest:
        low = rest & -rest
        at = low.bit_length() - 1
        have |= owned[at]
        ans |= answered[at]
        rest ^= low
    if not have & ~ans:
        # a closed core is the only minimum
        return [core]
    cap = ctx.guards.max_covers
    explored = 0
    closed = []
    seen = set()
    # (mask, the obligations its pairs own, those its pairs answer), both as
    # masks of ctx.closure_table numbers, so that its unmet obligations are
    # have & ~ans and a child's two masks are its parent's ORed with the
    # added pair's.  Masks only grow down a branch, so they stay inside
    # closable, where every obligation keeps an answer and every branch ends
    # closed
    stack = [(core, have, ans)]
    while stack:
        w, have, ans = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        explored += 1
        if explored > cap:
            raise ExplosionGuardError(
                "closure enumeration cap %d exceeded for W1=%s gamma=%s"
                % (cap, render_pairs(ctx.power_state(core)), _render_gamma(gamma)))
        unmet = have & ~ans
        if not unmet:
            closed.append(w)
            continue
        # the lowest bit is the least unmet obligation; ascending bits of its
        # answers are the spec successors in order, since x' is fixed and the
        # pairs are sorted.  A child already explored would be skipped when
        # popped, so it is not pushed, which keeps deep searches' stacks small
        todo = answer[(unmet & -unmet).bit_length() - 1] & closable
        while todo:
            b = todo & -todo
            todo ^= b
            child = w | b
            if child not in seen:
                at = b.bit_length() - 1
                stack.append((child, have | owned[at], ans | answered[at]))
    return _antichain_order(_minimal_masks(closed))


def validate_triple(y: TripleState, ctx: SynthesisContext) -> list[str]:
    """Names of violated TripleState invariants (empty list when valid)."""
    alphabet = ctx.plant.alphabet
    bad = []
    if not y.w1:
        bad.append("w1-empty")
    if y.gamma_uo not in gamma_candidates(alphabet):
        bad.append("gamma-not-admissible")
    w1, w2 = _fixpoint_mask(y.w1, ctx), _fixpoint_mask(y.w2, ctx)
    if w1 is None or w2 is None:
        bad.append("outside-fixpoint")
    elif w2 not in minimal_u(w1, y.gamma_uo, ctx):
        bad.append("w2-not-minimal-closure")
    # masked controllable events must actually occur somewhere in w2
    if not all(clause_a(y.w2, ev, ctx)
               for ev in y.gamma_uo & alphabet.controllable):
        bad.append("masked-controllable-disabled")
    return bad


def sigma_y(y: TripleState, ctx: SynthesisContext) -> tuple[str, ...]:
    """Observable events passing clause_a and clause_b at w2; w2 lies inside
    the fixpoint, whose pairs answer every uncontrollable obligation there."""
    observable = ctx.plant.alphabet.observable
    return tuple(ev for ev in ctx.plant.alphabet.events
                 if ev in observable and clause_a(y.w2, ev, ctx)
                 and clause_b(y.w2, ev, ctx))


def _gamma_gates(gammas, ctx: SynthesisContext):
    """Each gamma with the enabling gates of the controllable events it
    masks, which every closure of its completions must meet."""
    controllable = ctx.plant.alphabet.controllable
    return [(gamma, [ctx.gates(ev)[0] for ev in gamma & controllable])
            for gamma in gammas]


def _completions(core: int, gated, ctx: SynthesisContext):
    """Every admissible completion of a core mask, as (index in gated,
    minimal closure mask) pairs, gated as _gamma_gates makes it: each
    closure meets the enabling gate of every controllable event its gamma
    masks."""
    out = []
    for g, (gamma, gates) in enumerate(gated):
        out += [(g, w2) for w2 in minimal_u(core, gamma, ctx)
                if all(w2 & enabling for enabling in gates)]
    return out


def build_partial(plant: Automaton, spec: Automaton,
                  guards: Guards = Guards()) -> SupervisorAutomaton:
    """Reachable construction of the partial-observation supervisor.

    Initial states complete each initial PowerState; unobservable masked
    events self-loop; each observable step goes to every completion of every
    minimal cover of (w2, event).  The walk keys a triple by (core mask,
    index in gamma_candidates, closure mask); the triples it keeps are made
    and named once it is over, each distinct pair mask rendered once.
    """
    ctx = SynthesisContext(plant, spec, guards)
    alphabet = plant.alphabet
    gammas = gamma_candidates(alphabet)
    gated = _gamma_gates(gammas, ctx)
    masked = [sorted(gamma) for gamma in gammas]
    gamma_ids = [_render_gamma(gamma) for gamma in gammas]
    # sigma_y on closure masks, read off the observable events' gates
    observed = [(ev, *ctx.gates(ev))
                for ev in alphabet.events if ev in alphabet.observable]
    # each core is completed once, keyed by its pair mask; since a triple
    # holds its core, a core met again only adds edges
    completed: dict[int, tuple[tuple[int, int, int], ...]] = {}
    # the completions of every core of a minimal-covers tuple, concatenated
    # once the walk has stepped by that tuple core by core
    joined: dict[tuple[int, ...], tuple[tuple[int, int, int], ...]] = {}

    def completions(core):
        keys = completed.get(core)
        if keys is None:
            keys = completed[core] = tuple(
                (core, g, w2) for g, w2 in _completions(core, gated, ctx))
        return keys

    def step(key):
        _, g, closure = key
        for ev in masked[g]:
            yield ev, (key,)
        w2 = ctx.power_state(closure)
        for ev, enabling, blocked in observed:
            if closure & enabling and not closure & blocked:
                covers = tuple(minimal_covers(w2, ev, ctx))
                bundle = joined.get(covers)
                if bundle is not None:
                    yield ev, bundle
                    continue
                # core by core, so that a state-cap trip at one core's
                # completions comes before a closure-cap trip at a later one
                for core in covers:
                    yield ev, completions(core)
                joined[covers] = tuple(
                    t for core in covers for t in completed[core])

    # the payloads' PowerStates, one per distinct mask, shared by the
    # triples that hold it
    payload = cache(ctx.power_state)

    @cache
    def render(mask):
        return render_pairs(payload(mask))

    def tid(key):
        core, g, closure = key
        return _triple_id(render(core), gamma_ids[g], render(closure))

    def state(key):
        core, g, closure = key
        return tid(key), TripleState(payload(core), gammas[g],
                                     payload(closure))

    inits = [key for w01 in initial_power_states(ctx)
             for key in completions(ctx.mask(w01))]
    notes = ()
    if alphabet.unobservable:
        notes = ("successor observation masks are not pinned by the step rule; "
                 "every admissible (gamma, closure) completion is materialized "
                 "as a distinct state",)
    return _explore(ctx, sorted(inits, key=tid), step, state, "partial", notes)


def is_admissible_partial(s: Automaton, g: Automaton):
    """Admissibility plus observation consistency: unobservable supervisor
    moves at reachable product states must be self-loops.

    Returns (True, None) or (False, witness); the witness is either the
    is_admissible counterexample or ((y,x), event, y1) for a state-changing
    unobservable edge.
    """
    loop = compose(s, g)
    witness = disabled_move(loop, g)
    if witness is not None:
        return False, witness
    unobservable = sorted(g.alphabet.unobservable)
    for pid in loop.sorted_states:
        pair = split_product_id(pid)
        for ev in unobservable:
            for y1 in s.succ.get((pair.left, ev), ()):
                if y1 != pair.left:
                    return False, (pair, ev, y1)
    return True, None
