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
from .simulation import bit_positions
from .synthesis import (Guards, PowerState, SupervisorAutomaton,
                        SynthesisContext, _explore, _minimal_masks, clause_a,
                        clause_b, disabled_move, initial_power_states,
                        minimal_covers, render_pairs)


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


def minimal_u(w1: PowerState, gamma, ctx: SynthesisContext) -> list[PowerState]:
    """Minimal supersets of w1 within the fixpoint closed under gamma-labeled
    obligations; empty when no closure exists inside the fixpoint.

    A closed w1 is returned as itself, and a w1 holding a pair outside
    ctx.closable(gamma) has no closure.  Otherwise the search branches over
    the closable answers to the least unmet obligation, closing each branch
    to a fixpoint, then antichain-reduces the closures.  Works over pair
    bitmasks; the cap bounds the distinct pair sets the search reaches from
    w1 over closable pairs, closed or not.
    """
    w1 = frozenset(w1)
    gamma = frozenset(gamma)
    root = ctx.mask(w1)
    answer, owns, answered = ctx.closure_table(gamma)
    unmet = sum(bit for i in bit_positions(root)
                for bit, mask in owns[i] if not root & mask)
    if not unmet:
        # a closed core is the only minimum, and is returned as itself: a
        # build holds every triple's core and closure
        return [w1]
    closable = ctx.closable(gamma)
    if root & ~closable:
        return []
    cap = ctx.guards.max_covers
    explored = 0
    closed = []
    seen = set()
    # (mask, its unmet obligations as a mask of ctx.closure_table numbers):
    # adding a pair never un-answers an obligation, so a child's unmet set is
    # its parent's less what the added pair answers, plus what that pair owns
    # and the child leaves unanswered.  Masks only grow down a branch, so
    # they stay inside closable, where every obligation keeps an answer and
    # every branch ends closed
    stack = [(root, unmet)]
    while stack:
        w, unmet = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        explored += 1
        if explored > cap:
            raise ExplosionGuardError(
                "closure enumeration cap %d exceeded for W1=%s gamma={%s}"
                % (cap, render_pairs(w1), ",".join(sorted(gamma))))
        if not unmet:
            closed.append(w)
            continue
        # the lowest bit is the least unmet obligation; ascending bits of its
        # answers are the spec successors in order, since x' is fixed and the
        # pairs are sorted
        todo = answer[(unmet & -unmet).bit_length() - 1] & closable
        while todo:
            b = todo & -todo
            todo ^= b
            child = w | b
            at = b.bit_length() - 1
            left = unmet & ~answered[at]
            for bit, mask in owns[at]:
                if not child & mask:
                    left |= bit
            stack.append((child, left))
    return ctx.power_states(_minimal_masks(closed))


def validate_triple(y: TripleState, ctx: SynthesisContext) -> list[str]:
    """Names of violated TripleState invariants (empty list when valid)."""
    alphabet = ctx.plant.alphabet
    bad = []
    if not y.w1:
        bad.append("w1-empty")
    if y.gamma_uo not in gamma_candidates(alphabet):
        bad.append("gamma-not-admissible")
    if not y.w1 <= ctx.w_up or not y.w2 <= ctx.w_up:
        bad.append("outside-fixpoint")
    elif y.w2 not in minimal_u(y.w1, y.gamma_uo, ctx):
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


def _completions(w1: PowerState, gammas, ctx: SynthesisContext):
    """Every admissible completion of a core w1, as (index in gammas,
    minimal closure) pairs: each closure meets the enabling gate of every
    controllable event its gamma masks."""
    controllable = ctx.plant.alphabet.controllable
    return [(g, w2) for g, gamma in enumerate(gammas)
            for w2 in minimal_u(w1, gamma, ctx)
            if all(ctx.mask(w2) & ctx.gates(ev)[0]
                   for ev in gamma & controllable)]


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
    masked = [sorted(gamma) for gamma in gammas]
    gamma_ids = [_render_gamma(gamma) for gamma in gammas]
    # sigma_y on closure masks, read off the observable events' gates
    observed = [(ev, *ctx.gates(ev))
                for ev in alphabet.events if ev in alphabet.observable]
    # each core is completed once, keyed by its pair mask; since a triple
    # holds its core, a core met again only adds edges
    completed: dict[int, list[tuple[int, int, int]]] = {}

    def completions(core):
        keys = completed.get(core)
        if keys is None:
            keys = completed[core] = [
                (core, g, ctx.mask(w2))
                for g, w2 in _completions(ctx.power_state(core), gammas, ctx)]
        return keys

    def step(key):
        _, g, closure = key
        for ev in masked[g]:
            yield ev, (key,)
        w2 = ctx.power_state(closure)
        for ev, enabling, blocked in observed:
            if closure & enabling and not closure & blocked:
                for core in minimal_covers(w2, ev, ctx):
                    yield ev, completions(core)

    @cache
    def render(mask):
        return render_pairs(ctx.power_state(mask))

    def tid(key):
        core, g, closure = key
        return _triple_id(render(core), gamma_ids[g], render(closure))

    def state(key):
        core, g, closure = key
        return tid(key), TripleState(ctx.power_state(core), gammas[g],
                                     ctx.power_state(closure))

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
