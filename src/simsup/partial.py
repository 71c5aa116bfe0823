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

from collections import deque
from dataclasses import dataclass

from .automata import Alphabet, Automaton, compose, split_product_id
from .errors import ExplosionGuardError, InputError, InternalConsistencyError
from .synthesis import (Guards, PowerState, SupervisorAutomaton,
                        SynthesisContext, _canon, _matchable, clause_a,
                        initial_power_states, is_admissible, minimal_covers,
                        render_pairs)


@dataclass(frozen=True)
class TripleState:
    w1: PowerState
    gamma_uo: frozenset[str]
    w2: PowerState

    def __post_init__(self):
        object.__setattr__(self, "w1", frozenset(self.w1))
        object.__setattr__(self, "gamma_uo", frozenset(self.gamma_uo))
        object.__setattr__(self, "w2", frozenset(self.w2))

    @property
    def tid(self) -> str:
        gamma = "{%s}" % ",".join(sorted(self.gamma_uo))
        return "<%s|%s|%s>" % (render_pairs(self.w1), gamma, render_pairs(self.w2))


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


def _first_unmet(w: PowerState, gamma: frozenset[str], ctx: SynthesisContext):
    """Least obligation of w under the masked events left unanswered in w."""
    gsucc, rsucc = ctx.plant.succ, ctx.spec.succ
    for (x, z) in _canon(w):
        for ev in sorted(gamma):
            zs = rsucc.get((z, ev), ())
            for x1 in gsucc.get((x, ev), ()):
                if not any((x1, z1) in w for z1 in zs):
                    return (x, z, ev, x1)
    return None


def _antichain_minima(sets: list[PowerState]) -> list[PowerState]:
    """Subset-minimal members, lexicographically least representative first."""
    minima: list[PowerState] = []
    for cand in sorted(set(sets), key=lambda s: (len(s), _canon(s))):
        if not any(m <= cand for m in minima):
            minima.append(cand)
    return sorted(minima, key=_canon)


def minimal_u(w1: PowerState, gamma, ctx: SynthesisContext) -> list[PowerState]:
    """Minimal supersets of w1 within the fixpoint closed under gamma-labeled
    obligations; empty when no closure exists inside the fixpoint.

    Branches over the per-obligation answer choices, closing each branch to a
    fixpoint, then antichain-reduces the closures.
    """
    w1 = frozenset(w1)
    gamma = frozenset(gamma)
    if not w1 <= ctx.w_up:
        raise InputError("W1 must lie inside the greatest matching fixpoint")
    cap = ctx.guards.max_covers
    explored = 0
    closed = []
    seen = set()
    stack = [w1]
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        explored += 1
        if explored > cap:
            raise ExplosionGuardError(
                "closure enumeration cap %d exceeded for W1=%s gamma={%s}"
                % (cap, render_pairs(w1), ",".join(sorted(gamma))))
        ob = _first_unmet(w, gamma, ctx)
        if ob is None:
            closed.append(w)
            continue
        (x, z, ev, x1) = ob
        answers = [(x1, z1) for z1 in ctx.spec.succ.get((z, ev), ())
                   if (x1, z1) in ctx.w_up]
        for pair in answers:
            stack.append(w | {pair})
        # no answers: the branch dies, no closure through this obligation
    return _antichain_minima(closed)


def _gamma_controllables_enabled(w2: PowerState, gamma, ctx: SynthesisContext) -> bool:
    # masked controllable events must actually occur somewhere in w2
    for ev in gamma & ctx.plant.alphabet.controllable:
        if not any(ctx.plant.succ.get((x, ev)) for (x, _) in w2):
            return False
    return True


def validate_triple(y: TripleState, ctx: SynthesisContext) -> list[str]:
    """Names of violated TripleState invariants (empty list when valid)."""
    alphabet = ctx.plant.alphabet
    bad = []
    if not y.w1:
        bad.append("w1-empty")
    if not (alphabet.unobservable & alphabet.uncontrollable) <= y.gamma_uo \
            or not y.gamma_uo <= alphabet.unobservable:
        bad.append("gamma-not-admissible")
    if not y.w1 <= ctx.w_up or not y.w2 <= ctx.w_up:
        bad.append("outside-fixpoint")
    elif y.w2 not in minimal_u(y.w1, y.gamma_uo, ctx):
        bad.append("w2-not-minimal-closure")
    if not _gamma_controllables_enabled(y.w2, y.gamma_uo, ctx):
        bad.append("masked-controllable-disabled")
    return bad


def sigma_y(y: TripleState, ctx: SynthesisContext) -> tuple[str, ...]:
    """Observable events enabled somewhere in w2 with every w2 obligation
    answerable inside the fixpoint (clause_a and clause_b without the
    uncontrollable escape)."""
    observable = ctx.plant.alphabet.observable
    return tuple(ev for ev in ctx.plant.alphabet.events
                 if ev in observable and clause_a(y.w2, ev, ctx)
                 and _matchable(y.w2, ev, ctx))


def _completions(w1: PowerState, gammas, ctx: SynthesisContext) -> list[TripleState]:
    """Every admissible (gamma, minimal closure) completion of a core w1."""
    out = []
    for gamma in gammas:
        for w2 in minimal_u(w1, gamma, ctx):
            if _gamma_controllables_enabled(w2, gamma, ctx):
                out.append(TripleState(w1, gamma, w2))
    return out


def build_partial(plant: Automaton, spec: Automaton,
                  guards: Guards = Guards()) -> SupervisorAutomaton:
    """Reachable construction of the partial-observation supervisor.

    Initial states complete each initial PowerState; unobservable masked
    events self-loop; each observable step goes to every completion of every
    minimal cover of (w2, event).
    """
    ctx = SynthesisContext(plant, spec, guards)
    gammas = gamma_candidates(plant.alphabet)
    inits = []
    for w01 in initial_power_states(ctx):
        inits.extend(_completions(w01, gammas, ctx))
    tids: dict[TripleState, str] = {}  # each id rendered once, when first reached
    payloads: dict[str, TripleState] = {}
    queue = deque()
    for y in sorted(inits, key=lambda t: t.tid):
        if y not in tids:
            tid = tids[y] = y.tid
            payloads[tid] = y
            queue.append(y)
    if not payloads:
        # the minimal mask always closes inside the fixpoint, so this cannot fire
        raise InternalConsistencyError("no admissible initial triple")
    edges = set()
    while queue:
        y = queue.popleft()
        src = tids[y]
        for ev in sorted(y.gamma_uo):
            edges.add((src, ev, src))
        for ev in sigma_y(y, ctx):
            for w1 in minimal_covers(y.w2, ev, ctx):
                for y1 in _completions(w1, gammas, ctx):
                    tid = tids.get(y1)
                    if tid is None:
                        tid = y1.tid
                        if len(payloads) >= ctx.guards.max_states:
                            raise ExplosionGuardError(
                                "supervisor state cap %d exceeded when reaching %s"
                                % (ctx.guards.max_states, tid))
                        tids[y1] = tid
                        payloads[tid] = y1
                        queue.append(y1)
                    edges.add((src, ev, tid))
    auto = Automaton(frozenset(payloads), plant.alphabet, frozenset(edges),
                     frozenset(tids[y] for y in inits))
    notes = ()
    if plant.alphabet.unobservable:
        notes = ("successor observation masks are not pinned by the step rule; "
                 "every admissible (gamma, closure) completion is materialized "
                 "as a distinct state",)
    return SupervisorAutomaton(auto, payloads, "partial", guards, notes)


def is_admissible_partial(s: Automaton, g: Automaton):
    """Admissibility plus observation consistency: unobservable supervisor
    moves at reachable product states must be self-loops.

    Returns (True, None) or (False, witness); the witness is either the
    is_admissible counterexample or ((y,x), event, y1) for a state-changing
    unobservable edge.
    """
    ok, witness = is_admissible(s, g)
    if not ok:
        return False, witness
    prod = compose(s, g)
    unobservable = sorted(g.alphabet.unobservable)
    for pid in prod.sorted_states:
        pair = split_product_id(pid)
        for ev in unobservable:
            for y1 in s.succ.get((pair.left, ev), ()):
                if y1 != pair.left:
                    return False, (pair, ev, y1)
    return True, None
