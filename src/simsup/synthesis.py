"""Powerset supervisor synthesis for the similarity control problem.

A supervisor state is a PowerState: a set of (plant state, spec state) pairs
drawn from the greatest matching fixpoint.  An event may leave a PowerState
when some pair enables it (clause_a) and, for controllable events, every
enabled occurrence can be answered inside the fixpoint (clause_b).  The
builds and check_saturated test both at once on a PowerState's pair mask,
against the event's two gate masks (SynthesisContext.gates).  Successor
PowerStates are covers: subsets of the one-step successor pairs answering
every obligation.  The classic construction (tag "takai") uses the minimal
covers, enumerated directly as the minimal transversals of the obligations'
allowed sets; variant1 uses every cover.  Both builds know a PowerState by
its pair mask (bit i for the i-th fixpoint pair) while they walk, and name
the states they keep once the walk is over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import NamedTuple

from .automata import (Automaton, bisim_quotient, compose, is_deadlock,
                       split_product_id, split_top_level)
from .errors import ExplosionGuardError, InputError, SynthesisPreconditionError
from .simulation import Pair, bit_positions, greatest_uc_fixpoint, simulates

PowerState = frozenset  # of Pair


@dataclass(frozen=True)
class Guards:
    """Explosion caps: reachable supervisor states, and an enumeration cap
    that bounds the choice functions behind each set of minimal covers, the
    covers variant1 yields per (PowerState, event), the distinct pair sets
    minimal_u reaches from W1 over closable pairs and the initial
    combinations.  Initial states do not count against the state cap, so a
    supervisor can hold more than max_states states; nothing bounds the
    partial build's completions of the initial combinations as a whole."""

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


class ClosureTable(NamedTuple):
    """The obligations of the fixpoint pairs under a set of events gamma,
    numbered k = 0, 1, ... by pair ascending, then gamma's events sorted,
    then plant successor: bit k of an obligation mask stands for the k-th.

    answer[k] is the k-th obligation's answer mask (a row entry of
    SynthesisContext.answers); owned[i] masks the obligations of the i-th
    pair, a run of consecutive bits; answered[j] masks the obligations whose
    answers hold the j-th pair.  So the obligations a pair mask W leaves
    unmet are the OR of owned over W less the OR of answered over W.
    """

    answer: tuple[int, ...]
    owned: tuple[int, ...]
    answered: tuple[int, ...]


@dataclass(frozen=True)
class SynthesisContext:
    """Shared synthesis state: plant, spec, guard caps, and tables derived
    from them: the greatest matching fixpoint (computed once, cached) with
    its pairs numbered once, their one-step obligations and gates per event
    and their obligations per event set, the pairs a closure under each
    event set can hold, the minimal transversals of each obligation family
    met, and the PowerState of each pair mask asked for."""

    plant: Automaton
    spec: Automaton
    guards: Guards = Guards()
    _answers: dict[str, list[tuple[int, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _gates: dict[str, tuple[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _transversals: dict[frozenset[int], tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _closure_tables: dict[frozenset[str], ClosureTable] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _closable: dict[frozenset[str], int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _power_states: dict[int, PowerState] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # the masks of the PowerStates power_state made, for mask to look up:
    # they serve only the minimal_covers hook, which takes PowerStates
    _masks: dict[PowerState, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.plant.alphabet != self.spec.alphabet:
            raise InputError("plant and spec must share one alphabet")

    @cached_property
    def w_up(self) -> frozenset[Pair]:
        return greatest_uc_fixpoint(self.plant, self.spec).pairs

    @cached_property
    def fixpoint_pairs(self) -> tuple[Pair, ...]:
        """The fixpoint pairs in sorted order; bit i of a pair mask stands
        for the i-th, so masks sort by bit positions as PowerStates sort by
        their sorted pairs."""
        return _canon(self.w_up)

    @cached_property
    def pair_index(self) -> dict[Pair, int]:
        """Position of each fixpoint pair in fixpoint_pairs."""
        return {p: i for i, p in enumerate(self.fixpoint_pairs)}

    def answers(self, event: str) -> list[tuple[int, ...]]:
        """The one-step obligations of the fixpoint pairs under event.

        Row i holds one mask per plant move x -event-> x' of the i-th pair
        (x,z), in plant-successor order; bit j of a mask is set when the j-th
        pair is (x',z') with z -event-> z'.  A mask of 0 is an obligation
        nothing inside the fixpoint answers.  Cached per event.
        """
        table = self._answers.get(event)
        if table is None:
            gsucc, rsucc, index = self.plant.succ, self.spec.succ, self.pair_index
            table = self._answers[event] = []
            for (x, z) in self.fixpoint_pairs:
                zs = rsucc.get((z, event), ())
                row = []
                for x1 in gsucc.get((x, event), ()):
                    mask = 0
                    for z1 in zs:
                        j = index.get((x1, z1))
                        if j is not None:
                            mask |= 1 << j
                    row.append(mask)
                table.append(tuple(row))
        return table

    def gates(self, event: str) -> tuple[int, int]:
        """(enabling, blocked): the pair masks of the fixpoint pairs whose
        plant state enables event (their answers row is nonempty), and, for
        a controllable event, of those whose answers row holds a 0 mask (an
        obligation nothing answers); blocked is 0 for an uncontrollable
        event.  For a pair mask W, clause_a is W & enabling and clause_b is
        not W & blocked.  Cached per event; only a controllable event's
        blocked mask reads the answers rows, so an uncontrollable event's
        gates do not build them."""
        gate = self._gates.get(event)
        if gate is None:
            gsucc = self.plant.succ
            enabling = sum(1 << i for i, (x, _) in enumerate(self.fixpoint_pairs)
                           if gsucc.get((x, event)))
            blocked = 0
            if event in self.plant.alphabet.controllable:
                blocked = sum(1 << i for i, row in enumerate(self.answers(event))
                              if 0 in row)
            gate = self._gates[event] = (enabling, blocked)
        return gate

    def closure_table(self, gamma) -> ClosureTable:
        """The numbered obligations under the events of gamma, built from
        the answers rows.  Cached per event set."""
        gamma = frozenset(gamma)
        table = self._closure_tables.get(gamma)
        if table is None:
            rows = [self.answers(ev) for ev in sorted(gamma)]
            answer, owned = [], []
            n = len(self.fixpoint_pairs)
            answered = [0] * n
            for i in range(n):
                first = len(answer)
                for row in rows:
                    for mask in row[i]:
                        bit = 1 << len(answer)
                        answer.append(mask)
                        for j in bit_positions(mask):
                            answered[j] |= bit
                owned.append((1 << len(answer)) - (1 << first))
            table = self._closure_tables[gamma] = ClosureTable(
                tuple(answer), tuple(owned), tuple(answered))
        return table

    def closable(self, gamma) -> int:
        """The pair mask of the greatest subset of the fixpoint in which each
        gamma obligation of every pair has an answer inside the subset.  A
        union of gamma-closed sets is gamma-closed, so every one of them lies
        inside it, and a pair outside it lies in none.  Found by dropping, to
        a fixpoint, the pairs with an obligation answered only by dropped
        pairs; cached per event set."""
        gamma = frozenset(gamma)
        live = self._closable.get(gamma)
        if live is None:
            answer, owned, answered = self.closure_table(gamma)
            # obligations are numbered by pair ascending, so owner[k] is the
            # pair of the k-th; dropping pair i can leave without an answer
            # only the obligations i answered
            owner = [i for i, mine in enumerate(owned)
                     for _ in range(mine.bit_count())]
            live = (1 << len(owned)) - 1
            dead = [owner[k] for k, mask in enumerate(answer) if not mask]
            while dead:
                i = dead.pop()
                if live >> i & 1:
                    live ^= 1 << i
                    dead += [owner[k] for k in bit_positions(answered[i])
                             if not answer[k] & live]
            self._closable[gamma] = live
        return live

    def minimal_transversals(self, edges: list[int]) -> tuple[int, ...]:
        """The minimal transversals of edges in canonical order, cached per
        obligation family: the set of the edges, which is all MMCS reads."""
        family = frozenset(edges)
        out = self._transversals.get(family)
        if out is None:
            out = self._transversals[family] = tuple(
                _antichain_order(_minimal_transversals(edges)))
        return out

    def mask(self, w) -> int:
        """The pair mask of a PowerState, looked up when power_state made
        it; raises InputError naming the least pair outside the fixpoint."""
        mask = self._masks.get(w) or _fixpoint_mask(w, self)
        if mask is None:
            raise InputError("PowerState pair (%s,%s) outside the fixpoint"
                             % min(p for p in w if p not in self.pair_index))
        return mask

    def power_state(self, mask: int) -> PowerState:
        """The PowerState of a pair mask, made once per mask and shared."""
        w = self._power_states.get(mask)
        if w is None:
            pairs, members, rest = self.fixpoint_pairs, [], mask
            while rest:
                low = rest & -rest
                members.append(pairs[low.bit_length() - 1])
                rest ^= low
            w = self._power_states[mask] = frozenset(members)
            self._masks[w] = mask
        return w

    def power_states(self, masks) -> list[PowerState]:
        """The PowerStates of pair masks, in canonical order: masks sort by
        their bit positions as PowerStates sort by their sorted pairs."""
        return [self.power_state(m) for m in sorted(masks, key=bit_positions)]


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


def _edges(mask: int, event: str, ctx: SynthesisContext) -> list[int]:
    """The obligation masks under event (rows of ctx.answers) of the pairs
    of a pair mask, ascending; every cover of (W, event) hits each of
    them."""
    table = ctx.answers(event)
    rest = mask
    edges = []
    while rest:
        low = rest & -rest
        edges += table[low.bit_length() - 1]
        rest ^= low
    return edges


def _fixpoint_mask(w, ctx: SynthesisContext) -> int | None:
    """The pair mask of w, or None when a pair of w lies outside the
    fixpoint."""
    index = ctx.pair_index
    mask = 0
    for p in w:
        j = index.get(p)
        if j is None:
            return None
        mask |= 1 << j
    return mask


def _admits(edges: list[int], pool: int, target: int | None) -> bool:
    """Whether the pair mask target (None: it leaves the fixpoint) is a cover
    of the (W, event) whose obligation masks are edges, with union pool: it
    lies inside the pool and hits every edge."""
    return (target is not None and not target & ~pool
            and all(e & target for e in edges))


def cover_family(w: PowerState, event: str, ctx: SynthesisContext) -> CoverFamily:
    pairs, gsucc, table = ctx.fixpoint_pairs, ctx.plant.succ, ctx.answers(event)
    obligations = []
    pool = 0
    for i in bit_positions(ctx.mask(w)):
        x, z = pairs[i]
        for x1, mask in zip(gsucc.get((x, event), ()), table[i]):
            obligations.append(((x, z, x1),
                                tuple(pairs[j] for j in bit_positions(mask))))
            pool |= mask
    return CoverFamily(frozenset(w), event, tuple(obligations),
                       tuple(pairs[j] for j in bit_positions(pool)))


def clause_a(w: PowerState, event: str, ctx: SynthesisContext) -> bool:
    """Some pair of W enables the event in the plant."""
    return any(ctx.plant.succ.get((x, event)) for (x, _) in w)


def clause_b(w: PowerState, event: str, ctx: SynthesisContext) -> bool:
    """Uncontrollable events pass outright; controllable ones need every
    enabled occurrence answered inside the fixpoint: no pair of W among the
    event's blocked gate."""
    return event in ctx.plant.alphabet.uncontrollable \
        or not ctx.mask(w) & ctx.gates(event)[1]


def _cover_guard(w: PowerState, event: str, candidates: int, count_kind: str,
                 cap: int) -> ExplosionGuardError:
    return ExplosionGuardError(
        "%s cap %d exceeded at (%s, %s) with %d candidate pairs"
        % (count_kind, cap, render_pairs(w), event, candidates))


def n_set_members(w: PowerState, event: str, ctx: SynthesisContext):
    """Lazily enumerate every cover of (w, event) as a pair mask, in canonical
    order: each subset of the candidate pairs answering every obligation.
    Raises the explosion guard when the consumer pulls more than the
    context's cover cap."""
    edges = _edges(ctx.mask(w), event, ctx)
    cap = ctx.guards.max_covers
    bits = [1 << j for j in bit_positions(reduce(or_, edges, 0))]
    later = [0] * (len(bits) + 1)  # later[i]: the pool bits from i on
    for i in range(len(bits) - 1, -1, -1):
        later[i] = later[i + 1] | bits[i]

    def covers():
        if not all(edges):
            return
        yielded = 0
        # pre-order over the subsets of the pool, each grown by one pool bit
        # above its highest, ascending: subsets come out as their bit
        # positions sort.  A subset lives while every edge keeps a chosen or
        # later bit; growing by a higher bit leaves fewer later bits, so the
        # children live up to the first that dies.  An explicit stack, since
        # a recursive walk is as deep as the pool is wide
        todo = [(0, 0)]  # (chosen bits, index of the least bit still open)
        while todo:
            chosen, i = todo.pop()
            if all(e & chosen for e in edges):
                yielded += 1
                if yielded > cap:
                    raise _cover_guard(w, event, len(bits),
                                       "cover enumeration", cap)
                yield chosen
            children = []
            for j in range(i, len(bits)):
                reach = chosen | later[j]
                if not all(e & reach for e in edges):
                    break
                children.append((chosen | bits[j], j + 1))
            todo += reversed(children)

    return covers()


def in_n_set(w: PowerState, event: str, target: PowerState,
             ctx: SynthesisContext) -> bool:
    """Membership test for the cover family, without enumeration."""
    edges = _edges(ctx.mask(w), event, ctx)
    return _admits(edges, reduce(or_, edges, 0), _fixpoint_mask(target, ctx))


def _minimal_masks(masks) -> list[int]:
    """The inclusion-minimal members of a family of bitmasks, fewest bits
    first: a mask is kept unless a kept one lies inside it."""
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def _antichain_order(masks) -> list[int]:
    """An antichain of pair masks in canonical order, that of power_states,
    with no bit_positions list per mask: at the lowest bit where two members
    differ, the one holding it sorts first by bit positions, and its reversed
    binary digits are the greater string there."""
    return sorted(masks, key=lambda m: bin(m)[:1:-1], reverse=True)


def _minimal_transversals(edges: list[int]) -> list[int]:
    """Minimal transversals (hitting sets) of a family of bitmask edges.

    Bits of singleton edges are forced; edges they hit, duplicates and
    supersets of other edges are dropped.  The rest splits into connected
    components, two edges connecting when they share a bit; the minimal
    transversals are the unions of one minimal transversal per component
    (Eiter & Gottlob 1995).  A one-edge component's are its single bits;
    only a larger component runs MMCS.  Each comes out once.
    """
    forced = 0
    for e in edges:
        if not e & (e - 1):
            forced |= e
    components: list[tuple[int, list[int]]] = []  # (bits, edges), disjoint
    for e in _minimal_masks({e for e in edges if not e & forced}):
        bits, members, apart = e, [e], []
        for comp in components:
            if comp[0] & e:
                bits |= comp[0]
                members += comp[1]
            else:
                apart.append(comp)
        apart.append((bits, members))
        components = apart
    out = [forced]
    for bits, members in components:
        part = ([1 << j for j in bit_positions(bits)] if len(members) == 1
                else _mmcs(members))
        out = [m | p for m in out for p in part]
    return out


def _mmcs(family: list[int]) -> list[int]:
    """Minimal transversals of an inclusion-minimal family of bitmask edges
    by MMCS (Murakami & Uno, DAM 2014) on an explicit stack, branching on
    the uncovered edge with the fewest candidates; a branch survives iff
    every chosen bit keeps a private edge.  Each comes out once."""
    out = []
    cand_all = 0
    for e in family:
        cand_all |= e
    stack = [(0, cand_all, family)]
    while stack:
        chosen, cand, uncovered = stack.pop()
        if not uncovered:
            out.append(chosen)
            continue
        branch = min(uncovered, key=lambda e: (e & cand).bit_count()) & cand
        rest = cand & ~branch
        todo = branch
        while todo:
            v = todo & -todo
            todo ^= v
            grown = chosen | v
            private = 0
            for e in family:
                hit = e & grown
                if not hit & (hit - 1):
                    private |= hit
            if private == grown:
                # later branches may take v again; this one may not take
                # the members of the branch edge above v
                stack.append((grown, rest | (branch & (v - 1)),
                              [e for e in uncovered if not e & v]))
    return out


def minimal_covers(w: PowerState, event: str,
                   ctx: SynthesisContext) -> tuple[int, ...]:
    """Minimal members of the cover family, as pair masks in canonical order.

    A minimal cover is a minimal transversal of the obligations' answer
    masks over the fixpoint pairs.  The cover cap bounds the choice functions
    (the product of the answer counts), checked before anything is
    enumerated or looked up in the context's cache, so a trip is never
    cached.
    """
    edges = _edges(ctx.mask(w), event, ctx)
    if not all(edges):
        return ()
    cap = ctx.guards.max_covers
    choices = 1
    for e in edges:
        choices *= e.bit_count()
        if choices > cap:
            raise _cover_guard(w, event, reduce(or_, edges, 0).bit_count(),
                               "choice-function enumeration", cap)
    return ctx.minimal_transversals(edges)


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
    # the product of the sorted partner lists is already canonical: every
    # PowerState lists its pairs by the same sorted initial plant states
    return [frozenset(zip(x0s, combo)) for combo in itertools.product(*options)]


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


def _explore(ctx: SynthesisContext, initial, step, state, tag: str,
             notes: tuple[str, ...] = ()) -> SupervisorAutomaton:
    """Breadth-first construction of a supervisor from its initial keys.

    The walk knows a state by a hashable key: step(key) yields (event,
    target keys) for each edge bundle leaving it.  state(key) makes the id
    and payload of a state once the walk is over, once per state kept.  The
    initial states are all kept; reaching any other new state when the
    supervisor already holds max_states trips the state cap, and only that
    state is named before the walk ends, for the message.
    """
    keys = list(dict.fromkeys(initial))
    index = {key: i for i, key in enumerate(keys)}
    n_init = len(keys)
    cap = ctx.guards.max_states
    # source, event and target index of each edge, one after another in a
    # flat list, which holds no tuple per edge; the automaton's frozenset
    # drops any repeat
    edges = []
    for src, key in enumerate(keys):  # keys grows as the walk reaches states
        for ev, targets in step(key):
            for target in targets:
                i = index.get(target)
                if i is None:
                    if len(keys) >= cap:
                        raise ExplosionGuardError(
                            "supervisor state cap %d exceeded when reaching %s"
                            % (cap, state(target)[0]))
                    i = index[target] = len(keys)
                    keys.append(target)
                edges += (src, ev, i)
    ids, payloads = [], {}
    for key in keys:
        sid, p = state(key)
        ids.append(sid)
        payloads[sid] = p
    triples = iter(edges)
    # ids are rendered from the plant's and spec's valid ids
    auto = Automaton._of_valid_ids(
        frozenset(ids), ctx.plant.alphabet,
        frozenset([(ids[a], ev, ids[b])
                   for a, ev, b in zip(triples, triples, triples)]),
        frozenset(ids[:n_init]))
    return SupervisorAutomaton(auto, payloads, tag, ctx.guards, notes)


def build(ctx: SynthesisContext, variant: str = "takai") -> SupervisorAutomaton:
    """Breadth-first construction of the reachable supervisor.

    takai: edges to every minimal cover.  variant1: edges to every cover.
    States are keyed by pair mask, and clauses (a) and (b) are read off the
    events' gates.
    """
    if variant not in ("takai", "variant1"):
        raise InputError("unknown variant %r" % variant)
    gates = [(ev, *ctx.gates(ev)) for ev in ctx.plant.alphabet.events]

    def step(mask):
        w = ctx.power_state(mask)
        for ev, enabling, blocked in gates:
            if mask & enabling and not mask & blocked:
                if variant == "takai":
                    yield ev, minimal_covers(w, ev, ctx)
                else:
                    # drawn in full, so a cover-cap trip comes before any
                    # state of the bundle is reached
                    yield ev, list(n_set_members(w, ev, ctx))

    def state(mask):
        w = ctx.power_state(mask)
        return render_pairs(w), w

    return _explore(ctx, map(ctx.mask, initial_power_states(ctx)), step,
                    state, variant)


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
    pruned = Automaton._of_valid_ids(a.states, a.alphabet, frozenset(keep),
                                     a.initial)
    return SupervisorAutomaton(pruned, dict(sup.payloads),
                               "tilde-of-" + sup.construction_tag,
                               sup.guards, sup.notes)


def disabled_move(loop: Automaton, g: Automaton):
    """The lexicographically least ((y,x), event) of a closed loop at which
    the plant can take an uncontrollable event and the loop cannot, or None."""
    uc = sorted(g.alphabet.uncontrollable)
    for pid in loop.sorted_states:
        pair = split_product_id(pid)
        for ev in uc:
            if g.succ.get((pair.right, ev)) and not loop.succ.get((pid, ev)):
                return (pair, ev)
    return None


def verdict_loop(s: Automaton, g: Automaton) -> Automaton:
    """The closed loop on which verdicts about s are read: that of s's
    bisimulation quotient with g.

    Bisimilarity is a congruence for synchronous composition and lies inside
    the simulation preorder both ways, and bisimilar states enable the same
    events, so admissibility, SP membership and every loop-below-loop answer
    taken on it are those of the full loop S||G.  Witnesses and relations
    come from the full loop.
    """
    return compose(bisim_quotient(s), g)


def is_admissible(s: Automaton, g: Automaton):
    """Whether the closed loop never disables an uncontrollable plant move.

    Returns (True, None) or (False, ((y,x), event)) with the lexicographically
    least reachable violation.  The verdict is read off verdict_loop(s, g);
    only a no composes the full loop S||G, for the witness.
    """
    if disabled_move(verdict_loop(s, g), g) is None:
        return True, None
    return False, disabled_move(compose(s, g), g)


def in_sp(s: Automaton, g: Automaton, r: Automaton) -> bool:
    """Supervisor membership: admissible and the closed loop is simulated by
    the spec."""
    loop = verdict_loop(s, g)
    return disabled_move(loop, g) is None and simulates(loop, r, "full")


def more_permissive(s1: Automaton, s2: Automaton, g: Automaton) -> bool:
    """True iff s2's closed loop simulates s1's: s1||G below s2||G."""
    return simulates(verdict_loop(s1, g), verdict_loop(s2, g), "full")


def supervisor_from_pair_sets(alphabet, initial_sets, edges, tag: str = "user",
                              guards: Guards = Guards()) -> SupervisorAutomaton:
    """Assemble a SupervisorAutomaton from explicit pair-set states and
    (source pair-set, event, target pair-set) edges; used for hand-built
    automata and parsed user supervisors."""
    auto = Automaton.build(
        alphabet,
        [(render_pairs(a), ev, render_pairs(b)) for (a, ev, b) in edges],
        map(render_pairs, initial_sets))
    payloads = payloads_from_ids(auto)
    if payloads is None:
        raise InputError("a pair set pairs something other than two state ids")
    return SupervisorAutomaton(auto, payloads, tag, guards)


def payloads_from_ids(a: Automaton) -> dict[str, PowerState] | None:
    """Recover pair-set payloads from rendered state ids, or None when some id
    is not a pair-set rendering."""
    try:
        return {s: parse_pairs(s) for s in a.states}
    except InputError:
        return None
