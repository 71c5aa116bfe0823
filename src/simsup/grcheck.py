"""Structural verification of supervisor automata over PowerState payloads.

check_gr validates the defining clauses of a supervisor automaton for a
(plant, spec) context: payloads inside the fixpoint (state), initial payloads
over initial pairs with full plant coverage (istate), mandatory edges where
both enabling clauses hold (6-a), and every edge landing in the cover family
of its source (6-b).  check_saturated adds the maximal-permissiveness side:
every initial choice function present (sistate) and, wherever an event leaves
a state, an edge below every cover (6-c; checked against the minimal covers,
which is equivalent on finite inputs).  Reports carry every failure with a
lexicographically least witness per offence, in fixed clause order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .automata import Automaton, reachable
from .errors import InputError
from .synthesis import (SupervisorAutomaton, SynthesisContext, _admits,
                        _edges, _fixpoint_mask, initial_power_states,
                        minimal_covers, render_pairs)

CLAUSE_ORDER = ("state", "istate", "6-a", "6-b", "sistate", "6-c")


@dataclass
class ClauseFailure:
    clause: str
    witness: tuple

    def to_json(self):
        return {"clause": self.clause, "witness": _witness_json(self.witness)}


def _witness_json(item):
    if isinstance(item, frozenset):
        return render_pairs(item)
    if isinstance(item, tuple):
        return [_witness_json(x) for x in item]
    return item


@dataclass
class GrReport:
    verdict: str  # not-gr | gr-unsaturated | saturated
    clause_failures: list[ClauseFailure] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.clause_failures

    def failures_for(self, clause: str) -> list[ClauseFailure]:
        return [f for f in self.clause_failures if f.clause == clause]

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "clause_failures": [f.to_json() for f in self.clause_failures],
                "warnings": list(self.warnings)}


def _context_for(sup: SupervisorAutomaton, plant: Automaton, spec: Automaton,
                 ctx: SynthesisContext | None) -> SynthesisContext:
    if ctx is None:
        ctx = SynthesisContext(plant, spec, sup.guards)
    if ctx.plant != plant or ctx.spec != spec:
        raise InputError("context does not match the given plant and spec")
    return ctx


def _payloads(sup: SupervisorAutomaton, plant: Automaton, spec: Automaton) -> dict:
    for state in sup.automaton.states:
        pay = sup.payloads.get(state)
        if pay is None or not isinstance(pay, frozenset):
            raise InputError("state %r has no PowerState payload" % state)
        for (x, z) in pay:
            if x not in plant.states or z not in spec.states:
                raise InputError(
                    "payload pair (%s,%s) of state %r lies outside the plant "
                    "and spec state sets" % (x, z, state))
    return sup.payloads


def _gr(sup: SupervisorAutomaton, plant: Automaton, spec: Automaton,
        ctx: SynthesisContext | None):
    """The gr clauses, with what they derive: (ctx, payloads, their pair
    masks, live states, report).  One walk over the live (state, event)
    pairs judges 6-a, on the payload mask against the event's gates, where
    the state has no edge under the event, and 6-b, on masks, where it has
    some."""
    ctx = _context_for(sup, plant, spec, ctx)
    payloads = _payloads(sup, plant, spec)
    auto = sup.automaton
    live = reachable(auto)
    failures: list[ClauseFailure] = []
    warnings: list[str] = []
    hidden = len(auto.states) - len(live)
    if hidden:
        warnings.append("%d unreachable state(s) ignored by reachable-state clauses"
                        % hidden)

    masks = {}  # state id -> payload mask, None when it leaves the fixpoint
    for sid in auto.sorted_states:
        masks[sid] = _fixpoint_mask(payloads[sid], ctx)
        if masks[sid] is None:
            failures.append(ClauseFailure(
                "state", (sid, min(payloads[sid] - ctx.w_up))))

    x0s = sorted(plant.initial)
    z0s = frozenset(spec.initial)
    for sid in sorted(auto.initial):
        pay = payloads[sid]
        bad = sorted(p for p in pay if p[0] not in plant.initial or p[1] not in z0s)
        if bad:
            failures.append(ClauseFailure("istate", (sid, ("outside", bad[0]))))
            continue
        covered = {x for (x, _) in pay}
        for x0 in x0s:
            if x0 not in covered:
                failures.append(ClauseFailure("istate", (sid, ("uncovered", x0))))
                break

    missing, stray = [], []  # 6-a and 6-b failures
    gates = [(ev, *ctx.gates(ev)) for ev in auto.alphabet.events]
    for sid in sorted(live):
        mask = masks[sid]
        if mask is None:
            continue
        for ev, enabling, blocked in gates:
            targets = auto.succ.get((sid, ev))
            if targets:
                edges = _edges(mask, ev, ctx)
                pool = reduce(or_, edges, 0)
                stray += [ClauseFailure("6-b", (sid, ev, tgt)) for tgt in targets
                          if not _admits(edges, pool, masks[tgt])]
            elif mask & enabling and not mask & blocked:
                missing.append(ClauseFailure("6-a", (sid, ev)))
    failures += missing + stray

    verdict = "not-gr" if failures else "gr-unsaturated"
    return ctx, payloads, masks, live, GrReport(verdict, failures, warnings)


def check_gr(sup: SupervisorAutomaton, plant: Automaton, spec: Automaton,
             ctx: SynthesisContext | None = None) -> GrReport:
    """Check the supervisor-automaton clauses; verdict 'not-gr' on any
    failure, else 'gr-unsaturated' (the strongest claim this check makes)."""
    return _gr(sup, plant, spec, ctx)[4]


def check_saturated(sup: SupervisorAutomaton, plant: Automaton, spec: Automaton,
                    ctx: SynthesisContext | None = None) -> GrReport:
    """check_gr plus the saturation clauses.  Verdict 'saturated' iff nothing
    fails; gr failures short-circuit the saturation clauses."""
    ctx, payloads, masks, live, report = _gr(sup, plant, spec, ctx)
    if not report.ok:
        return report
    auto = sup.automaton
    failures: list[ClauseFailure] = []

    initial_payloads = {payloads[sid] for sid in auto.initial}
    # the gr clauses have passed, so every initial plant state has a partner
    # and the enumeration cannot raise the precondition error
    for fn in initial_power_states(ctx):
        if fn not in initial_payloads:
            failures.append(ClauseFailure("sistate", (fn,)))

    for sid in sorted(live):
        w = payloads[sid]
        for ev in auto.alphabet.events:
            targets = auto.succ.get((sid, ev))
            if not targets:
                continue
            target_masks = [masks[t] for t in targets]
            exact = set(target_masks)
            # a saturated supervisor mostly has each cover as a target
            for cover in minimal_covers(w, ev, ctx):
                if cover not in exact and \
                        not any(t & cover == t for t in target_masks):
                    failures.append(ClauseFailure(
                        "6-c", (sid, ev, ctx.power_state(cover))))

    verdict = "saturated" if not failures else "gr-unsaturated"
    return GrReport(verdict, report.clause_failures + failures, report.warnings)
