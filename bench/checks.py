"""Output checks, run after the timed rounds and never inside them.

Every instance gets the fixpoint cross-check against the brute-force oracle
of `tests/oracles.py`.  Every supervisor written is read back and judged:
`pool` by the independent `oracle_in_sp` on small loops (its `verify` call
already judged it in the timed round), `covers` by `in_sp` and
`check_saturated`, `partial` by `is_admissible_partial` and `in_sp`.
"""

from __future__ import annotations

from simsup.autfile import load_automaton
from simsup.grcheck import check_saturated
from simsup.partial import is_admissible_partial
from simsup.simulation import greatest_uc_fixpoint
from simsup.synthesis import (Guards, SupervisorAutomaton, SynthesisContext,
                              in_sp, payloads_from_ids)
from tests.oracles import oracle_greatest_simulation, oracle_in_sp

# largest supervisor whose closed loop is judged by oracle_in_sp
ORACLE_MAX_STATES = 40


def check_fixpoint(plant, spec) -> str | None:
    expected = oracle_greatest_simulation(plant, spec,
                                          sorted(plant.alphabet.uncontrollable))
    if greatest_uc_fixpoint(plant, spec).pairs != expected:
        return "greatest_uc_fixpoint differs from the oracle fixpoint"
    return None


def check_supervisor(workload: str, sup_path, plant, spec) -> str | None:
    """None when the written supervisor is correct, else what is wrong."""
    sup = load_automaton(sup_path)
    if len(sup.states) <= ORACLE_MAX_STATES and not oracle_in_sp(sup, plant, spec):
        return "oracle_in_sp rejects the supervisor"
    if workload == "covers":
        if not in_sp(sup, plant, spec):
            return "in_sp rejects the supervisor"
        payloads = payloads_from_ids(sup)
        if payloads is None:
            return "state ids are not pair-set renderings"
        user = SupervisorAutomaton(sup, payloads, "user", Guards())
        verdict = check_saturated(user, plant, spec,
                                  SynthesisContext(plant, spec, Guards())).verdict
        if verdict != "saturated":
            return "check_saturated verdict %s" % verdict
    elif workload == "partial":
        ok, witness = is_admissible_partial(sup, plant)
        if not ok:
            return "is_admissible_partial fails at %r" % (witness,)
        if not in_sp(sup, plant, spec):
            return "in_sp rejects the supervisor"
    return None
