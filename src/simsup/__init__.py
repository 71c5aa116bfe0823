"""Synthesis and verification for the similarity control problem.

Plants and specifications are nondeterministic finite automata over a shared
alphabet partitioned into controllable/uncontrollable and observable/
unobservable events.  The package decides simulation preorders, builds
supervisors by powerset constructions over the greatest uc-simulation
fixpoint, checks the generated-and-saturated clause conditions, and supports
a partial-observation variant over triple states.
"""

from .automata import (Alphabet, Automaton, ProductState, bisim_quotient,
                       compose, product_id, reach_via, reachable,
                       split_product_id, split_top_level, successors,
                       validate_event_name, validate_state_id)
from .autfile import (automaton_digest, format_automaton, load_automaton,
                      parse_automaton, save_automaton, sidecar_payload,
                      write_sidecar)
from .dot import to_dot
from .errors import (ExplosionGuardError, InputError, ParseError,
                     RejectionLimitError, SimsupError,
                     SynthesisPreconditionError)
from .grcheck import (CLAUSE_ORDER, ClauseFailure, GrReport, check_gr,
                      check_saturated)
from .partial import (TripleState, build_partial, gamma_candidates,
                      is_admissible_partial, minimal_u, sigma_y,
                      validate_triple)
from .randgen import (random_alphabet, random_automaton, random_pair,
                      random_uc_pair)
from .simulation import (Relation, check_simulation, f_step,
                         greatest_uc_fixpoint, is_simulation_relation, pi_g,
                         project_pi, simulates)
from .synthesis import (CoverFamily, Guards, SupervisorAutomaton,
                        SynthesisContext, build, clause_a, clause_b,
                        cover_family, in_n_set, in_sp, initial_power_states,
                        is_admissible, minimal_covers, more_permissive,
                        n_set_members, parse_pairs, payloads_from_ids,
                        prune_deadlocks, render_pairs,
                        supervisor_from_pair_sets)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Automaton", "ProductState", "bisim_quotient", "compose",
    "product_id",
    "reach_via", "reachable", "split_product_id", "split_top_level",
    "successors", "validate_event_name", "validate_state_id",
    "automaton_digest", "format_automaton", "load_automaton",
    "parse_automaton", "save_automaton", "sidecar_payload", "write_sidecar",
    "to_dot",
    "ExplosionGuardError", "InputError", "ParseError",
    "RejectionLimitError", "SimsupError",
    "SynthesisPreconditionError",
    "CLAUSE_ORDER", "ClauseFailure", "GrReport", "check_gr",
    "check_saturated",
    "TripleState", "build_partial", "gamma_candidates",
    "is_admissible_partial", "minimal_u", "sigma_y", "validate_triple",
    "random_alphabet", "random_automaton", "random_pair", "random_uc_pair",
    "Relation", "check_simulation", "f_step", "greatest_uc_fixpoint",
    "is_simulation_relation", "pi_g", "project_pi", "simulates",
    "CoverFamily", "Guards", "SupervisorAutomaton", "SynthesisContext",
    "build", "clause_a", "clause_b", "cover_family", "in_n_set", "in_sp",
    "initial_power_states", "is_admissible", "minimal_covers",
    "more_permissive", "n_set_members", "parse_pairs", "payloads_from_ids",
    "prune_deadlocks", "render_pairs", "supervisor_from_pair_sets",
    "__version__",
]
