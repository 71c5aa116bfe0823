"""Command-line front end.

Subcommands: check, synthesize, verify, compose, random, export-dot.
Exit codes: 0 success / property holds, 1 property fails, 2 input error,
3 explosion guard or rejection limit tripped, or recursion depth or memory
exhausted.

Guard caps resolve in order: command-line flag, config file (key=value lines,
'#' comments), environment (SIMSUP_MAX_STATES / SIMSUP_MAX_COVERS), default.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import sys

from . import __version__
from .autfile import (format_automaton, load_automaton, read_text,
                      save_automaton, write_sidecar)
from .automata import compose
from .dot import check_label_width, to_dot
from .errors import (ExplosionGuardError, InputError, RejectionLimitError,
                     SynthesisPreconditionError)
from .grcheck import CLAUSE_ORDER, check_saturated
from .partial import build_partial
from .randgen import check_max_rejects, random_pair, random_uc_pair
from .simulation import check_simulation, simulates
from .synthesis import (Guards, SupervisorAutomaton, SynthesisContext, build,
                        disabled_move, is_admissible, payloads_from_ids,
                        prune_deadlocks, verdict_loop)

ENV_MAX_STATES = "SIMSUP_MAX_STATES"
ENV_MAX_COVERS = "SIMSUP_MAX_COVERS"


def _read_config_file(path: str) -> dict[str, str]:
    table = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError("config %s line %d: expected key=value"
                             % (path, lineno))
        key, value = line.split("=", 1)
        name = key.strip().replace("-", "_")
        if name not in ("max_states", "max_covers"):
            raise InputError("config %s line %d: unknown key %r "
                             "(known: max_states, max_covers)"
                             % (path, lineno, key.strip()))
        table[name] = value.strip().strip('"')
    return table


def _positive_int(label: str, value) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise InputError("%s must be an integer, got %r" % (label, value)) from None
    if out <= 0:
        raise InputError("%s must be positive, got %d" % (label, out))
    return out


def resolve_guards(args) -> Guards:
    config = _read_config_file(args.config) if args.config else {}
    defaults = Guards()

    def pick(flag_value, key, env_name, fallback):
        if flag_value is not None:
            return _positive_int(key, flag_value)
        if key in config:
            return _positive_int(key, config[key])
        if env_name in os.environ:
            return _positive_int(env_name, os.environ[env_name])
        return fallback

    return Guards(
        max_states=pick(args.max_states, "max_states", ENV_MAX_STATES,
                        defaults.max_states),
        max_covers=pick(args.max_covers, "max_covers", ENV_MAX_COVERS,
                        defaults.max_covers),
    )


def _add_guard_options(sub) -> None:
    sub.add_argument("--max-states", type=int, default=None,
                     help="cap on materialized supervisor states")
    sub.add_argument("--max-covers", type=int, default=None,
                     help="cap on enumerated covers per state and event")
    sub.add_argument("--config", default=None,
                     help="key=value config file for guard caps")


def _print_relation(rel, label: str) -> None:
    print("%s (%d pairs):" % (label, len(rel)))
    for (x, z) in rel.sorted_pairs:
        print("  (%s,%s)" % (x, z))


def cmd_check(args) -> int:
    plant = load_automaton(args.plant)
    spec = load_automaton(args.spec)
    rel = check_simulation(plant, spec, args.mode)
    holds = rel is not None
    if args.format == "json":
        body = {"mode": args.mode, "holds": holds,
                "relation": rel.to_json() if holds else None}
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0 if holds else 1
    kind = "uc-simulation" if args.mode == "uc" else "simulation"
    print("verdict: %s %s" % (kind, "holds" if holds else "does not hold"))
    if holds:
        label = ("greatest uc-simulation (the matching fixpoint)"
                 if args.mode == "uc" else "greatest simulation relation")
        _print_relation(rel, label)
    else:
        print("  (no relation covers every initial plant state; "
              "first initial state: %s)" % min(plant.initial))
    return 0 if holds else 1


def cmd_synthesize(args) -> int:
    if args.partial and args.variant is not None:
        raise InputError("--variant does not apply to the --partial construction")
    check_label_width(args.max_label_width)
    plant = load_automaton(args.plant)
    spec = load_automaton(args.spec)
    guards = resolve_guards(args)
    if args.partial:
        sup = build_partial(plant, spec, guards)
    else:
        sup = build(SynthesisContext(plant, spec, guards), args.variant or "takai")
    if args.prune_deadlocks:
        sup = prune_deadlocks(sup)
    aut_path = args.out + ".aut"
    save_automaton(sup.automaton, aut_path)
    write_sidecar(sup, plant, spec, args.out + ".json")
    written = [aut_path, args.out + ".json"]
    if args.dot:
        with open(args.out + ".dot", "w", encoding="utf-8") as fh:
            fh.write(to_dot(sup.automaton, max_label_width=args.max_label_width))
        written.append(args.out + ".dot")
    print("construction: %s" % sup.construction_tag)
    print("states: %d  transitions: %d"
          % (len(sup.automaton.states), len(sup.automaton.transitions)))
    for path in written:
        print("wrote %s" % path)
    return 0


def cmd_verify(args) -> int:
    sup_auto = load_automaton(args.supervisor)
    plant = load_automaton(args.plant)
    spec = load_automaton(args.spec)
    guards = resolve_guards(args)

    # each verdict loop is composed once and serves every check below; a
    # witness needs the full loop, which is_admissible composes
    loop = verdict_loop(sup_auto, plant)
    admissible = disabled_move(loop, plant) is None
    witness = None if admissible else is_admissible(sup_auto, plant)[1]
    member = admissible and simulates(loop, spec, "full")
    ctx = SynthesisContext(plant, spec, guards)
    payloads = payloads_from_ids(sup_auto)
    report = None
    if payloads is not None:
        user = SupervisorAutomaton(sup_auto, payloads, "user", guards)
        report = check_saturated(user, plant, spec, ctx)
    if member and report is not None and report.verdict == "saturated":
        # a saturated (G,R)-automaton in SP is maximally permissive, so its
        # loop and a takai build's are mutually similar: no build is needed
        below = above = True
    else:
        takai_loop = verdict_loop(build(ctx, "takai").automaton, plant)
        below = simulates(loop, takai_loop, "full")
        above = simulates(takai_loop, loop, "full")

    # every verdict is in hand before the first line, so an input error or a
    # guard trip above leaves stdout empty
    print("admissible: %s" % ("yes" if admissible else "no"))
    if witness is not None:
        print("  witness: uncontrollable %r disabled at product state (%s,%s)"
              % (witness[1], witness[0].left, witness[0].right))
    print("in SP (admissible and loop below spec): %s" % ("yes" if member else "no"))
    ok_all = member
    if report is None:
        print("gr-check: skipped (state ids are not pair-set renderings)")
    else:
        print("gr-check verdict: %s" % report.verdict)
        for clause in CLAUSE_ORDER:
            failures = report.failures_for(clause)
            flag = "ok" if not failures else "FAIL"
            print("  clause %-7s %s" % (clause, flag))
            for failure in failures:
                print("    witness: %s" % (failure.to_json()["witness"],))
        for note in report.warnings:
            print("  note: %s" % note)
        ok_all = ok_all and report.verdict == "saturated"
    print("loop below takai loop: %s" % ("yes" if below else "no"))
    print("takai loop below this loop (maximality surrogate): %s"
          % ("yes" if above else "no"))
    ok_all = ok_all and below and above
    return 0 if ok_all else 1


def cmd_compose(args) -> int:
    left = load_automaton(args.left)
    right = load_automaton(args.right)
    product = compose(left, right, full=args.full)
    if args.out:
        save_automaton(product, args.out)
        print("wrote %s (%d states, %d transitions)"
              % (args.out, len(product.states), len(product.transitions)))
    else:
        sys.stdout.write(format_automaton(product))
    return 0


def cmd_random(args) -> int:
    check_max_rejects(args.max_rejects)
    kwargs = dict(plant_states=args.states, spec_states=args.spec_states,
                  n_events=args.events,
                  controllable_ratio=args.controllable_ratio,
                  density=args.density, spec_density=args.spec_density,
                  observable_ratio=args.observable_ratio,
                  n_initial=args.initial)
    if args.require_uc_sim:
        plant, spec, attempts = random_uc_pair(args.seed,
                                               max_rejects=args.max_rejects,
                                               **kwargs)
        print("accepted after %d attempt(s); plant is uc-similar to spec" % attempts)
    else:
        plant, spec = random_pair(args.seed, **kwargs)
    plant_path = args.out + "_plant.aut"
    spec_path = args.out + "_spec.aut"
    save_automaton(plant, plant_path)
    save_automaton(spec, spec_path)
    print("wrote %s" % plant_path)
    print("wrote %s" % spec_path)
    return 0


def cmd_export_dot(args) -> int:
    auto = load_automaton(args.file)
    text = to_dot(auto, max_label_width=args.max_label_width)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote %s" % args.out)
    else:
        sys.stdout.write(text)
    return 0


def _fill_check(p) -> None:
    p.add_argument("plant")
    p.add_argument("spec")
    p.add_argument("--mode", choices=("uc", "full"), default="uc")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check)


def _fill_synthesize(p) -> None:
    p.add_argument("plant")
    p.add_argument("spec")
    # no default, so that --partial can tell an explicit --variant apart
    p.add_argument("--variant", choices=("takai", "variant1"))
    p.add_argument("--prune-deadlocks", action="store_true")
    p.add_argument("--partial", action="store_true",
                   help="partial-observation construction over triple states")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--dot", action="store_true", help="also write a DOT file")
    p.add_argument("--max-label-width", type=int, default=40)
    _add_guard_options(p)
    p.set_defaults(func=cmd_synthesize)


def _fill_verify(p) -> None:
    p.add_argument("supervisor")
    p.add_argument("plant")
    p.add_argument("spec")
    _add_guard_options(p)
    p.set_defaults(func=cmd_verify)


def _fill_compose(p) -> None:
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--full", action="store_true",
                   help="materialize the full product, not only the reachable part")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compose)


def _fill_random(p) -> None:
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--spec-states", type=int, default=4)
    p.add_argument("--events", type=int, default=2)
    p.add_argument("--controllable-ratio", type=float, default=0.5)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--spec-density", type=float, default=None)
    p.add_argument("--observable-ratio", type=float, default=1.0)
    p.add_argument("--initial", type=int, default=1)
    p.add_argument("--require-uc-sim", action="store_true",
                   help="rejection-sample until the plant is uc-similar to the spec")
    p.add_argument("--max-rejects", type=int, default=500)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_random)


def _fill_export_dot(p) -> None:
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.add_argument("--max-label-width", type=int, default=40)
    p.set_defaults(func=cmd_export_dot)


@functools.cache
def _prototype() -> argparse.ArgumentParser:
    """The whole parser, every subcommand with its arguments, built once per
    process.

    `set_defaults(func=cmd_*)` binds each function when the prototype is
    built, so a test that replaces behaviour patches what a `cmd_*` calls
    (`cli.build`, `cli.check_simulation`), not `cli.cmd_*` itself.
    """
    parser = argparse.ArgumentParser(
        prog="simsup",
        description="Supervisor synthesis and verification for the similarity "
                    "control problem over nondeterministic finite automata.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    _fill_check(subs.add_parser(
        "check", help="decide the (uc-)simulation preorder"))
    _fill_synthesize(subs.add_parser("synthesize", help="build a supervisor"))
    _fill_verify(subs.add_parser(
        "verify",
        help="verify a supervisor file; exit 0 iff admissible, in SP, "
             "saturated (when state ids parse as pair sets) and mutually "
             "permissive with a takai build, made only when the supervisor "
             "is not both saturated and in SP"))
    _fill_compose(subs.add_parser(
        "compose", help="synchronous composition of two automata"))
    _fill_random(subs.add_parser(
        "random", help="emit a seeded random plant/spec pair"))
    _fill_export_dot(subs.add_parser(
        "export-dot", help="render an automaton file as DOT"))
    return parser


def build_parser() -> argparse.ArgumentParser:
    """A new parser for one call: a shallow copy of the process-wide prototype.

    Every copy shares the prototype's actions and subcommand parsers, so the
    parser is built once per process (see `_prototype`, also for why tests
    patch what a `cmd_*` calls), and parsing changes none of them. A copy has
    its own `__dict__`: a caller may rebind attributes on it, as
    bench/tracer.py rebinds `parse_args` on each parser this returns, without
    reaching the prototype. Caching the parser itself would stack one such
    wrapper per call.
    """
    return copy.copy(_prototype())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SynthesisPreconditionError as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return 1
    except (ExplosionGuardError, RejectionLimitError) as exc:
        print("guard tripped: %s" % exc, file=sys.stderr)
        return 3
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("resource limit: recursion depth exceeded", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
