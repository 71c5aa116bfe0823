"""Plain-text automaton files and the JSON sidecar written next to supervisors.

Grammar (one statement per line, '#' starts a comment, blank lines ignored):

    events:  NAME:CTRL[:OBS] ("," NAME:CTRL[:OBS])*     CTRL in {c,uc}, OBS in {o,uo}
    states:  ID ("," ID)*                               optional, for isolated states
    initial: ID ("," ID)*
    trans:   ID -NAME-> ID

Statements may repeat and accumulate, but events must be declared before any
transition uses them; duplicate event declarations and empty initial sets are
rejected.  List commas split at bracket depth 0 only, so rendered pair-set
ids such as {(x0,z0),(x1,z1)} are ordinary state ids here.
"""

from __future__ import annotations

import hashlib
import json

from .automata import (Alphabet, Automaton, split_top_level, validate_event_name,
                       validate_state_id, _TRANS_RE)
from .errors import InputError, ParseError
from .partial import TripleState


def parse_automaton(text: str) -> Automaton:
    events: dict[str, tuple[bool, bool]] = {}  # name -> (controllable, observable)
    states: set[str] = set()
    initial: set[str] = set()
    transitions: set[tuple[str, str, str]] = set()
    checked: set[str] = set()  # state ids already validated

    def state_id(name: str) -> str:
        if name not in checked:
            checked.add(validate_state_id(name))
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("events:"):
                for item in split_top_level(line[len("events:"):]):
                    if not item:
                        raise InputError("empty event declaration")
                    parts = item.split(":")
                    if len(parts) not in (2, 3):
                        raise InputError("bad event declaration %r" % item)
                    name = validate_event_name(parts[0].strip())
                    ctrl = parts[1].strip()
                    obs = parts[2].strip() if len(parts) == 3 else "o"
                    if ctrl not in ("c", "uc"):
                        raise InputError("controllability of %r must be c or uc" % name)
                    if obs not in ("o", "uo"):
                        raise InputError("observability of %r must be o or uo" % name)
                    if name in events:
                        raise InputError("duplicate event declaration %r" % name)
                    events[name] = (ctrl == "c", obs == "o")
            elif line.startswith("states:"):
                for item in split_top_level(line[len("states:"):]):
                    states.add(state_id(item))
            elif line.startswith("initial:"):
                for item in split_top_level(line[len("initial:"):]):
                    initial.add(state_id(item))
            elif line.startswith("trans:"):
                m = _TRANS_RE.match(line[len("trans:"):].strip())
                if not m:
                    raise InputError("bad transition %r" % line)
                src, ev, tgt = m.groups()
                state_id(src)
                if ev not in events:  # a declared name was validated then
                    validate_event_name(ev)
                state_id(tgt)
                if ev not in events:
                    raise InputError(
                        "undeclared event %r (declare events before use)" % ev)
                transitions.add((src, ev, tgt))
            else:
                raise InputError("unrecognized statement %r" % line)
        except InputError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if not events:
        raise ParseError("no events declared")
    alphabet = Alphabet.build(
        events, controllable=[e for e, (c, _) in events.items() if c],
        observable=[e for e, (_, o) in events.items() if o])
    states |= initial | {s for (s, _, _) in transitions} | {t for (_, _, t) in transitions}
    if not initial:
        raise ParseError("no initial states declared")
    # every id went through state_id above
    return Automaton._of_valid_ids(frozenset(states), alphabet,
                                   frozenset(transitions), frozenset(initial))


def format_automaton(a: Automaton) -> str:
    """Canonical rendering: sorted everywhere; parse(format(a)) == a."""
    decls = []
    for ev in a.alphabet.events:
        ctrl = "c" if ev in a.alphabet.controllable else "uc"
        obs = "o" if ev in a.alphabet.observable else "uo"
        decls.append("%s:%s:%s" % (ev, ctrl, obs))
    lines = ["events: " + ", ".join(decls),
             "states: " + ", ".join(a.sorted_states),
             "initial: " + ", ".join(sorted(a.initial))]
    for (src, ev, tgt) in sorted(a.transitions):
        lines.append("trans: %s -%s-> %s" % (src, ev, tgt))
    return "\n".join(lines) + "\n"


def read_text(path) -> str:
    """The contents of a UTF-8 text file; InputError naming the file when
    its bytes are not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError("%s is not UTF-8 text (byte 0x%02x at offset %d)"
                         % (path, data[exc.start], exc.start)) from None


def load_automaton(path) -> Automaton:
    return parse_automaton(read_text(path))


def save_automaton(a: Automaton, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_automaton(a))


def automaton_digest(a: Automaton) -> str:
    """sha256 of the canonical text form; identifies a context in sidecars."""
    return hashlib.sha256(format_automaton(a).encode("utf-8")).hexdigest()


def _sidecar_header(sup, plant: Automaton, spec: Automaton) -> dict:
    body = {
        "construction_tag": sup.construction_tag,
        "context": {
            "plant_sha256": automaton_digest(plant),
            "spec_sha256": automaton_digest(spec),
        },
        "guards": {
            "max_states": sup.guards.max_states,
            "max_covers": sup.guards.max_covers,
        },
    }
    if sup.notes:
        body["notes"] = list(sup.notes)
    return body


def _triple_payloads(sup):
    """(state id, TripleState) for the states with a triple payload, in
    sorted id order."""
    for state in sup.automaton.sorted_states:
        pay = sup.payloads[state]
        if isinstance(pay, TripleState):
            yield state, pay


def sidecar_payload(sup, plant: Automaton, spec: Automaton) -> dict:
    """JSON sidecar for a synthesized supervisor: construction tag, context
    digests, guard settings, and structured payloads for triple states."""
    body = _sidecar_header(sup, plant, spec)
    payloads = {state: {"w1": [list(p) for p in sorted(pay.w1)],
                        "gamma": sorted(pay.gamma_uo),
                        "w2": [list(p) for p in sorted(pay.w2)]}
                for state, pay in _triple_payloads(sup)}
    if payloads:
        body["payloads"] = payloads
    return body


def _json_list(items, indent: str) -> str:
    """The indent=2 JSON text of a list of already rendered items, at the
    nesting level whose lines start with indent."""
    if not items:
        return "[]"
    inner = ",\n%s  " % indent
    return "[\n%s  %s\n%s]" % (indent, inner.join(items), indent)


def write_sidecar(sup, plant: Automaton, spec: Automaton, path) -> None:
    """Write sidecar_payload(sup, plant, spec) as json.dump(..., indent=2,
    sort_keys=True) does, plus a newline.  The payloads, which sort last,
    are written state by state, each w1, w2 and gamma value rendered once
    per distinct set."""
    header = json.dumps(_sidecar_header(sup, plant, spec), indent=2,
                        sort_keys=True)
    quote = json.encoder.encode_basestring_ascii
    pair_sets: dict[frozenset, str] = {}
    gammas: dict[frozenset, str] = {}

    def pairs(w):  # a payload's w1 or w2
        text = pair_sets.get(w)
        if text is None:
            text = pair_sets[w] = _json_list(
                [_json_list([quote(x), quote(z)], " " * 8)
                 for x, z in sorted(w)], " " * 6)
        return text

    # with payloads, the header's closing brace moves past them
    opening = header[:-2] + ',\n  "payloads": {\n'
    with open(path, "w", encoding="utf-8") as fh:
        sep = opening
        for state, pay in _triple_payloads(sup):
            gamma = gammas.get(pay.gamma_uo)
            if gamma is None:
                gamma = gammas[pay.gamma_uo] = _json_list(
                    [quote(ev) for ev in sorted(pay.gamma_uo)], " " * 6)
            fh.write('%s    %s: {\n      "gamma": %s,\n      "w1": %s,\n'
                     '      "w2": %s\n    }'
                     % (sep, quote(state), gamma, pairs(pay.w1), pairs(pay.w2)))
            sep = ",\n"
        fh.write(header + "\n" if sep is opening else "\n  }\n}\n")
