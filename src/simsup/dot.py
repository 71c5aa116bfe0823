"""Graphviz DOT rendering of automata."""

from __future__ import annotations

from .automata import Automaton
from .errors import InputError


def _quote(text: str) -> str:
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def check_label_width(width: int) -> None:
    """A label abbreviated to width characters keeps at least one of its own
    before the "..."."""
    if width < 4:
        raise InputError("max_label_width must be at least 4, got %d" % width)


def _label(state: str, width: int) -> str:
    if len(state) > width:
        return state[:width - 3] + "..."
    return state


def to_dot(a: Automaton, max_label_width: int = 40, name: str = "automaton") -> str:
    """Deterministic DOT text: nodes in sorted state order, state ids longer
    than max_label_width (at least 4) abbreviated to exactly that width."""
    check_label_width(max_label_width)
    index = {state: "n%d" % i for i, state in enumerate(a.sorted_states)}
    lines = ["digraph %s {" % _quote(name), "  rankdir=LR;"]
    for i, state in enumerate(sorted(a.initial)):
        lines.append("  __init%d [shape=point, label=\"\"];" % i)
    for state in a.sorted_states:
        lines.append("  %s [label=%s, shape=%s];"
                     % (index[state], _quote(_label(state, max_label_width)),
                        "circle" if len(state) <= 4 else "box"))
    for i, state in enumerate(sorted(a.initial)):
        lines.append("  __init%d -> %s;" % (i, index[state]))
    for (src, ev, tgt) in sorted(a.transitions):
        lines.append("  %s -> %s [label=%s];" % (index[src], index[tgt], _quote(ev)))
    lines.append("}")
    return "\n".join(lines) + "\n"
