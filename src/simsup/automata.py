"""Nondeterministic finite automata over a shared event alphabet.

States are plain strings.  An alphabet partitions its events into
controllable/uncontrollable and observable/unobservable; transitions are
(source, event, target) triples and initial-state sets are nonempty.
Synchronous composition names product states "(y,x)"; brackets nest, so
composed and powerset-labelled states keep flowing through every operation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import InputError

# Characters with structural meaning in rendered ids and the file format.
_OPEN = {"(": ")", "{": "}", "<": ">"}
_CLOSE = {v: k for k, v in _OPEN.items()}
_FORBIDDEN = set(' \t\r\n"#:')
_SEPARATORS = set(",;|")  # legal only inside brackets
_EVENT_FORBIDDEN = frozenset(_FORBIDDEN | _SEPARATORS | set("(){}<>"))

_TRANS_RE = re.compile(r"^(?P<src>\S+)\s+-(?P<ev>\S+?)->\s+(?P<tgt>\S+)$")


def validate_state_id(name: str) -> str:
    """Check a state id: nonempty, no whitespace/quotes/#/:, brackets balanced,
    separators only inside brackets.  Returns the id unchanged."""
    if not name:
        raise InputError("empty state id")
    stack = []
    for ch in name:
        if ch in _FORBIDDEN:
            raise InputError("illegal character %r in state id %r" % (ch, name))
        if ch in _OPEN:
            stack.append(_OPEN[ch])
        elif ch in _CLOSE:
            if not stack or stack[-1] != ch:
                raise InputError("unbalanced %r in state id %r" % (ch, name))
            stack.pop()
        elif ch in _SEPARATORS and not stack:
            raise InputError(
                "separator %r outside brackets in state id %r" % (ch, name))
    if stack:
        raise InputError("unbalanced brackets in state id %r" % name)
    return name


def validate_event_name(name: str) -> str:
    if not name:
        raise InputError("empty event name")
    for ch in name:
        if ch in _EVENT_FORBIDDEN:
            raise InputError("illegal character %r in event name %r" % (ch, name))
    return name


def split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split on separators at bracket depth 0; used by the file parser and by
    product-id parsing.  Pieces are stripped."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in _OPEN:
            depth += 1
        elif ch in _CLOSE:
            depth -= 1
            if depth < 0:
                raise InputError("unbalanced %r in %r" % (ch, text))
        elif ch == sep and depth == 0:
            pieces.append(text[start:i].strip())
            start = i + 1
    if depth != 0:
        raise InputError("unbalanced brackets in %r" % text)
    pieces.append(text[start:].strip())
    return pieces


@dataclass(frozen=True)
class Alphabet:
    """Finite event set with controllability and observability attributes.

    events is kept sorted, so two alphabets over the same declarations compare
    equal regardless of declaration order.
    """

    events: tuple[str, ...]
    controllable: frozenset[str]
    observable: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(sorted(self.events)))
        object.__setattr__(self, "controllable", frozenset(self.controllable))
        object.__setattr__(self, "observable", frozenset(self.observable))
        if len(set(self.events)) != len(self.events):
            raise InputError("duplicate event declaration")
        for ev in self.events:
            validate_event_name(ev)
        for name, sub in (("controllable", self.controllable),
                          ("observable", self.observable)):
            extra = sub - set(self.events)
            if extra:
                raise InputError("%s events %s not declared" % (name, sorted(extra)))

    @staticmethod
    def build(events: Iterable[str], controllable: Iterable[str] = (),
              observable: Iterable[str] | None = None) -> "Alphabet":
        events = tuple(events)
        if observable is None:
            observable = events
        return Alphabet(events, frozenset(controllable), frozenset(observable))

    @cached_property
    def uncontrollable(self) -> frozenset[str]:
        return frozenset(self.events) - self.controllable

    @cached_property
    def unobservable(self) -> frozenset[str]:
        return frozenset(self.events) - self.observable


@dataclass(frozen=True)
class Automaton:
    """Nondeterministic automaton (states, alphabet, transitions, initial).

    Immutable; adjacency is cached on first use.  The initial set must be
    nonempty (empty languages of control decisions are rejected up front).
    """

    states: frozenset[str]
    alphabet: Alphabet
    transitions: frozenset[tuple[str, str, str]]
    initial: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "initial", frozenset(self.initial))
        for s in self.states:
            validate_state_id(s)
        self._check_structure()

    @classmethod
    def _of_valid_ids(cls, states: frozenset[str], alphabet: Alphabet,
                      transitions: frozenset[tuple[str, str, str]],
                      initial: frozenset[str]) -> "Automaton":
        """An Automaton whose state ids are known valid: parsed ids already
        checked, or ids rendered from valid ones.  Makes every check but
        validate_state_id."""
        a = object.__new__(cls)
        object.__setattr__(a, "states", states)
        object.__setattr__(a, "alphabet", alphabet)
        object.__setattr__(a, "transitions", transitions)
        object.__setattr__(a, "initial", initial)
        a._check_structure()
        return a

    def _check_structure(self):
        if not self.initial:
            raise InputError("initial state set is empty")
        if not self.initial <= self.states:
            raise InputError("initial states %s not declared"
                             % sorted(self.initial - self.states))
        evs = set(self.alphabet.events)
        for (src, ev, tgt) in self.transitions:
            if src not in self.states or tgt not in self.states:
                raise InputError("transition (%s,%s,%s) uses undeclared state"
                                 % (src, ev, tgt))
            if ev not in evs:
                raise InputError("transition (%s,%s,%s) uses undeclared event"
                                 % (src, ev, tgt))

    @staticmethod
    def build(alphabet: Alphabet,
              transitions: Iterable[tuple[str, str, str]],
              initial: Iterable[str],
              states: Iterable[str] | None = None) -> "Automaton":
        """States default to everything mentioned in transitions or initial."""
        transitions = frozenset(transitions)
        initial = frozenset(initial)
        if states is None:
            states = {s for (s, _, _) in transitions}
            states |= {t for (_, _, t) in transitions}
            states |= initial
        return Automaton(frozenset(states), alphabet, transitions, initial)

    @cached_property
    def succ(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """(state, event) -> sorted tuple of targets."""
        table: dict[tuple[str, str], list[str]] = {}
        for (src, ev, tgt) in self.transitions:
            table.setdefault((src, ev), []).append(tgt)
        return {k: tuple(sorted(v)) for k, v in table.items()}

    @cached_property
    def sorted_states(self) -> tuple[str, ...]:
        return tuple(sorted(self.states))


def successors(a: Automaton, state: str, event: str) -> tuple[str, ...]:
    """All targets of state under event, sorted (empty tuple when none)."""
    if state not in a.states:
        raise InputError("unknown state %r" % state)
    if event not in a.alphabet.events:
        raise InputError("unknown event %r" % event)
    return a.succ.get((state, event), ())


def is_deadlock(a: Automaton, state: str) -> bool:
    """True iff no event is enabled at state."""
    if state not in a.states:
        raise InputError("unknown state %r" % state)
    return all((state, ev) not in a.succ for ev in a.alphabet.events)


class ProductState(NamedTuple):
    left: str
    right: str


def product_id(left: str, right: str) -> str:
    return "(%s,%s)" % (left, right)


def split_product_id(pid: str) -> ProductState:
    """Inverse of product_id; relies on the bracket discipline of state ids."""
    if not (pid.startswith("(") and pid.endswith(")")):
        raise InputError("not a product state id: %r" % pid)
    parts = split_top_level(pid[1:-1])
    if len(parts) != 2:
        raise InputError("not a product state id: %r" % pid)
    return ProductState(parts[0], parts[1])


def compose(s: Automaton, g: Automaton, full: bool = False) -> Automaton:
    """Synchronous composition S||G: both components step on every event.

    Default materializes the reachable part only; full=True materializes all
    of S.states x G.states (used by brute-force checkers).
    """
    if s.alphabet != g.alphabet:
        raise InputError("composition requires identical alphabets")
    events = s.alphabet.events
    init = frozenset(product_id(y, x) for y in s.initial for x in g.initial)
    if full:
        pairs = [(y, x) for y in s.sorted_states for x in g.sorted_states]
    else:
        pairs = [(y, x) for y in s.initial for x in g.initial]
    seen = set(pairs)
    trans = set()
    for (y, x) in pairs:  # grows while walked: a breadth-first search
        src = product_id(y, x)
        for ev in events:
            for y1 in s.succ.get((y, ev), ()):
                for x1 in g.succ.get((x, ev), ()):
                    if (y1, x1) not in seen:
                        seen.add((y1, x1))
                        pairs.append((y1, x1))
                    trans.add((src, ev, product_id(y1, x1)))
    return Automaton._of_valid_ids(
        frozenset(product_id(y, x) for (y, x) in pairs), s.alphabet,
        frozenset(trans), init)


def bisim_quotient(a: Automaton) -> Automaton:
    """Quotient of a by its greatest strong bisimulation over all events.

    Signature refinement (Kanellakis & Smolka 1990): blocks are split by the
    set of (event, successor block) moves of their members until no block
    splits.  Only states with a successor that changed block are signed
    again, so a chain that splits one block per round costs linear work, not
    quadratic.  A class is named by its least member, so every quotient id
    is one of a's ids; transitions and initial states are the images of
    a's.  The quotient is bisimilar to a, so any closed loop or simulation
    verdict taken on it is a's verdict.  Returns a itself when no two states
    are bisimilar.
    """
    states = a.sorted_states
    index = {s: i for i, s in enumerate(states)}
    moves = [[] for _ in states]
    preds = [[] for _ in states]
    for (src, ev, tgt) in a.transitions:
        i, j = index[src], index[tgt]
        moves[i].append((ev, j))
        preds[j].append(i)
    # every member of a block not re-signed this round has the block's
    # signature, since none of its successors changed block
    block, size, signature = [0] * len(states), [len(states)], [None]
    dirty = range(len(states))
    while dirty:
        parts = {}
        for i in dirty:
            sig = frozenset((ev, block[j]) for (ev, j) in moves[i])
            parts.setdefault(block[i], {}).setdefault(sig, []).append(i)
        moved = []
        for b, by_sig in parts.items():
            if sum(map(len, by_sig.values())) == size[b]:
                signature[b] = next(iter(by_sig))  # all re-signed: one stays
            for sig, members in by_sig.items():
                if sig != signature[b]:
                    size[b] -= len(members)
                    for i in members:
                        block[i] = len(size)
                    size.append(len(members))
                    signature.append(sig)
                    moved += members
        dirty = {p for i in moved for p in preds[i]}
    if len(size) == len(states):
        return a
    least = {}
    for s, b in zip(states, block):
        least.setdefault(b, s)
    name = {s: least[b] for s, b in zip(states, block)}
    return Automaton._of_valid_ids(
        frozenset(least.values()), a.alphabet,
        frozenset((name[src], ev, name[tgt]) for (src, ev, tgt) in a.transitions),
        frozenset(name[s] for s in a.initial))


def reachable(a: Automaton) -> dict[str, tuple[str, ...]]:
    """Breadth-first reachable set with a shortest witness trace per state.

    Deterministic: initial states and expansions are visited in sorted order,
    so ties between equal-length witnesses resolve lexicographically.
    """
    witness: dict[str, tuple[str, ...]] = {s: () for s in sorted(a.initial)}
    frontier = sorted(a.initial)
    while frontier:
        nxt = []
        for state in frontier:
            trace = witness[state]
            for ev in a.alphabet.events:
                for tgt in a.succ.get((state, ev), ()):
                    if tgt not in witness:
                        witness[tgt] = trace + (ev,)
                        nxt.append(tgt)
        frontier = sorted(nxt)
    return witness


def reach_via(a: Automaton, trace: Iterable[str]) -> frozenset[str]:
    """States reachable from the initial set via exactly the given event list."""
    current = set(a.initial)
    for ev in trace:
        if ev not in a.alphabet.events:
            raise InputError("unknown event %r in trace" % ev)
        current = {tgt for s in current for tgt in a.succ.get((s, ev), ())}
        if not current:
            break
    return frozenset(current)
