"""Simulation preorders between automata over a shared alphabet.

The central object is the one-step matching operator: a pair (x,z) survives one
application iff every obligation of x (a transition under a tracked event) can
be answered by z inside the current relation.  Iterating from the full product
X x Z yields the greatest fixpoint; restricting the tracked events to the
uncontrollable ones gives the relation driving supervisor existence, tracking
the whole alphabet gives ordinary simulation.  The fixpoint is computed over
indexed states, one bitmask row per plant state, and pairs are rendered as
string tuples only when a Relation is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Automaton, compose, split_product_id
from .errors import InputError

Pair = tuple[str, str]


@dataclass(frozen=True)
class Relation:
    """Binary relation between the states of two automata.

    left/right are cosmetic labels used by serialization; identity of the
    related automata is the caller's business.
    """

    pairs: frozenset[Pair]
    left: str = ""
    right: str = ""

    def __post_init__(self):
        # a frozenset is kept as given: copying a large relation doubles
        # its memory
        if not isinstance(self.pairs, frozenset):
            object.__setattr__(self, "pairs",
                               frozenset(tuple(p) for p in self.pairs))

    @property
    def sorted_pairs(self) -> list[Pair]:
        return sorted(self.pairs)

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json(self) -> dict:
        return {"left": self.left, "right": self.right,
                "pairs": [list(p) for p in self.sorted_pairs]}

    @staticmethod
    def from_json(body: dict) -> "Relation":
        return Relation(frozenset((p[0], p[1]) for p in body["pairs"]),
                        left=body.get("left", ""), right=body.get("right", ""))


def _require_shared_alphabet(g: Automaton, r: Automaton) -> None:
    if g.alphabet != r.alphabet:
        raise InputError("simulation requires identical alphabets")


def _tracked(g: Automaton, mode: str) -> tuple[str, ...]:
    if mode == "uc":
        return tuple(sorted(g.alphabet.uncontrollable))
    if mode == "full":
        return g.alphabet.events
    raise InputError("mode must be 'uc' or 'full', got %r" % mode)


def _unanswered(g: Automaton, r: Automaton, pairs, events: tuple[str, ...],
                x: str, z: str):
    """The first obligation of (x,z) that no pair in pairs answers, as
    ("step", (x,z), event, x'), in event then plant-successor order; None
    when pairs answers them all."""
    for ev in events:
        zs = r.succ.get((z, ev), ())
        for x1 in g.succ.get((x, ev), ()):
            if not any((x1, z1) in pairs for z1 in zs):
                return ("step", (x, z), ev, x1)
    return None


def f_step(g: Automaton, r: Automaton, rel: Relation) -> Relation:
    """One application of the uncontrollable-event matching operator.

    Monotone and contractive: the result is a subset of the argument's pairs,
    and larger arguments give larger results.
    """
    _require_shared_alphabet(g, r)
    pairs, events = rel.pairs, _tracked(g, "uc")
    keep = frozenset(p for p in pairs
                     if _unanswered(g, r, pairs, events, *p) is None)
    return Relation(keep, left=rel.left, right=rel.right)


def bit_positions(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Fixpoint:
    """A greatest fixpoint as one bitmask row per left state: bit j of
    rows[i] relates left[i] to right[j].  len() counts its pairs."""

    __slots__ = ("left", "right", "rows")

    def __init__(self, left: tuple[str, ...], right: tuple[str, ...],
                 rows: list[int]):
        self.left, self.right, self.rows = left, right, rows

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def pairs(self) -> frozenset[Pair]:
        right = self.right
        return frozenset((x, right[j]) for x, row in zip(self.left, self.rows)
                         for j in bit_positions(row))

    def relates_initial(self, g: Automaton, r: Automaton) -> bool:
        """Every initial g-state is related to some initial r-state."""
        index = {z: j for j, z in enumerate(self.right)}
        start = 0
        for z0 in r.initial:
            start |= 1 << index[z0]
        rows = dict(zip(self.left, self.rows))
        return all(rows[x0] & start for x0 in g.initial)


def _greatest_fixpoint(g: Automaton, r: Automaton,
                       events: tuple[str, ...]) -> _Fixpoint:
    """Greatest simulation of g by r over the tracked events, by worklist
    refinement on bitmask rows (Henzinger, Henzinger & Kopke, FOCS 1995).

    remove[k][x1] holds the spec states that can do events[k] but have no
    events[k]-successor left in rows[x1]; they are taken out of the row of
    every events[k]-predecessor of x1.  Each pair is removed at most once.
    """
    xs, zs = g.sorted_states, r.sorted_states
    xi = {x: i for i, x in enumerate(xs)}
    zi = {z: j for j, z in enumerate(zs)}
    rows = [(1 << len(zs)) - 1] * len(xs)
    gpred, zsucc, zpred, enables = [], [], [], []
    for ev in events:
        succ = [0] * len(zs)
        pred = [0] * len(zs)
        has = 0
        for j, z in enumerate(zs):
            for z1 in r.succ.get((z, ev), ()):
                succ[j] |= 1 << zi[z1]
                pred[zi[z1]] |= 1 << j
            if succ[j]:
                has |= 1 << j
        into = [[] for _ in xs]
        for i, x in enumerate(xs):
            x1s = g.succ.get((x, ev))
            if x1s:
                rows[i] &= has
                for x1 in x1s:
                    into[xi[x1]].append(i)
        gpred.append(into)
        zsucc.append(succ)
        zpred.append(pred)
        enables.append(has)

    def pre(k: int, mask: int) -> int:
        out = 0
        pred = zpred[k]
        for j in bit_positions(mask):
            out |= pred[j]
        return out

    # initial rows take at most 2**len(events) values, so pre is memoized
    remove, todo = [], []
    for k, (has, into) in enumerate(zip(enables, gpred)):
        memo = {}
        gone = [0] * len(xs)
        for i, row in enumerate(rows):
            if into[i]:
                if row not in memo:
                    memo[row] = has & ~pre(k, row)
                if memo[row]:
                    gone[i] = memo[row]
                    todo.append((k, i))
        remove.append(gone)
    # events with some transition into x: only their remove rows are read
    entered = [[k for k in range(len(events)) if gpred[k][i]]
               for i in range(len(xs))]

    while todo:
        k, x1 = todo.pop()
        gone = remove[k][x1]
        remove[k][x1] = 0
        for x in gpred[k][x1]:
            row = rows[x]
            lost = row & gone
            if not lost:
                continue
            row ^= lost
            rows[x] = row
            for k2 in entered[x]:
                succ = zsucc[k2]
                add = 0
                for j in bit_positions(pre(k2, lost)):
                    if not succ[j] & row:
                        add |= 1 << j
                if add:
                    if not remove[k2][x]:
                        todo.append((k2, x))
                    remove[k2][x] |= add
    return _Fixpoint(xs, zs, rows)


def greatest_uc_fixpoint(g: Automaton, r: Automaton) -> Relation:
    """Greatest fixpoint of f_step, computed from the full product downward."""
    _require_shared_alphabet(g, r)
    return Relation(_greatest_fixpoint(g, r, _tracked(g, "uc")).pairs(),
                    left="plant", right="spec")


def check_simulation(g: Automaton, r: Automaton, mode: str = "full") -> Relation | None:
    """Greatest (uc-)simulation of g by r, or None when no simulation exists.

    A relation exists iff every initial g-state has a partner among r's initial
    states inside the greatest fixpoint; the fixpoint itself is then the
    greatest simulation relation.
    """
    _require_shared_alphabet(g, r)
    fix = _greatest_fixpoint(g, r, _tracked(g, mode))
    if not fix.relates_initial(g, r):
        return None
    return Relation(fix.pairs(), left="plant", right="spec")


def simulates(g: Automaton, r: Automaton, mode: str = "full") -> bool:
    """Whether r (uc-)simulates g: check_simulation's verdict, read off the
    fixpoint rows without building the relation."""
    _require_shared_alphabet(g, r)
    return _greatest_fixpoint(g, r, _tracked(g, mode)).relates_initial(g, r)


def is_simulation_relation(rel: Relation, g: Automaton, r: Automaton,
                           mode: str = "full", check_initial: bool = True):
    """Direct verification of the two defining conditions of a (uc-)simulation.

    Returns (True, None) or (False, witness); the witness is the
    lexicographically least violation, either ("initial", x0) for an initial
    g-state with no related initial r-state, or ("step", (x,z), event, x') for
    an unanswerable obligation.
    """
    _require_shared_alphabet(g, r)
    events = _tracked(g, mode)
    if check_initial:
        for x0 in sorted(g.initial):
            if not any((x0, z0) in rel.pairs for z0 in sorted(r.initial)):
                return False, ("initial", x0)
    pairs = rel.pairs
    # pairs are sorted only when some violation exists, to find the least
    if any(_unanswered(g, r, pairs, events, *p) for p in pairs):
        for p in sorted(pairs):
            witness = _unanswered(g, r, pairs, events, *p)
            if witness:
                return False, witness
    return True, None


def project_pi(rel: Relation, s: Automaton, g: Automaton) -> Relation:
    """Push a relation between S||G and R down to one between G and R.

    Keeps (x,z) whenever some reachable product state (y,x) is related to z.
    When S is admissible for G and the input relation witnesses S||G below R,
    the result is a uc-simulation of G by R.
    """
    live = compose(s, g).states
    keep = set()
    for (pid, z) in rel.pairs:
        if pid in live:
            keep.add((split_product_id(pid).right, z))
    return Relation(frozenset(keep), left="plant", right=rel.right)


def pi_g(pairs) -> frozenset[str]:
    """Left projection of a pair set: the plant states it mentions."""
    if isinstance(pairs, Relation):
        pairs = pairs.pairs
    return frozenset(x for (x, _) in pairs)
