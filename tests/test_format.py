"""Text format: parsing, serialization, digests, sidecars."""

import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simsup import (Alphabet, Automaton, Guards, InputError, ParseError,
                    autfile, automata, automaton_digest, format_automaton,
                    parse_automaton, parse_pairs, render_pairs,
                    sidecar_payload, write_sidecar)
from simsup.partial import build_partial
from simsup.randgen import random_pair
from simsup.synthesis import SynthesisContext, build

from .fixtures import CHAIN_PLANT, CHAIN_SPEC
from .test_partial import partial_draw

GOOD = """\
# a comment line
events: sigma:uc:o, c:c:o
initial: x0
trans: x0 -sigma-> x1
trans: x1 -c-> x0   # trailing comment
"""


def test_parse_basic():
    a = parse_automaton(GOOD)
    assert a.states == {"x0", "x1"}
    assert a.alphabet.controllable == {"c"}
    assert a.alphabet.observable == {"c", "sigma"}
    assert ("x1", "c", "x0") in a.transitions


def test_parse_states_line_keeps_isolated_states():
    a = parse_automaton(GOOD + "states: x0, x1, lonely\n")
    assert "lonely" in a.states


def test_round_trip_chain_fixture():
    for a in (CHAIN_PLANT, CHAIN_SPEC):
        assert parse_automaton(format_automaton(a)) == a


def test_round_trip_pair_set_state_ids():
    sup = build(SynthesisContext(CHAIN_PLANT, CHAIN_SPEC, Guards()))
    assert parse_automaton(format_automaton(sup.automaton)) == sup.automaton


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_random_automata(seed):
    plant, spec = random_pair(seed, plant_states=5, spec_states=4, n_events=3,
                              observable_ratio=0.7)
    assert parse_automaton(format_automaton(plant)) == plant
    assert parse_automaton(format_automaton(spec)) == spec


@pytest.mark.parametrize("text,lineno", [
    ("initial: x0\n", 0),                              # no events declared
    ("events: a:uc:o\nevents: a:uc:o\ninitial: q\n", 2),
    ("events: a:bogus:o\ninitial: q\n", 1),
    ("events: a:uc:o\ninitial: q\ntrans: q -b-> q\n", 3),
    ("events: a:uc:o\ninitial: q\ntrans: q a q\n", 3),
    ("events: a:uc:o\nwhatever: q\n", 2),
    ("events: a:uc:o\ninitial: q\nstates: q, a b\n", 3),  # bad state id
    ("events: a:uc:o\n\ninitial: {q\n", 3),
    ("events: a:uc:o\ntrans: q -a-> q\n", 0),          # no initial line at all
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    if lineno:
        assert "line %d" % lineno in str(err.value)


def test_bad_state_id_first_on_a_transition_line():
    text = ("events: a:uc:o\ninitial: q\ntrans: q -a-> q\n"
            "trans: q -a-> (r\ntrans: (r -a-> q\n")
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    assert err.value.line == 4
    assert str(err.value) == "line 4: unbalanced brackets in state id '(r'"


def test_bad_target_reported_before_an_undeclared_event():
    with pytest.raises(ParseError) as err:
        parse_automaton("events: a:uc:o\ninitial: q\ntrans: q -b-> q)\n")
    assert str(err.value) == "line 3: unbalanced ')' in state id 'q)'"


def test_each_state_id_is_validated_once(monkeypatch):
    seen = []

    def counting(name):
        seen.append(name)
        return name

    # the parser checks each id; the Automaton it makes does not again
    monkeypatch.setattr(autfile, "validate_state_id", counting)
    monkeypatch.setattr(automata, "validate_state_id", counting)
    parse_automaton(GOOD + "states: x0, x1\ntrans: x0 -c-> x1\n")
    assert sorted(seen) == ["x0", "x1"]


# --- fuzzing: every text is rejected or round-trips ---------------------------

# well-formed texts with up to three edits, each replacing up to three
# characters by a structural piece, so that most examples get past line one
_PIECES = ["events:", "states:", "initial:", "trans:", "->", "-", ":c", ":uc",
           ":o", ":uo", "(", ")", "{", "}", "<", ">", ",", ";", "|", ":", "#",
           '"', "'", "\t", " ", "\n", "x0", "z1", "e0", ""]
_IDS = st.sampled_from(["x0", "x1", "z0", "{(x0,z0)}", "{(x0,z0),(x1,z1)}",
                        "<{(x0,z0)}|{e0}|{}>", "(x0,z0)", "{}", "<a|b>"])
_EVENTS = st.sampled_from(["e0", "e1", "a"])
_DECL = st.tuples(_EVENTS, st.sampled_from([":c", ":uc"]),
                  st.sampled_from(["", ":o", ":uo"])).map("".join)
_LINE = st.one_of(
    st.lists(_IDS, min_size=1, max_size=3).map(lambda ids: "states: " + ", ".join(ids)),
    st.lists(_IDS, min_size=1, max_size=3).map(lambda ids: "initial: " + ", ".join(ids)),
    st.tuples(_IDS, _EVENTS, _IDS).map(lambda t: "trans: %s -%s-> %s" % t))
_AUT_TEXT = st.tuples(
    st.lists(_DECL, min_size=1, max_size=3, unique_by=lambda d: d.split(":")[0]),
    st.lists(_IDS, min_size=1, max_size=2), st.lists(_LINE, max_size=5)).map(
    lambda t: "\n".join(["events: " + ", ".join(t[0]),
                         "initial: " + ", ".join(t[1])] + t[2]) + "\n")
_PAIRS_TEXT = st.lists(st.tuples(_IDS, _IDS).map("(%s,%s)".__mod__),
                       max_size=3).map(lambda ps: "{%s}" % ",".join(ps))
_EDITS = st.lists(st.tuples(st.integers(0, 200), st.integers(0, 3),
                            st.sampled_from(_PIECES)), max_size=3)


def _edited(text, edits):
    for at, cut, piece in edits:
        at %= len(text) + 1
        text = text[:at] + piece + text[at + cut:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.builds(_edited, _AUT_TEXT, _EDITS))
def test_parse_automaton_rejects_or_round_trips(text):
    try:
        a = parse_automaton(text)
    except InputError:  # ParseError is one
        return
    out = format_automaton(a)
    assert parse_automaton(out) == a
    assert format_automaton(parse_automaton(out)) == out


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.builds(_edited, _PAIRS_TEXT, _EDITS), _IDS))
def test_parse_pairs_rejects_or_round_trips(text):
    try:
        pairs = parse_pairs(text)
    except InputError:
        return
    assert parse_pairs(render_pairs(pairs)) == pairs


def test_digest_is_representation_independent():
    shuffled = """\
events: c:c:o, sigma:uc:o
states: x2, x1, x0, x3
initial: x0
trans: x2 -c-> x3
trans: x0 -sigma-> x1
trans: x1 -sigma-> x2
"""
    assert automaton_digest(parse_automaton(shuffled)) == automaton_digest(CHAIN_PLANT)
    assert automaton_digest(CHAIN_PLANT) != automaton_digest(CHAIN_SPEC)


_B = autfile._WRITE_BATCH


def _chain_of(n: int) -> Automaton:
    """A chain of n transitions over state ids with a backslash or non-ASCII
    letters, under a non-ASCII event and an ASCII one."""
    ids = ["x\\%d" % i if i % 2 else "x\u00e9%d" % i for i in range(n + 1)]
    return Automaton.build(_ODD, [(ids[i], "\u03c3" if i % 3 else "c",
                                   ids[i + 1]) for i in range(n)], [ids[0]])


# the header takes three lines, so B - 3 transitions fill one batch exactly
@pytest.mark.parametrize("n", [0, _B - 4, _B - 3, _B - 2, _B - 1, _B, _B + 1,
                               3 * _B + 5])
def test_save_automaton_writes_the_canonical_text_in_batches(tmp_path, n):
    a = _chain_of(n)
    text = format_automaton(a)
    path = tmp_path / "a.aut"
    autfile.save_automaton(a, path)
    assert path.read_bytes() == text.encode("utf-8")
    assert parse_automaton(path.read_text(encoding="utf-8")) == a
    # full batches but the last, and one batch for a text that fits in one
    lines = n + 3
    sizes = [_B] * (lines // _B) + ([lines % _B] if lines % _B else [])
    assert [b.count("\n") for b in autfile._batches(a)] == sizes
    assert automaton_digest(a) == hashlib.sha256(text.encode()).hexdigest()


def test_save_automaton_holds_a_batch_not_the_text(tmp_path):
    # 67 500 transitions, 6.5 MB of text: writing it keeps the sorted
    # transitions and one batch in memory, not the whole text
    alphabet = Alphabet.build(["a", "b", "c"], controllable=["a"],
                              observable=["a", "b", "c"])
    ids = ["{%s}" % ",".join("(x%03d,z%d)" % (i, k) for k in range(4))
           for i in range(150)]
    a = Automaton.build(alphabet, [(s, e, t) for s in ids for e in "abc"
                                   for t in ids], [ids[0]])
    a.sorted_states  # cached before tracing
    path = tmp_path / "big.aut"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        autfile.save_automaton(a, path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1 << 20
    assert peak < size / 4, (peak, size)


def test_sidecar_shape_full_observation():
    sup = build(SynthesisContext(CHAIN_PLANT, CHAIN_SPEC, Guards()))
    body = sidecar_payload(sup, CHAIN_PLANT, CHAIN_SPEC)
    assert body["construction_tag"] == "takai"
    assert body["context"]["plant_sha256"] == automaton_digest(CHAIN_PLANT)
    assert body["guards"]["max_states"] == Guards().max_states
    json.dumps(body)  # must be serializable as-is


def test_sidecar_records_triple_payloads():
    sup = build_partial(CHAIN_PLANT, CHAIN_SPEC, Guards())
    body = sidecar_payload(sup, CHAIN_PLANT, CHAIN_SPEC)
    assert body["payloads"]
    sample = next(iter(body["payloads"].values()))
    assert set(sample) == {"w1", "gamma", "w2"}


# a partial instance whose state ids hold a backslash and non-ASCII letters,
# and whose unobservable event is non-ASCII too, so every payload string and
# state id of its sidecar needs escaping
_ODD = Alphabet.build(["\u03c3", "c"], controllable=["c"], observable=["c"])
_ODD_PLANT = Automaton.build(
    _ODD, [("x\\0", "\u03c3", "x\u00e91"), ("x\u00e91", "\u03c3", "x2"),
           ("x2", "c", "x3")], ["x\\0"])
_ODD_SPEC = Automaton.build(
    _ODD, [("z0", "\u03c3", "z\\1"), ("z\\1", "\u03c3", "z2"),
           ("z\\1", "\u03c3", "z\u00fc3"), ("z\u00fc3", "c", "z4")], ["z0"])


def _sidecar_case(case):
    if case == "full":
        return build(SynthesisContext(CHAIN_PLANT, CHAIN_SPEC)), CHAIN_PLANT, \
            CHAIN_SPEC
    if case == "escaped":
        plant, spec = _ODD_PLANT, _ODD_SPEC
    else:  # a draw of test_build_partial_outputs_pinned
        plant, spec = partial_draw(*case)
    return build_partial(plant, spec, Guards()), plant, spec


@pytest.mark.parametrize("case", [
    (1, 8, 10), (7, 7, 6), (13, 9, 9), (29, 8, 8), (31, 8, 6), (43, 7, 9),
    "full", "escaped"])
def test_write_sidecar_bytes_are_the_json_dump(tmp_path, case):
    # the writer renders payloads itself; its bytes are those of the one
    # definition of the structure, dumped with ASCII escapes
    sup, plant, spec = _sidecar_case(case)
    body = sidecar_payload(sup, plant, spec)
    assert ("payloads" in body) == (case != "full")
    path = tmp_path / "sup.json"
    write_sidecar(sup, plant, spec, path)
    data = path.read_bytes()
    assert data == (json.dumps(body, indent=2, sort_keys=True) + "\n").encode()
    if case == "escaped":
        assert all(esc in data for esc in (b"x\\\\0", b"x\\u00e91",
                                            b"z\\u00fc3", b"\\u03c3"))
