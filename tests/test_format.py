"""Text format: parsing, serialization, digests, sidecars."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simsup import (Guards, ParseError, autfile, automaton_digest,
                    format_automaton, parse_automaton, sidecar_payload)
from simsup.partial import build_partial
from simsup.randgen import random_pair
from simsup.synthesis import SynthesisContext, build

from .fixtures import CHAIN_PLANT, CHAIN_SPEC

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

    monkeypatch.setattr(autfile, "validate_state_id", counting)
    parse_automaton(GOOD + "states: x0, x1\ntrans: x0 -c-> x1\n")
    assert sorted(seen) == ["x0", "x1"]


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
