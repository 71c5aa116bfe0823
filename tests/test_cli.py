"""Command-line interface: exit codes, outputs, guard resolution."""

import argparse
import json
import re

import pytest

from simsup import (Alphabet, Automaton, check_simulation, cli, compose,
                    format_automaton, is_admissible, is_simulation_relation,
                    load_automaton, to_dot)
from simsup.cli import main, resolve_guards, build_parser
from simsup.randgen import random_uc_pair
from simsup.synthesis import disabled_move

from .fixtures import CHAIN_PLANT, CHAIN_SPEC, FORK_PLANT, FORK_SPEC, FORK_S1
from .pool import uc_instance


@pytest.fixture
def chain_files(tmp_path):
    g = tmp_path / "g.aut"
    r = tmp_path / "r.aut"
    g.write_text(format_automaton(CHAIN_PLANT))
    r.write_text(format_automaton(CHAIN_SPEC))
    return str(g), str(r), tmp_path


# --- check -------------------------------------------------------------------

def test_check_uc_holds(chain_files, capsys):
    g, r, _ = chain_files
    assert main(["check", g, r, "--mode", "uc"]) == 0
    out = capsys.readouterr().out
    assert "uc-simulation holds" in out
    assert "(x0,z0)" in out
    assert "fixpoint" in out


def test_check_full_failure_exit_code(chain_files, capsys):
    g, r, _ = chain_files
    # the spec is not simulated by the plant in the fork example; build files
    assert main(["check", r, g, "--mode", "full"]) in (0, 1)


def test_check_json_format(chain_files, capsys):
    g, r, _ = chain_files
    assert main(["check", g, r, "--mode", "uc", "--format", "json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["holds"] is True
    assert ["x0", "z0"] in body["relation"]["pairs"]


def test_check_failing_pair(tmp_path, capsys):
    g = tmp_path / "g.aut"
    r = tmp_path / "r.aut"
    g.write_text("events: u:uc:o\ninitial: x0\ntrans: x0 -u-> x0\n")
    r.write_text("events: u:uc:o\ninitial: z0\n")
    assert main(["check", str(g), str(r), "--mode", "uc"]) == 1
    assert "does not hold" in capsys.readouterr().out


def test_check_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.aut"
    bad.write_text("garbage file\n")
    ok = tmp_path / "ok.aut"
    ok.write_text(format_automaton(CHAIN_SPEC))
    assert main(["check", str(bad), str(ok)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_check_missing_file_exit_2(tmp_path):
    ok = tmp_path / "ok.aut"
    ok.write_text(format_automaton(CHAIN_SPEC))
    assert main(["check", str(tmp_path / "absent.aut"), str(ok)]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "BAD", "G"],
    ["synthesize", "G", "BAD", "--out", "OUT"],
    ["verify", "BAD", "G", "G"],
    ["synthesize", "G", "G", "--config", "BAD", "--out", "OUT"]],
    ids=["plant", "spec", "supervisor", "config"])
def test_non_utf8_file_exit_2(chain_files, capsys, argv):
    g, _, tmp = chain_files
    bad = tmp / "bad.aut"
    bad.write_bytes(b"events: a:c\n\xff\n")
    paths = {"BAD": str(bad), "G": g, "OUT": str(tmp / "x")}
    assert main([paths.get(a, a) for a in argv]) == 2
    assert capsys.readouterr().err == (
        "input error: %s is not UTF-8 text (byte 0xff at offset 12)\n" % bad)


# --- synthesize --------------------------------------------------------------

def test_synthesize_writes_aut_and_sidecar(chain_files, capsys):
    g, r, tmp = chain_files
    out = str(tmp / "sup")
    assert main(["synthesize", g, r, "--out", out]) == 0
    sup = load_automaton(out + ".aut")
    assert len(sup.states) == 5
    body = json.loads((tmp / "sup.json").read_text())
    assert body["construction_tag"] == "takai"
    assert "plant_sha256" in body["context"]


def test_synthesize_rejects_variant2(chain_files, capsys):
    g, r, tmp = chain_files
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", g, r, "--variant", "variant2",
              "--out", str(tmp / "v")])
    assert exc.value.code == 2
    assert "invalid choice: 'variant2'" in capsys.readouterr().err
    assert not (tmp / "v.aut").exists()


def test_synthesize_prune_and_dot(chain_files):
    g, r, tmp = chain_files
    out = str(tmp / "p")
    assert main(["synthesize", g, r, "--prune-deadlocks", "--dot",
                 "--out", out]) == 0
    assert (tmp / "p.dot").read_text().startswith("digraph")
    sup = load_automaton(out + ".aut")
    assert len(sup.transitions) == 3  # W1 -sigma-> W2 pruned


def test_synthesize_partial(chain_files):
    g, r, tmp = chain_files
    out = str(tmp / "po")
    assert main(["synthesize", g, r, "--partial", "--out", out]) == 0
    body = json.loads((tmp / "po.json").read_text())
    assert body["construction_tag"] == "partial"
    assert body["payloads"]
    assert "notes" not in body


def test_synthesize_partial_notes_unpinned_masks(tmp_path):
    # with sigma unobservable the sidecar says that every completion of a
    # core is materialized
    for name, auto in (("g", CHAIN_PLANT), ("r", CHAIN_SPEC)):
        text = format_automaton(auto).replace("sigma:uc:o", "sigma:uc:uo")
        (tmp_path / (name + ".aut")).write_text(text)
    out = str(tmp_path / "po")
    assert main(["synthesize", str(tmp_path / "g.aut"), str(tmp_path / "r.aut"),
                 "--partial", "--out", out]) == 0
    body = json.loads((tmp_path / "po.json").read_text())
    assert body["notes"] == [
        "successor observation masks are not pinned by the step rule; every "
        "admissible (gamma, closure) completion is materialized as a distinct "
        "state"]


def test_synthesize_partial_rejects_variant(chain_files, capsys):
    # the partial construction has no variants: an explicit --variant is an
    # input error, not silently ignored
    g, r, tmp = chain_files
    for variant in ("takai", "variant1"):
        rc = main(["synthesize", g, r, "--partial", "--variant", variant,
                   "--out", str(tmp / "pv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: --variant does not apply to the "
                                "--partial construction\n")
        assert not (tmp / "pv.aut").exists()


def test_synthesize_guard_exit_3(chain_files, capsys):
    g, r, tmp = chain_files
    rc = main(["synthesize", g, r, "--max-states", "2",
               "--out", str(tmp / "x")])
    assert rc == 3
    assert "guard" in capsys.readouterr().err


def test_state_cap_trip_names_the_first_new_cover_in_canonical_order(
        tmp_path, capsys):
    # at state cap 6 the tripping step reaches several new minimal covers;
    # the build visits them as PowerStates sort by their sorted pairs, which
    # is not the order of their pair masks as ints
    plant, spec, _ = random_uc_pair(0, plant_states=7, spec_states=5,
                                    n_events=3, density=1.2 / 7,
                                    spec_density=1.2 / 5)
    g, r = tmp_path / "g.aut", tmp_path / "r.aut"
    g.write_text(format_automaton(plant))
    r.write_text(format_automaton(spec))
    rc = main(["synthesize", str(g), str(r), "--max-states", "6",
               "--out", str(tmp_path / "x")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "guard tripped: supervisor state cap 6 exceeded when reaching "
        "{(x1,z0),(x2,z0),(x3,z0),(x6,z1)}\n")


def test_synthesize_variant1_wide_cover_pool_exit_3(tmp_path, capsys):
    # 40 x 40 candidate pairs at the initial state: the cover walk runs
    # deeper than the interpreter's recursion limit, and must end in the guard
    g = tmp_path / "g.aut"
    r = tmp_path / "r.aut"
    g.write_text("events: a:c:o\ninitial: x0\n" + "".join(
        "trans: x0 -a-> x%d\n" % i for i in range(1, 41)))
    r.write_text("events: a:c:o\ninitial: z0\n" + "".join(
        "trans: z0 -a-> z%d\n" % i for i in range(1, 41)))
    rc = main(["synthesize", str(g), str(r), "--variant", "variant1",
               "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "guard tripped" in capsys.readouterr().err


def test_synthesize_precondition_exit_1(tmp_path, capsys):
    g = tmp_path / "g.aut"
    r = tmp_path / "r.aut"
    g.write_text("events: u:uc:o\ninitial: x0\ntrans: x0 -u-> x0\n")
    r.write_text("events: u:uc:o\ninitial: z0\n")
    rc = main(["synthesize", str(g), str(r), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "precondition" in capsys.readouterr().err


# --- verify ------------------------------------------------------------------

def test_verify_built_supervisor_passes(chain_files, capsys):
    g, r, tmp = chain_files
    out = str(tmp / "sup")
    main(["synthesize", g, r, "--out", out])
    assert main(["verify", out + ".aut", g, r]) == 0
    report = capsys.readouterr().out
    assert "admissible: yes" in report
    assert "verdict: saturated" in report


def test_verify_prints_clause_witnesses_and_notes(chain_files, capsys):
    # without its c edge the chain supervisor misses a mandatory edge at
    # {(x2,z3)}, and {(x3,z4)} is left unreachable
    g, r, tmp = chain_files
    out = str(tmp / "sup")
    assert main(["synthesize", g, r, "--out", out]) == 0
    text = (tmp / "sup.aut").read_text()
    (tmp / "no_c.aut").write_text(
        "".join(line for line in text.splitlines(keepends=True)
                if "-c->" not in line))
    capsys.readouterr()
    assert main(["verify", str(tmp / "no_c.aut"), g, r]) == 1
    assert capsys.readouterr() == ("\n".join([
        "admissible: yes",
        "in SP (admissible and loop below spec): yes",
        "gr-check verdict: not-gr",
        "  clause state   ok",
        "  clause istate  ok",
        "  clause 6-a     FAIL",
        "    witness: ['{(x2,z3)}', 'c']",
        "  clause 6-b     ok",
        "  clause sistate ok",
        "  clause 6-c     ok",
        "  note: 1 unreachable state(s) ignored by reachable-state clauses",
        "loop below takai loop: yes",
        "takai loop below this loop (maximality surrogate): no"]) + "\n", "")


def _pool_files(tmp_path, draw):
    plant, spec, _ = uc_instance(draw)
    g = tmp_path / "g.aut"
    r = tmp_path / "r.aut"
    g.write_text(format_automaton(plant))
    r.write_text(format_automaton(spec))
    return str(g), str(r), str(tmp_path / "sup")


def test_verify_pool_draw_2_completes(tmp_path, capsys):
    # the pool's one blow-up: the full closed loop of its 500-state takai
    # supervisor has 2382 states, but the supervisor is bisimilar to one
    # state, so verify reads every verdict off a small quotient loop; this
    # guards that the call finishes and still finds the two loops mutually
    # below each other
    g, r, out = _pool_files(tmp_path, 2)
    assert main(["synthesize", g, r, "--out", out]) == 0
    assert main(["verify", out + ".aut", g, r]) == 0
    assert "takai loop below this loop (maximality surrogate): yes" in \
        capsys.readouterr().out


def test_loop_against_itself_is_a_simulation_relation(tmp_path):
    # pool draw 68: a 455-state closed loop, 158700 of 207025 pairs kept
    g, r, out = _pool_files(tmp_path, 68)
    assert main(["synthesize", g, r, "--out", out]) == 0
    loop = compose(load_automaton(out + ".aut"), load_automaton(g))
    rel = check_simulation(loop, loop, "full")
    assert len(rel) == 158700
    assert is_simulation_relation(rel, loop, loop, "full") == (True, None)


def test_verify_plain_supervisor_fails_permissiveness(tmp_path, capsys):
    g = tmp_path / "g.aut"
    r = tmp_path / "r.aut"
    s = tmp_path / "s.aut"
    g.write_text(format_automaton(FORK_PLANT))
    r.write_text(format_automaton(FORK_SPEC))
    s.write_text(format_automaton(FORK_S1))
    assert main(["verify", str(s), str(g), str(r)]) == 1
    report = capsys.readouterr().out
    assert "skipped" in report  # y0/y1/y2 ids carry no payloads
    assert "takai loop below this loop (maximality surrogate): no" in report


def test_verify_witness_comes_from_the_full_loop(tmp_path, capsys):
    # y1 and y2 both deadlock, so they are bisimilar and the quotient names
    # both y1; the violation is reachable only at (y2,x2)
    alpha = Alphabet.build(["a", "b", "u"], controllable=["a", "b"])
    plant = Automaton.build(alpha, [("x0", "a", "x1"), ("x0", "b", "x2"),
                                    ("x2", "u", "x3")], ["x0"])
    sup = Automaton.build(alpha, [("y0", "a", "y1"), ("y0", "b", "y2")],
                          ["y0"])
    g = tmp_path / "g.aut"
    s = tmp_path / "s.aut"
    g.write_text(format_automaton(plant))
    s.write_text(format_automaton(sup))
    assert main(["verify", str(s), str(g), str(g)]) == 1
    lines = capsys.readouterr().out.splitlines()
    full = disabled_move(compose(sup, plant), plant)
    assert is_admissible(sup, plant) == (False, full)
    assert full == (("y2", "x2"), "u")
    assert lines[:2] == [
        "admissible: no",
        "  witness: uncontrollable 'u' disabled at product state (y2,x2)"]


def test_verify_input_error_before_any_verdict(chain_files, capsys):
    # the ids parse as pair sets, but name a plant state that does not exist
    g, r, tmp = chain_files
    s = tmp / "alien.aut"
    s.write_text("events: sigma:uc:o, c:c:o\ninitial: {(q9,z0)}\n")
    assert main(["verify", str(s), g, r]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: payload pair (q9,z0) of state '{(q9,z0)}' lies outside "
        "the plant and spec state sets\n")


@pytest.mark.parametrize("cap,message", [
    # check_saturated meets two minimal covers at ({(x1,z1)}, sigma)
    (["--max-covers", "1"], "choice-function enumeration cap 1 exceeded"),
    # the fresh takai build has five states
    (["--max-states", "2"], "supervisor state cap 2 exceeded"),
])
def test_verify_guard_trip_before_any_verdict(chain_files, capsys, cap, message):
    g, r, tmp = chain_files
    out = str(tmp / "sup")
    assert main(["synthesize", g, r, "--out", out]) == 0
    capsys.readouterr()
    assert main(["verify", out + ".aut", g, r, *cap]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guard tripped: " + message)


def test_verify_alphabet_mismatch(chain_files, capsys):
    g, r, tmp = chain_files
    s = tmp / "other.aut"
    s.write_text("events: a:c:o\ninitial: y0\n")
    assert main(["verify", str(s), g, r]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: composition requires identical alphabets\n"


@pytest.mark.parametrize("command,message", [
    ("check", "simulation requires identical alphabets"),
    ("synthesize", "plant and spec must share one alphabet"),
    ("synthesize --partial", "plant and spec must share one alphabet")])
def test_plant_and_spec_alphabet_mismatch(chain_files, capsys, command,
                                          message):
    g, _, tmp = chain_files
    r = tmp / "other.aut"
    r.write_text("events: sigma:uc:o\ninitial: z0\n")
    argv = command.split() + [g, str(r)]
    if command != "check":
        argv += ["--out", str(tmp / "x")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "input error: %s\n" % message)
    assert not list(tmp.glob("x.*"))


@pytest.mark.parametrize("text,message", [
    ("events: a:c:o,,b:uc:o\ninitial: x0\n",
     "line 1: empty event declaration"),
    ("events: a->b:c:o\ninitial: x0\n",
     "line 1: unbalanced '>' in ' a->b:c:o'"),
    ("events: a:k:o\ninitial: x0\n",
     "line 1: controllability of 'a' must be c or uc"),
    ("events: a:c:hidden\ninitial: x0\n",
     "line 1: observability of 'a' must be o or uo")])
def test_bad_event_declarations(chain_files, capsys, text, message):
    _, r, tmp = chain_files
    bad = tmp / "bad.aut"
    bad.write_text(text)
    assert main(["check", str(bad), r]) == 2
    assert capsys.readouterr() == ("", "input error: %s\n" % message)


# --- exit codes for exhausted resources --------------------------------------

@pytest.mark.parametrize("error,message", [
    (RecursionError, "resource limit: recursion depth exceeded"),
    (MemoryError, "resource limit: out of memory"),
])
def test_exhausted_resources_exit_3(chain_files, capsys, monkeypatch, error,
                                    message):
    def exhausted(*args, **kwargs):
        raise error()

    g, r, _ = chain_files
    monkeypatch.setattr(cli, "check_simulation", exhausted)
    assert main(["check", g, r]) == 3
    assert capsys.readouterr().err == message + "\n"


# --- compose / random / export-dot -------------------------------------------

def test_compose_round_trip(chain_files, capsys):
    g, r, tmp = chain_files
    out = str(tmp / "prod.aut")
    assert main(["compose", g, r, "--out", out]) == 0
    prod = load_automaton(out)
    assert "(x0,z0)" in prod.states


def test_compose_stdout(chain_files, capsys):
    g, r, _ = chain_files
    assert main(["compose", g, r]) == 0
    assert "trans: (x0,z0) -sigma-> (x1,z1)" in capsys.readouterr().out


def test_random_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["random", "--seed", "9", "--out", str(a)]) == 0
    assert main(["random", "--seed", "9", "--out", str(b)]) == 0
    assert (tmp_path / "a_plant.aut").read_bytes() == \
        (tmp_path / "b_plant.aut").read_bytes()
    assert (tmp_path / "a_spec.aut").read_bytes() == \
        (tmp_path / "b_spec.aut").read_bytes()


def test_random_require_uc_sim(tmp_path, capsys):
    assert main(["random", "--seed", "3", "--require-uc-sim",
                 "--out", str(tmp_path / "r")]) == 0
    assert "uc-similar" in capsys.readouterr().out


def test_random_rejection_exit_3(tmp_path, capsys):
    rc = main(["random", "--seed", "1", "--require-uc-sim",
               "--density", "1.0", "--spec-density", "0.0",
               "--controllable-ratio", "0.0", "--max-rejects", "5",
               "--out", str(tmp_path / "r")])
    assert rc == 3


@pytest.mark.parametrize("argv,message", [
    (["--density", "-1"], "density must lie in [0, 1], got -1.0"),
    (["--controllable-ratio", "2"], "controllable_ratio must lie in [0, 1], got 2.0"),
    (["--observable-ratio", "-1"], "observable_ratio must lie in [0, 1], got -1.0"),
    (["--spec-density", "3"], "spec_density must lie in [0, 1], got 3.0"),
    (["--require-uc-sim", "--max-rejects", "0"], "max_rejects must be at least 1, got 0"),
    (["--require-uc-sim", "--max-rejects", "-4"], "max_rejects must be at least 1, got -4"),
    # checked also where --require-uc-sim, which reads it, is not given
    (["--max-rejects", "0"], "max_rejects must be at least 1, got 0"),
    (["--events", "0"], "need at least one event"),
    (["--states", "0"], "sizes must be positive"),
], ids=["density", "controllable", "observable", "spec-density",
        "max-rejects-0", "max-rejects-negative", "max-rejects-unused",
        "no-events", "no-states"])
def test_random_rejects_out_of_range_options(tmp_path, capsys, argv, message):
    rc = main(["random", "--seed", "1", *argv, "--out", str(tmp_path / "r")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: %s\n" % message
    assert not list(tmp_path.iterdir())


def test_export_dot(chain_files, capsys):
    g, _, _ = chain_files
    assert main(["export-dot", g]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"x0"' in out


def test_export_dot_out(chain_files, capsys):
    g, _, tmp = chain_files
    out = tmp / "g.dot"
    assert main(["export-dot", g, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("wrote %s\n" % out, "")
    assert out.read_text() == to_dot(load_automaton(g))


# --- guard resolution --------------------------------------------------------

def test_guard_priority_flag_over_config_over_env(tmp_path, monkeypatch):
    cfg = tmp_path / "caps.conf"
    cfg.write_text("max_states = 77  # comment\nmax-covers = 88\n")
    monkeypatch.setenv("SIMSUP_MAX_STATES", "55")
    monkeypatch.setenv("SIMSUP_MAX_COVERS", "66")
    parser = build_parser()
    args = parser.parse_args(["synthesize", "g", "r", "--out", "x",
                              "--max-states", "99", "--config", str(cfg)])
    guards = resolve_guards(args)
    assert guards.max_states == 99    # flag wins
    assert guards.max_covers == 88    # config beats env
    args = parser.parse_args(["synthesize", "g", "r", "--out", "x"])
    guards = resolve_guards(args)
    assert guards.max_states == 55    # env beats default
    monkeypatch.delenv("SIMSUP_MAX_STATES")
    monkeypatch.delenv("SIMSUP_MAX_COVERS")
    guards = resolve_guards(parser.parse_args(
        ["synthesize", "g", "r", "--out", "x"]))
    assert guards.max_states == 10_000


def test_guard_config_skips_blank_and_comment_lines(tmp_path, capsys,
                                                    chain_files):
    g, r, tmp = chain_files
    cfg = tmp_path / "caps.conf"
    cfg.write_text("\n   \n  # state cap only\nmax_states = 2\n")
    rc = main(["synthesize", g, r, "--config", str(cfg),
               "--out", str(tmp / "x")])
    assert rc == 3
    assert capsys.readouterr() == (
        "", "guard tripped: supervisor state cap 2 exceeded when reaching "
            "{(x2,z2)}\n")


def test_guard_config_rejects_a_non_integer_cap(tmp_path, capsys, chain_files):
    g, r, tmp = chain_files
    cfg = tmp_path / "caps.conf"
    cfg.write_text("max_covers = many\n")
    rc = main(["synthesize", g, r, "--config", str(cfg),
               "--out", str(tmp / "x")])
    assert rc == 2
    assert capsys.readouterr() == (
        "", "input error: max_covers must be an integer, got 'many'\n")


def test_guard_config_rejects_garbage(tmp_path, capsys, chain_files):
    g, r, tmp = chain_files
    cfg = tmp_path / "caps.conf"
    cfg.write_text("max_states: nope\n")
    rc = main(["synthesize", g, r, "--config", str(cfg),
               "--out", str(tmp / "x")])
    assert rc == 2


def test_guard_config_rejects_unknown_keys(tmp_path, capsys, chain_files):
    g, r, tmp = chain_files
    cfg = tmp_path / "caps.conf"
    cfg.write_text("max_covers = 9\nmax_sates = 5\n")
    rc = main(["synthesize", g, r, "--config", str(cfg),
               "--out", str(tmp / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config %s line 2: unknown key 'max_sates'" % cfg in err
    assert not (tmp / "x.aut").exists()


def test_guard_rejects_nonpositive(tmp_path, chain_files):
    g, r, tmp = chain_files
    rc = main(["synthesize", g, r, "--max-states", "0",
               "--out", str(tmp / "x")])
    assert rc == 2


@pytest.mark.parametrize("width", ["3", "1", "0", "-5"])
def test_label_width_below_4_is_an_input_error(chain_files, capsys, width):
    g, r, tmp = chain_files
    message = "input error: max_label_width must be at least 4, got %s\n" % width
    assert main(["export-dot", g, "--max-label-width", width]) == 2
    assert capsys.readouterr() == ("", message)
    # synthesize checks the width before it builds or writes anything, with
    # or without --dot, which reads it
    for dot in (["--dot"], []):
        rc = main(["synthesize", g, r, *dot, "--max-label-width", width,
                   "--out", str(tmp / "d")])
        assert rc == 2
        assert capsys.readouterr() == ("", message)
        assert not list(tmp.glob("d.*"))


def test_dot_labels_are_abbreviated_to_the_width(chain_files, capsys):
    g, r, tmp = chain_files
    out = str(tmp / "sup")
    assert main(["synthesize", g, r, "--out", out]) == 0
    sup = load_automaton(out + ".aut")
    for width in (4, 5, 9, 17, 40):
        labels = re.findall(r'  n\d+ \[label="([^"]*)"',
                            to_dot(sup, max_label_width=width))
        assert len(labels) == len(sup.states)
        for state, label in zip(sup.sorted_states, labels):
            if len(state) > width:
                assert label == state[:width - 3] + "..."
                assert len(label) == width
            else:
                assert label == state


# --- help and usage text -----------------------------------------------------

# Every help and usage error text at COLUMNS=80, byte for byte: building a
# subcommand's parser only when argv names it must not change them. argparse
# prints the same bytes on Python 3.10 to 3.13.

USAGE = """\
usage: simsup [-h] [--version]
              {check,synthesize,verify,compose,random,export-dot} ...
"""

SYNTHESIZE_USAGE = """\
usage: simsup synthesize [-h] [--variant {takai,variant1}] [--prune-deadlocks]
                         [--partial] --out OUT [--dot]
                         [--max-label-width MAX_LABEL_WIDTH]
                         [--max-states MAX_STATES] [--max-covers MAX_COVERS]
                         [--config CONFIG]
                         plant spec
"""

VERIFY_USAGE = """\
usage: simsup verify [-h] [--max-states MAX_STATES] [--max-covers MAX_COVERS]
                     [--config CONFIG]
                     supervisor plant spec
"""

GUARD_OPTIONS_HELP = """\
  --max-states MAX_STATES
                        cap on materialized supervisor states
  --max-covers MAX_COVERS
                        cap on enumerated covers per state and event
  --config CONFIG       key=value config file for guard caps
"""

HELP = {
    (): USAGE + """
Supervisor synthesis and verification for the similarity control problem over
nondeterministic finite automata.

positional arguments:
  {check,synthesize,verify,compose,random,export-dot}
    check               decide the (uc-)simulation preorder
    synthesize          build a supervisor
    verify              verify a supervisor file; exit 0 iff admissible, in
                        SP, saturated (when state ids parse as pair sets) and
                        mutually permissive with a fresh takai build
    compose             synchronous composition of two automata
    random              emit a seeded random plant/spec pair
    export-dot          render an automaton file as DOT

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    ("check",): """\
usage: simsup check [-h] [--mode {uc,full}] [--format {text,json}] plant spec

positional arguments:
  plant
  spec

options:
  -h, --help            show this help message and exit
  --mode {uc,full}
  --format {text,json}
""",
    ("synthesize",): SYNTHESIZE_USAGE + """
positional arguments:
  plant
  spec

options:
  -h, --help            show this help message and exit
  --variant {takai,variant1}
  --prune-deadlocks
  --partial             partial-observation construction over triple states
  --out OUT             output path prefix
  --dot                 also write a DOT file
  --max-label-width MAX_LABEL_WIDTH
""" + GUARD_OPTIONS_HELP,
    ("verify",): VERIFY_USAGE + """
positional arguments:
  supervisor
  plant
  spec

options:
  -h, --help            show this help message and exit
""" + GUARD_OPTIONS_HELP,
    ("compose",): """\
usage: simsup compose [-h] [--full] [--out OUT] left right

positional arguments:
  left
  right

options:
  -h, --help  show this help message and exit
  --full      materialize the full product, not only the reachable part
  --out OUT
""",
    ("random",): """\
usage: simsup random [-h] --seed SEED [--states STATES]
                     [--spec-states SPEC_STATES] [--events EVENTS]
                     [--controllable-ratio CONTROLLABLE_RATIO]
                     [--density DENSITY] [--spec-density SPEC_DENSITY]
                     [--observable-ratio OBSERVABLE_RATIO] [--initial INITIAL]
                     [--require-uc-sim] [--max-rejects MAX_REJECTS] --out OUT

options:
  -h, --help            show this help message and exit
  --seed SEED
  --states STATES
  --spec-states SPEC_STATES
  --events EVENTS
  --controllable-ratio CONTROLLABLE_RATIO
  --density DENSITY
  --spec-density SPEC_DENSITY
  --observable-ratio OBSERVABLE_RATIO
  --initial INITIAL
  --require-uc-sim      rejection-sample until the plant is uc-similar to the
                        spec
  --max-rejects MAX_REJECTS
  --out OUT             output path prefix
""",
    ("export-dot",): """\
usage: simsup export-dot [-h] [--out OUT] [--max-label-width MAX_LABEL_WIDTH]
                         file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --out OUT
  --max-label-width MAX_LABEL_WIDTH
""",
}


def _run_main(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("command", list(HELP),
                         ids=lambda command: "-".join(("simsup", *command)))
def test_help_text(command, capsys, monkeypatch):
    assert _run_main([*command, "--help"], capsys, monkeypatch) \
        == (0, HELP[command], "")


@pytest.mark.parametrize("argv, message", [
    ([], USAGE + "simsup: error: the following arguments are required: "
                 "command\n"),
    (["bogus"], USAGE + "simsup: error: argument command: invalid choice: "
                        "'bogus' (choose from 'check', 'synthesize', "
                        "'verify', 'compose', 'random', 'export-dot')\n"),
    (["synthesize", "g", "r"],
     SYNTHESIZE_USAGE + "simsup synthesize: error: the following arguments "
                        "are required: --out\n"),
    (["verify", "a", "b", "c", "--max-states", "x"],
     VERIFY_USAGE + "simsup verify: error: argument --max-states: invalid "
                    "int value: 'x'\n"),
], ids=["no-arguments", "unknown-command", "synthesize-without-out",
        "verify-bad-max-states"])
def test_usage_error_text_exit_2(argv, message, capsys, monkeypatch):
    assert _run_main(argv, capsys, monkeypatch) == (2, "", message)


# --- parser construction -----------------------------------------------------

def test_main_calls_a_fresh_parser_through_the_module_name(chain_files,
                                                           capsys,
                                                           monkeypatch):
    # bench/tracer.py replaces `cli.build_parser` by a wrapper that rebinds
    # `parse_args` on each parser it returns; a parser shared between calls
    # would stack one wrapper per call
    assert build_parser() is not build_parser()
    g, r, _ = chain_files
    calls = []

    def traced_build_parser():
        parser = build_parser()
        parse_args = parser.parse_args

        def traced_parse_args(argv):
            calls.append(argv)
            return parse_args(argv)

        parser.parse_args = traced_parse_args
        return parser

    monkeypatch.setattr(cli, "build_parser", traced_build_parser)
    assert main(["check", g, r]) == 0
    assert main(["check", g, r]) == 0
    assert calls == [["check", g, r], ["check", g, r]]


def test_parse_builds_only_the_named_subcommand():
    parser = build_parser()
    subs = next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))

    def built():
        return {name for name, sub in subs.choices.items()
                if sub.pending is None}

    assert built() == set()
    args = parser.parse_args(["synthesize", "g", "r", "--out", "x"])
    assert (args.func, args.out) == (cli.cmd_synthesize, "x")
    assert built() == {"synthesize"}
