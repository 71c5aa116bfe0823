"""Command-line interface: exit codes, outputs, guard resolution."""

import json

import pytest

from simsup import format_automaton, load_automaton
from simsup.cli import main, resolve_guards, build_parser

from .fixtures import CHAIN_PLANT, CHAIN_SPEC, FORK_PLANT, FORK_SPEC, FORK_S1


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


def test_synthesize_guard_exit_3(chain_files, capsys):
    g, r, tmp = chain_files
    rc = main(["synthesize", g, r, "--max-states", "2",
               "--out", str(tmp / "x")])
    assert rc == 3
    assert "guard" in capsys.readouterr().err


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


def test_export_dot(chain_files, capsys):
    g, _, _ = chain_files
    assert main(["export-dot", g]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"x0"' in out


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


def test_guard_config_rejects_garbage(tmp_path, capsys, chain_files):
    g, r, tmp = chain_files
    cfg = tmp_path / "caps.conf"
    cfg.write_text("max_states: nope\n")
    rc = main(["synthesize", g, r, "--config", str(cfg),
               "--out", str(tmp / "x")])
    assert rc == 2


def test_guard_rejects_nonpositive(tmp_path, chain_files):
    g, r, tmp = chain_files
    rc = main(["synthesize", g, r, "--max-states", "0",
               "--out", str(tmp / "x")])
    assert rc == 2
