"""Self-checks of the benchmark: its inputs, its tracing and its accounting.

    python3 -m pytest bench -q
"""

import json
import os
import signal

import pytest

from simsup.autfile import format_automaton
from tests.pool import uc_instance

from bench import harness, run, workloads
from bench.tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_pool_seed_0_is_the_acceptance_pool():
    insts = workloads.instances("pool", 0)
    assert len(insts) == 500
    for i, inst in enumerate(insts):
        plant, spec, _ = uc_instance(i)
        assert inst.draw == i
        assert format_automaton(inst.plant) == format_automaton(plant)
        assert format_automaton(inst.spec) == format_automaton(spec)


@pytest.mark.parametrize("name", ["covers", "partial"])
def test_other_seeds_rename_in_sorted_order(name):
    base = workloads.instances(name, 0)
    renamed = workloads.instances(name, 7)
    assert [i.draw for i in renamed] == [i.draw for i in base]
    assert all(format_automaton(a.plant) != format_automaton(b.plant)
               for a, b in zip(base, renamed))
    for a, b in zip(base, renamed):
        ev = dict(zip(a.plant.alphabet.events, b.plant.alphabet.events))
        assert {ev[e] for e in a.plant.alphabet.controllable} \
            == b.plant.alphabet.controllable
        assert {ev[e] for e in a.plant.alphabet.observable} \
            == b.plant.alphabet.observable
        for x, y in ((a.plant, b.plant), (a.spec, b.spec)):
            st = dict(zip(x.sorted_states, y.sorted_states))
            assert {(st[s], ev[e], st[t]) for (s, e, t) in x.transitions} \
                == y.transitions
            assert {st[s] for s in x.initial} == y.initial


def test_inputs_repeat_for_a_seed():
    a = workloads.instances("partial", 3)
    b = workloads.instances("partial", 3)
    assert [format_automaton(i.plant) + format_automaton(i.spec) for i in a] == \
        [format_automaton(i.plant) + format_automaton(i.spec) for i in b]


def _traced_counters(tmp_path, name, indices):
    work = workloads.WORKLOADS[name]
    _, paths = harness.setup(work, 5, str(tmp_path / name))
    tracer = Tracer()
    tracer.install()
    try:
        rnd = harness.run_round(work, paths, indices, tracer)
    finally:
        tracer.uninstall()
    return tracer, rnd


@pytest.mark.parametrize("name,indices", [
    ("pool", [i for i in range(40) if i != 2]),  # pool draw 2 blows up
    ("covers", range(12)),
    ("partial", [i for i in range(12) if i not in (5, 10)]),  # time limits
])
def test_traced_counters_repeat(tmp_path, name, indices):
    first, rnd = _traced_counters(tmp_path / "a", name, indices)
    second, _ = _traced_counters(tmp_path / "b", name, indices)
    assert first.counters == second.counters
    assert first.counters  # something was counted
    added = {"synthesis.guard_trips.state", "synthesis.guard_trips.cover",
             "synthesis.guard_trips.initial", "trace.instances_per_s_ratio"}
    assert set(first.layer_metrics()) | added == set(run.metric_units(True))
    # spans close, and each has a parent that opened before it
    spans = first.spans
    for row in range(len(spans) // 4):
        _, parent, start, end = spans[4 * row:4 * row + 4]
        assert start <= end
        assert parent < row
    assert all(r.outcome != "wrong" for r in rnd.values())


def test_tracer_uninstall_restores_every_binding():
    from simsup import cli, grcheck, partial, synthesis
    before = (cli.build, synthesis.minimal_covers, grcheck.minimal_covers,
              partial.minimal_covers, cli.build_parser, cli.load_automaton)
    tracer = Tracer()
    tracer.install()
    assert grcheck.minimal_covers is not before[2]
    assert grcheck.minimal_covers is partial.minimal_covers is synthesis.minimal_covers
    tracer.uninstall()
    assert (cli.build, synthesis.minimal_covers, grcheck.minimal_covers,
            partial.minimal_covers, cli.build_parser, cli.load_automaton) == before


def test_time_limit_cuts_a_blow_up_and_restores_the_handler(tmp_path):
    work = workloads.WORKLOADS["pool"]
    _, paths = harness.setup(work, 0, str(tmp_path))
    p = paths[2]  # acceptance pool draw 2: a 2382-state loop against itself
    assert harness.cli_call(["synthesize", p.plant, p.spec, "--out", p.out],
                            work.time_limit_s).code == 0
    handler = signal.getsignal(signal.SIGALRM)
    call = harness.cli_call(["verify", p.sup, p.plant, p.spec], 0.3)
    assert call.code is None and call.outcome == "time-limit"
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_guard_messages_map_to_outcome_classes(tmp_path):
    work = workloads.WORKLOADS["covers"]
    _, paths = harness.setup(work, 0, str(tmp_path))
    p = paths[3]
    state = harness.cli_call(["synthesize", p.plant, p.spec, "--out", p.out,
                              "--max-states", "1"], 20.0)
    assert (state.code, state.outcome) == (3, "guard-state")
    cover = harness.cli_call(["synthesize", p.plant, p.spec, "--out", p.out,
                              "--max-covers", "1"], 20.0)
    assert (cover.code, cover.outcome) == (3, "guard-cover")
    bad = harness.cli_call(["synthesize", p.plant + ".missing", p.spec,
                            "--out", p.out], 20.0)
    assert bad.outcome == "exit-2"
    usage = harness.cli_call(["synthesize"], 20.0)
    assert usage.outcome == "exit-2"


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert harness.tail_index(500) == 489  # p98
    assert harness.tail_index(48) == 37
    with pytest.raises(ValueError):
        harness.tail_index(10)


def test_hash_seed_is_pinned_for_workload_processes():
    assert run.pinned_env({"PATH": "/bin"}) == {"PATH": "/bin",
                                                "PYTHONHASHSEED": "0"}
    assert run.pinned_env({"PYTHONHASHSEED": "123"})["PYTHONHASHSEED"] == "0"
    assert run.pinned_env({"PYTHONHASHSEED": "0"}) is None


def test_end_to_end_metrics_are_those_of_benchmark_json():
    quick = harness.Call(0, 0.002, "")
    rounds = [{i: harness.Run(quick, quick) for i in range(20)},
              {i: harness.Run(quick, quick) for i in range(20)}]
    report = harness.Report()
    report.outcomes["ok"] = 20
    metrics = harness.end_to_end(rounds, [0.1, 0.2, 0.3], 50.0, report)
    assert list(metrics) == list(run.metric_units(False))
    assert metrics["instance_ms_p50"] == pytest.approx(4.0)
    assert metrics["instances_per_s"] == pytest.approx(250.0)


def test_times_are_scaled_except_time_limited_calls():
    run = harness.Run(harness.Call(0, 0.010, ""), harness.Call(None, 12.0, ""),
                      scale=0.5)
    assert run.scaled_synth_s == pytest.approx(0.005)
    assert run.scaled_s == pytest.approx(12.005)
    assert harness.host_scale([harness.PROBE_REF_S * 2] * 3) == pytest.approx(0.5)


def test_instance_time_is_the_median_of_its_later_rounds():
    def rnd(seconds):
        return {i: harness.Run(harness.Call(0, s, "")) for i, s in seconds.items()}
    rounds = [rnd({0: 9.0, 1: 5.0}), rnd({0: 1.0}), rnd({0: 3.0}), rnd({0: 2.0}),
              rnd({0: 4.0})]
    assert harness._per_instance(rounds, lambda r: r.seconds) == [2.0, 5.0]


def test_in_child_returns_the_result_and_reaps_the_child():
    assert harness.in_child(lambda: {"pid": os.getpid()})["pid"] != os.getpid()
    with pytest.raises(RuntimeError):
        harness.in_child(lambda: 1 / 0)
    with pytest.raises(ChildProcessError):
        os.wait()  # nothing left to wait for


def test_workloads_are_those_of_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"][1] == "bench/run.py"
