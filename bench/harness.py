"""Timed rounds of `simsup.cli.main` calls over a workload, and their figures.

Every CLI call runs inside the benchmark (those of the first round in a
forked child, see `measure`), under an interval-timer time limit, with its
output captured; starting `simsup` as a subprocess would add about 176 ms of
interpreter start-up per call (2-core Xeon VM) and swamp the program.
Each call ends in one outcome class: ok, guard-state, guard-cover,
guard-initial, time-limit, exit-2 or wrong.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import pickle
import resource
import signal
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter

from simsup import cli
from simsup.autfile import format_automaton

from . import checks
from .tracer import Tracer
from .workloads import WORKLOADS, Instance, Workload, instances

OUTCOMES = ("ok", "guard-state", "guard-cover", "guard-initial", "time-limit",
            "exit-2", "wrong")
SETUP_REPEATS = 7
# Set-up repeats are spread over the later rounds: rewriting files just
# written costs about 10 % more than rewriting them seconds later.
SETUP_GAP_S = 2.0
MIN_LATER_ROUNDS = 2
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
QUICK_S = 1.0  # calls this fast in the first round are repeated in later ones
# Host speed.  On the 2-core Xeon VM the whole host runs at one speed for
# minutes and then another, up to 2x apart: a pool `synthesize` median went
# from 4.1 to 2.0 ms within a minute and held there, and `probe` from 7.5 to
# 4.3 ms with it.  Every time the benchmark reports is therefore scaled to
# one host speed, that at which `probe` takes PROBE_REF_S, by the median
# probe time of the round it was taken in; raw figures are printed above
# the result line.
PROBE_REF_S = 0.004
PROBE_GAP_S = 0.1  # in a round, seconds between probes
SETUP_PROBES = 3  # probes before and after each set-up


class TimeLimit(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program can swallow it."""


def _on_alarm(signum, frame):
    raise TimeLimit()


@dataclass
class Call:
    code: int | None  # None: cut off by the time limit
    seconds: float
    stderr: str

    @property
    def outcome(self) -> str:
        if self.code is None:
            return "time-limit"
        if self.code == 0:
            return "ok"
        if self.code == 2:
            return "exit-2"
        if self.code == 3:
            msg = self.stderr
            if "state cap" in msg:
                return "guard-state"
            if "initial" in msg or "sistate" in msg:
                return "guard-initial"
            return "guard-cover"
        return "wrong"


def cli_call(argv: list[str], limit: float, tracer: Tracer | None = None) -> Call:
    main = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main")
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_call(argv)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except TimeLimit:
        code = None
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    if tracer is not None:
        tracer.end_call(keep=code is not None)
    return Call(code, seconds, err.getvalue())


@dataclass
class Run:
    """One instance in one round."""
    synth: Call
    verify: Call | None = None
    digest: str | None = None  # sha256 of the supervisor and sidecar written
    scale: float = 1.0  # host speed factor of its round, see `run_round`

    @property
    def calls(self) -> list[Call]:
        return [self.synth] + ([self.verify] if self.verify else [])

    @property
    def outcome(self) -> str:
        return self.calls[-1].outcome

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    def _scaled(self, call: Call) -> float:
        # a call cut off by the time limit took the limit, at any host speed
        return call.seconds if call.code is None else self.scale * call.seconds

    @property
    def scaled_synth_s(self) -> float:
        return self._scaled(self.synth)

    @property
    def scaled_s(self) -> float:
        return sum(self._scaled(c) for c in self.calls)


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work with sets, dicts
    and tuples, the kind the program does; the benchmark's measure of host
    speed."""
    start = perf_counter()
    seen, index = set(), {}
    for i in range(6000):
        key = (i % 97, i % 89, i)
        seen.add(key)
        index[key] = len(seen)
    sorted(k for k in seen if k[0] < 50)
    return perf_counter() - start


def host_scale(probes: list[float]) -> float:
    """Factor that scales times taken beside these probes to the host speed
    at which the probe takes PROBE_REF_S."""
    return PROBE_REF_S / statistics.median(probes)


class Paths:
    def __init__(self, root: str, index: int):
        stem = os.path.join(root, "i%03d" % index)
        self.plant = stem + "_plant.aut"
        self.spec = stem + "_spec.aut"
        self.out = stem + "_sup"
        self.sup = self.out + ".aut"
        self.sidecar = self.out + ".json"


def setup(work: Workload, seed: int, root: str):
    """Draw the instances and write their files; returns (instances, paths)."""
    insts = instances(work.name, seed)
    os.makedirs(root, exist_ok=True)
    paths = []
    for i, inst in enumerate(insts):
        p = Paths(root, i)
        with open(p.plant, "w", encoding="utf-8") as fh:
            fh.write(format_automaton(inst.plant))
        with open(p.spec, "w", encoding="utf-8") as fh:
            fh.write(format_automaton(inst.spec))
        paths.append(p)
    return insts, paths


def _digest(paths: Paths) -> str:
    h = hashlib.sha256()
    for name in (paths.sup, paths.sidecar):
        with open(name, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_instance(work: Workload, p: Paths, tracer: Tracer | None = None) -> Run:
    # empty the outputs of an earlier round, so that a call that writes
    # nothing is caught; they are emptied and not deleted because file
    # creation on the 2-core VM's ext4 disk is slow and erratic (1000 small
    # files took 0.03 s at one moment, 0.55-0.8 s at another), and rewriting
    # an existing file is not (0.05-0.16 s per 1000)
    for name in (p.sup, p.sidecar):
        with contextlib.suppress(FileNotFoundError):
            os.truncate(name, 0)
    synth = cli_call(["synthesize", p.plant, p.spec, "--out", p.out,
                      *work.synth_flags], work.time_limit_s, tracer)
    run = Run(synth)
    if synth.code == 0:
        run.digest = _digest(p)
        if work.verify:
            run.verify = cli_call(["verify", p.sup, p.plant, p.spec],
                                  work.time_limit_s, tracer)
    return run


def run_round(work: Workload, paths: list[Paths], indices,
              tracer: Tracer | None = None, between=None) -> dict[int, Run]:
    """Runs the instances in order, with a probe at the start, the end and
    whenever PROBE_GAP_S has passed; every run gets the round's host_scale.
    `between`, if given, is called after every instance."""
    runs, probes = {}, [probe()]
    last = perf_counter()
    for i in indices:
        runs[i] = run_instance(work, paths[i], tracer)
        if perf_counter() - last >= PROBE_GAP_S:
            probes.append(probe())
            last = perf_counter()
        if between is not None:
            between()
    probes.append(probe())
    scale = host_scale(probes)
    for run in runs.values():
        run.scale = scale
    return runs


def instances_per_s(rnd: dict[int, Run]) -> float:
    return len(rnd) / sum(r.scaled_s for r in rnd.values())


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest percentile with at least
    TAIL_BEYOND samples beyond it."""
    if n <= TAIL_BEYOND:
        raise ValueError("need more than %d samples for a tail" % TAIL_BEYOND)
    return n - TAIL_BEYOND - 1


@dataclass
class Report:
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    outcomes: dict = field(default_factory=lambda: dict.fromkeys(OUTCOMES, 0))
    attempted: int = 0
    failed: int = 0

    def problem(self, text: str) -> None:
        self.correct = False
        self.problems.append(text)


def check_rounds(work: Workload, insts: list[Instance], paths: list[Paths],
                 rounds: list[dict[int, Run]], report: Report) -> None:
    """Classify every instance by its first round and check its outputs."""
    for i, (inst, p) in enumerate(zip(insts, paths)):
        first = rounds[0][i]
        report.outcomes[first.outcome] += 1
        label = "instance %d (draw %d)" % (i, inst.draw)
        for later in rounds[1:]:
            run = later.get(i)
            if run is None:
                continue
            if run.synth.code == first.synth.code == 0 and run.digest != first.digest:
                report.problem("%s: output sha256 differs between rounds" % label)
            for a, b in zip(first.calls, run.calls):
                if a.outcome != b.outcome and "time-limit" not in (a.outcome,
                                                                  b.outcome):
                    report.problem("%s: outcome %s then %s"
                                   % (label, a.outcome, b.outcome))
        if first.outcome in ("exit-2", "wrong"):
            msgs = " / ".join(c.stderr.strip() for c in first.calls if c.stderr)
            report.problem("%s: %s %s" % (label, first.outcome, msgs[:200]))
        problem = checks.check_fixpoint(inst.plant, inst.spec)
        if problem is None and first.synth.code == 0:
            problem = checks.check_supervisor(work.name, p.sup, inst.plant, inst.spec)
        if problem is not None:
            report.problem("%s: %s" % (label, problem))
    runs = [r for rnd in rounds for r in rnd.values()]
    report.attempted = len(runs)
    report.failed = sum(1 for r in runs if r.outcome in ("exit-2", "wrong"))


def _per_instance(rounds, value) -> list[float]:
    """Per instance, the low median of its later rounds, or its first round
    when it ran only once.  The first round is left out where it can be: its
    calls create their output files and follow the blow-ups.  A median and
    not the fastest round, because the fastest of k rounds gets faster as k
    grows, and k depends on host speed; the low median, because noise only
    ever adds time, and of two rounds the mean would take half of a slow
    one's excess."""
    return [statistics.median_low([value(rnd[i]) for rnd in rounds[1:] if i in rnd]
                                  or [value(rounds[0][i])])
            for i in rounds[0]]


def end_to_end(rounds: list[dict[int, Run]], setup_times: list[float],
               peak_rss_mb: float, report: Report) -> dict:
    synth_ms = sorted(_per_instance(rounds, lambda r: 1e3 * r.scaled_synth_s))
    inst_ms = sorted(_per_instance(rounds, lambda r: 1e3 * r.scaled_s))
    n = len(synth_ms)
    k = tail_index(n)
    return {
        "setup_s": statistics.median(setup_times),
        "instances_per_s": 1e3 * n / sum(inst_ms),
        "synthesize_ms_p50": statistics.median(synth_ms),
        "synthesize_ms_tail": synth_ms[k],
        "instance_ms_p50": statistics.median(inst_ms),
        "instance_ms_tail": inst_ms[k],
        "ok_frac": report.outcomes["ok"] / n,
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of the children it waited
    for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def in_child(fn):
    """fn() run in a forked child process, which this one waits for; its
    result comes back pickled through a pipe."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as fh:
                pickle.dump(fn(), fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError("child process exited with %d" % code)
    return pickle.loads(data)


class Setups:
    """Timed set-ups.  Each draws the instances anew and writes their files,
    into the same directory: the first creates the files and the later ones
    rewrite them, which costs less than creating them and varies far less
    (see `run_instance`).  The inputs must come out the same each time."""

    def __init__(self, work: Workload, seed: int, root: str):
        self.work, self.seed, self.root = work, seed, root
        self.times: list[float] = []
        self._digests = None
        self._last = 0.0

    def spaced(self) -> None:
        """One more set-up, if fewer than SETUP_REPEATS are done and
        SETUP_GAP_S has passed since the last."""
        if len(self.times) < SETUP_REPEATS \
                and perf_counter() - self._last >= SETUP_GAP_S:
            self.run()

    def run(self):
        """One more set-up; returns its (instances, paths).  Its time is
        scaled by the host_scale of probes taken before and after it."""
        probes = [probe() for _ in range(SETUP_PROBES)]
        start = perf_counter()
        insts, paths = setup(self.work, self.seed, self.root)
        seconds = perf_counter() - start
        probes += [probe() for _ in range(SETUP_PROBES)]
        self.times.append(seconds * host_scale(probes))
        self._last = perf_counter()
        seen = []
        for p in paths:
            for name in (p.plant, p.spec):
                with open(name, "rb") as fh:
                    seen.append(hashlib.sha256(fh.read()).hexdigest())
        if self._digests is not None and seen != self._digests:
            raise RuntimeError("set-up is not deterministic")
        self._digests = seen
        return insts, paths


def measure(name: str, seed: int, seconds: float, trace: bool, root: str,
            spans_path: str | None = None):
    """Run one workload; returns (report, metrics, summary lines).

    The first round runs every instance once, in draw order, in a child
    process.  Later rounds, at least MIN_LATER_ROUNDS and more while the
    time lasts, re-run only the quick instances (every call under QUICK_S in
    the first round); a run is too short to repeat the slow ones.  Every
    time is scaled by the host speed of its round (see PROBE_REF_S).  An
    instance's time is a median of its later rounds (see `_per_instance`),
    and the throughput is the instance count over the sum of those times.
    The set-up repeats are spread over the later rounds.  The objects of
    set-up are frozen out of the garbage collector, which a user's process
    would not have to scan.  A traced run times one plain round and then one
    traced round of every instance.
    """
    work = WORKLOADS[name]
    setups = Setups(work, seed, root)
    insts, paths = setups.run()
    gc.collect()
    gc.freeze()
    report = Report()
    start = perf_counter()
    # the first round runs in a child process: after a blow-up is cut by the
    # time limit, the calls that follow in the same process run slower, by
    # up to 20 % and by a different amount from run to run, which a user's
    # separate `simsup` processes never see
    rounds = [in_child(lambda: run_round(work, paths, range(len(paths))))]
    quick = [i for i, r in rounds[0].items()
             if all(c.code is not None and c.seconds < QUICK_S for c in r.calls)]
    next_s = sum(rounds[0][i].seconds for i in quick)
    while not trace and quick and (len(rounds) <= MIN_LATER_ROUNDS
                                   or perf_counter() - start + next_s <= seconds):
        t0 = perf_counter()
        rounds.append(run_round(work, paths, quick, between=setups.spaced))
        next_s = perf_counter() - t0
    while len(setups.times) < SETUP_REPEATS:
        setups.run()
    rss = peak_rss_mb()
    timed = len(rounds)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            rounds.append(run_round(work, paths, range(len(paths)), tracer))
        finally:
            tracer.uninstall()
        if spans_path:
            tracer.write_spans(spans_path)
    # every supervisor written needs a second synthesis to compare digests
    # with; the untimed re-runs go in a round of their own
    once = [i for i, r in rounds[0].items() if r.synth.code == 0
            and not any(i in rnd for rnd in rounds[1:])]
    if once:
        rounds.append(run_round(replace(work, verify=False), paths, once))
    check_start = perf_counter()
    check_rounds(work, insts, paths, rounds, report)
    check_s = perf_counter() - check_start
    if trace:
        traced = rounds[timed]
        metrics = tracer.layer_metrics()
        trips = dict.fromkeys(("state", "cover", "initial"), 0)
        for run in traced.values():
            for call in run.calls:
                if call.outcome.startswith("guard-"):
                    trips[call.outcome[len("guard-"):]] += 1
        for kind, n in trips.items():
            metrics["synthesis.guard_trips." + kind] = n
        metrics["trace.instances_per_s_ratio"] = (instances_per_s(traced)
                                                  / instances_per_s(rounds[0]))
        call_s = sum(r.seconds for r in traced.values())
    else:
        metrics = end_to_end(rounds[:timed], setups.times, rss, report)
    n = len(insts)
    lines = ["workload %s seed %d: %d instances (%d quick), %d timed round(s), "
             "time limit %.0f s per call, checks %.1f s"
             % (name, seed, n, len(quick), timed, work.time_limit_s, check_s)]
    counts = ", ".join("%s %d" % (k, v) for k, v in report.outcomes.items() if v)
    failed = n - report.outcomes["ok"]
    lines.append("outcomes: %s; failed_frac %.4f (%d of %d)"
                 % (counts, failed / n, failed, n))
    lines.append("tail = p%.1f of %d per-instance samples (%d beyond it)"
                 % (100.0 * (tail_index(n) + 1) / n, n, TAIL_BEYOND))
    scales = [rnd[next(iter(rnd))].scale for rnd in rounds[:timed]]
    raw_ms = _per_instance(rounds[:timed], lambda r: 1e3 * r.synth.seconds)
    lines.append("host scale %.3f-%.3f over the timed rounds; unscaled "
                 "synthesize_ms_p50 %.4g" % (min(scales), max(scales),
                                             statistics.median(raw_ms)))
    if trace:
        lines.append("traced round: %.2f s in CLI calls, %.1f%% of it in argparse"
                     % (call_s, 100.0 * metrics["cli.argparse_s"] / call_s))
    for text in report.problems:
        lines.append("WRONG: " + text)
    return report, metrics, lines
