"""Benchmark of the simsup command line: one workload and seed per run.

    python3 bench/run.py --workload pool --seed 0 --seconds 35 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the end-to-end
metrics with --trace 0, the per-layer metrics of a traced round with
--trace 1, both as listed in BENCHMARK.json.  Any wrong output makes the
exit code 1.  Workloads, metrics and baseline figures are described in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def metric_units(trace: bool) -> dict:
    """Metric name -> unit, in report order, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pool", "covers", "partial"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "simsup", "cli.py")):
        # measure the checkout's own sources, never an installed copy
        print("no simsup sources under %s" % src, file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, src]
    from bench.harness import measure

    work_dir = os.path.join(ROOT, ".bench_work", "%s-%d-%d"
                            % (args.workload, args.seed, os.getpid()))
    spans = os.path.join(ROOT, ".bench_out", "spans-%s-%d.jsonl"
                         % (args.workload, args.seed))
    try:
        report, metrics, lines = measure(args.workload, args.seed, args.seconds,
                                         bool(args.trace), work_dir, spans)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = metric_units(bool(args.trace))
    for line in lines:
        print(line)
    for name, unit in units.items():
        print("  %-34s %14.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if report.correct else 1


def pinned_env(environ) -> dict | None:
    """The environment to re-run this script in with string hashing pinned,
    or None when it already is.  Set iteration order, and with it the order
    in which an enumeration reaches a guard cap, depends on string hashing;
    pinning it makes counters repeat from run to run."""
    if environ.get("PYTHONHASHSEED") == "0":
        return None
    return dict(environ, PYTHONHASHSEED="0")


if __name__ == "__main__":
    env = pinned_env(os.environ)
    if env is not None:
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.exit(main())
