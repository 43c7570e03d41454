#!/usr/bin/env python3
"""Benchmark of nflower, end to end and layer by layer.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from src/ next to this
directory.  One run repeats whole rounds of the workload's operations until
the operations themselves have taken --seconds, checks every output against
oracle.py, and prints one JSON line last: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run.  Details of
the run go to perfbench/out/.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import selftest
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is timed in this many fresh processes; the median is reported.
SETUP_PROBES = 9
# latency_tail_ms is this percentile of the operations' best times.
TAIL_PERCENTILE = 90


def _setup(name: str, seed: int, traced: bool = False):
    """Import nflower, make the inputs, and run the first operation once."""
    wl = workloads.make(name, seed, ROOT, traced)
    wl.check(0, wl.run(0))
    return wl


def _setup_seconds(args) -> float:
    """Median time from starting a fresh process to its first timed operation."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as p:
            line = p.stdout.readline()
            times.append(perf_counter() - start)
            p.stdout.read()
        if p.returncode != 0 or line != b"ready\n":
            raise RuntimeError(f"set-up probe failed with exit code {p.returncode}")
    return statistics.median(times)


def _pin(cpus) -> None:
    """Run this process (and the children it starts) on the given CPUs; where
    that is not permitted, the scheduler keeps choosing."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nflower" / "__init__.py").is_file():
        print(f"perfbench: no nflower package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    traced = bool(args.trace)
    setup_s = None if traced else _setup_seconds(args)
    wl = _setup(args.workload, args.seed, traced)
    problems = selftest.run()
    if problems:
        print("perfbench: the checks are broken:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 3

    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    samples = [[] for _ in wl.slots]  # seconds of each checked repetition, per operation
    attempted = failed = rounds = 0
    correct = True
    timed = 0.0
    # Each round runs on one CPU, in turn: other tenants slow the CPUs of a
    # shared machine at different times, and an operation's best time then
    # comes from the less disturbed one.
    cpus = sorted(os.sched_getaffinity(0))
    while rounds == 0 or timed < args.seconds:
        _pin({cpus[rounds % len(cpus)]})
        for i in range(len(wl.slots)):
            tracer.op = attempted
            attempted += 1
            error = None
            start = perf_counter()
            try:
                out = wl.run(i)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            took = perf_counter() - start
            timed += took
            if error is None:
                try:
                    wl.check(i, out)
                except Exception as exc:  # malformed output fails its check too
                    error = exc
            if error is None:
                samples[i].append(took)
                continue
            failed += 1
            if i not in wl.known_faults:
                if correct:
                    print(f"perfbench: operation {i} of the round failed:", file=sys.stderr)
                    traceback.print_exception(error)
                correct = False
        rounds += 1
    _pin(cpus)
    tracer.uninstall()

    best = sorted(min(s) for s in samples if s)
    if not best:
        print("perfbench: every operation failed", file=sys.stderr)
        return 1
    every = sorted(t for s in samples for t in s)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "operations_per_round": len(wl.slots), "timed_s": timed,
              "best_ops_per_s": len(best) / sum(best),
              "all_samples": {"count": len(every), "ops_per_s": len(every) / sum(every),
                              "p50_ms": 1e3 * statistics.median(every),
                              "p90_ms": 1e3 * _percentile(every, 90),
                              "p99_ms": 1e3 * _percentile(every, 99)}}
    if traced:
        startup = 1e3 * statistics.fmean(wl.startup_s) if getattr(wl, "startup_s", None) else 0.0
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k]}
                   for k, v in tracing.per_layer_metrics(tracer, attempted, startup).items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(best), "unit": "ms"},
            "latency_tail_ms": {"value": 1e3 * _percentile(best, TAIL_PERCENTILE), "unit": "ms"},
            "peak_rss_mb": {"value": wl.peak_rss_kb() / 1024.0, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**detail, "result": result}, indent=1) + "\n")
    if traced:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
