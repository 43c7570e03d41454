#!/usr/bin/env python3
"""Run every workload on several seeds and print each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10                 # end-to-end metrics
    python3 perfbench/sweep.py --seeds 1-2 --trace 1        # per-layer metrics
    python3 perfbench/sweep.py --workloads cli --seeds 1-5 --seconds 10

For each workload it prints, per metric, the median over the seeds, the
first and third quartiles and their distance as a share of the median,
with the operations attempted and failed.  Traced sweeps also print the
traced ops_per_s, for the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(NAMES))
    parser.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            status |= not result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            if args.trace == "1":
                detail = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
                values.setdefault("traced ops_per_s", []).append(detail["best_ops_per_s"])
                units["traced ops_per_s"] = "1/s"
        print(f"\n{workload}: {attempted} operations attempted, {failed} failed")
        print("| metric | unit | median | q1 | q3 | (q3-q1)/median |")
        print("|---|---|---|---|---|---|")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {units[name]} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} |")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
