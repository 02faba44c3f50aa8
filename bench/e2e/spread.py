#!/usr/bin/env python3
"""Run-to-run spread of krad_bench, checked against BENCHMARK.json bounds.

Usage (from the repository root):

    python3 bench/e2e/spread.py [--runs N] [--seed S] [--seconds T]
                                [--workloads a,b,...] [--trace 0|1]

Runs every workload N times through run.py, run r with seed S + r,
alternating the workload order from one round to the next so slow drift of
the host does not land on one workload.  Prints, for every metric line a run
printed, the median, the quartiles (statistics.quantiles, n=4) and the
interquartile range as a share of the median.

Exits 1 if a run failed or was incorrect, or if an end-to-end metric other
than setup_s has a relative IQR above its bound in BENCHMARK.json.  A bound
holds with margin when the spread stays below a third of it; lengthen the
runs rather than widen a bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).resolve().parent / "run.py"
LINE = re.compile(r"^([A-Za-z0-9][A-Za-z0-9_.-]*) (\S+) (\S+)$")


def run_once(workload, seed, seconds, trace):
    """One run's metric lines as {name: (value, unit)}, or None on failure."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if (proc.returncode != 0 or result is None or not result["correct"]
            or result["failed"] != 0):
        print(f"FAILED {workload} seed {seed} (exit {proc.returncode})")
        print("\n".join(lines[-30:]))
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    metrics = {}
    for line in lines:
        match = LINE.match(line)
        if match is None:
            continue
        try:
            metrics[match.group(1)] = (float(match.group(2)), match.group(3))
        except ValueError:
            continue
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seconds", type=int, default=0,
                        help="run length (default: BENCHMARK.json)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    failures = 0
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for workload in order:
            metrics = run_once(workload, args.seed + r, seconds, args.trace)
            if metrics is None:
                failures += 1
                continue
            for name, value in metrics.items():
                values[workload].setdefault(name, []).append(value)

    over = 0
    print(f"{args.runs} runs per workload, seeds {args.seed}.."
          f"{args.seed + args.runs - 1}, {seconds} s each")
    print(f"{'workload':17} {'metric':26} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'iqr/med':>8} {'bound':>6}")
    for workload in workloads:
        for name, samples in values[workload].items():
            numbers = [v for v, _ in samples]
            unit = samples[0][1]
            med = statistics.median(numbers)
            q1, _, q3 = (statistics.quantiles(numbers, n=4)
                         if len(numbers) > 1 else (med, med, med))
            rel = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                if rel > bound:
                    mark = "OVER"
                    over += 1
                elif rel > bound / 3:
                    mark = "thin"
            print(f"{workload:17} {name + ' (' + unit + ')':26} {med:14.6g} "
                  f"{q1:14.6g} {q3:14.6g} {rel:8.4f} "
                  f"{'' if bound is None else bound:>6} {mark}")
    if failures or over:
        print(f"{failures} failed runs, {over} metrics over their bound")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
