#!/usr/bin/env python3
"""Build krad_bench from source and run one workload of it.

Usage (from the repository root):

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds bench/e2e, and with it the library
under src/, into .bench_build/ (a few minutes); later calls only rebuild what
changed.  The build log goes to stderr.  The benchmark's output goes to
stdout, and its last line is the JSON result.  --trace 1 makes a traced run,
which writes .bench_build/traces/<workload>.trace.json for Perfetto.  The
exit status is krad_bench's, or 1 when the build fails or a run exceeds the
time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OUT = ROOT / ".bench_build"
BUILD = OUT / "cmake"
WORKLOADS = ("campaign_dag", "campaign_profile", "opt_exact",
             "executor_batch", "service_open")
# krad_bench's own watchdog ends a hung run well before this.
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then build incrementally; True on success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no src/ next to bench/e2e, nothing to build",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"),
                      "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--parallel", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            return False
    return True


def git_describe():
    """The commit being measured, or "none" outside a git checkout."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    result = subprocess.run(
        ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
        capture_output=True, text=True, check=False)
    return result.stdout.strip() or "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    command = [str(BUILD / "krad_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--work-dir", str(OUT / "work"), "--git", git_describe()]
    if args.trace:
        command += ["--trace", str(OUT / "traces")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
