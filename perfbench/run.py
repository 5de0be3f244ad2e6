#!/usr/bin/env python3
"""Builds the benchmark from source and runs one pass of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The OCaml benchmark (perfbench/main.ml)
is built with dune into .bench_build/ and run; its stdout, whose last
line is the JSON result, is passed through. A failed build or a run
that fails or overruns its time limit exits non-zero without printing a
result.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    # The dune cache lives outside the checkout; keep every write inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--program-seed", type=int,
                   help="progen seed (default: the workload's suite seed)")
    a = p.parse_args()
    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.program_seed is not None:
        cmd += ["--program-seed", str(a.program_seed)]
    try:
        # On timeout, run() kills the child and waits for it.
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if r.returncode != 0 or not r.stdout.strip():
        fail(f"benchmark exited with code {r.returncode}")
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
