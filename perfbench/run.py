#!/usr/bin/env python3
"""One run of the csqp serving benchmark.

    python3 perfbench/run.py --workload serve-plan --seed 1 --seconds 20 --trace 0

Builds `csqp-serve` (the repository's server binary) and the benchmark
program `csqp-perfbench` in release mode, then runs the program. Cargo
builds into $CARGO_TARGET_DIR, or `.bench_build` at the repository root
when it is unset. Build output goes to standard error; the last line of
standard output is the program's result object. The exit code is the
program's: 0 for a correct run, non-zero otherwise (including a failed
build, in which case no result is printed).
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must end well inside three minutes; the build before it has its
# own, longer allowance.
RUN_TIMEOUT_S = 170


def cargo_build(env, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["serve-plan", "serve-hot", "paper-10way"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cargo_build(env, os.path.join(ROOT, "Cargo.toml"), "--bin", "csqp-serve")
    cargo_build(env, os.path.join(ROOT, "perfbench", "Cargo.toml"))

    cmd = [
        os.path.join(target, "release", "csqp-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server-bin", os.path.join(target, "release", "csqp-serve"),
        "--out", os.path.join(ROOT, "perfbench", "out"),
    ]
    # Its own process group, so a timeout also stops the servers it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"run.py: run exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if lines:
        print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
