#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 45 \
        --trace 0
    python3 perfbench/run.py --self-test

The first call builds perfbench/ (which compiles the library sources
under src/) in Release mode into $CARGO_TARGET_DIR or .bench_build; later
calls only re-check the build. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.
--trace 1 runs the traced binary, which reports the per-layer metrics and
writes its spans to <build>/traces/.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_hot", "paper_cold", "live_churn")
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(targets):
    """Configures and builds `targets`; False on any failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # Concurrent invocations share one build tree; serialize them.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "-j4", "--target"] + targets]
        # Keep the compiler's temporary files inside the build tree too.
        tmp = os.path.join(out, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr, env=env)
            except OSError as err:
                print("perfbench: cannot run %s: %s" % (step[0], err),
                      file=sys.stderr)
                return False
            if done.returncode != 0:
                print("perfbench: build step failed: %s" % " ".join(step),
                      file=sys.stderr)
                return False
    return True


def run(command):
    """Runs `command`, relaying its output; returns (code, stdout)."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build(["perfbench_test"]):
            return 1
        return subprocess.run([os.path.join(build_dir(), "perfbench_test")]
                              ).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = "perfbench_traced" if args.trace else "perfbench"
    if not build([binary]):
        return 1
    command = [os.path.join(build_dir(), binary),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.tsv" % (args.workload, args.seed))]
    code, stdout = run(command)
    lines = stdout.rstrip("\n").split("\n")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        return code or 1
    if code == 0 and not result.get("correct", False):
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
