#!/usr/bin/env python3
"""Build and run the paper-pipeline benchmark from the root of a checkout.

    python3 perfbench/run.py --workload libchar|signoff|synth|imagechain \
        --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe (and the libraries it links) from the sources in
the current directory with dune, runs one workload, and prints the
program's result object as the last line of standard output.  Run outputs
(quality-of-results and trace files) go to _perfbench/; when a run repeats a
workload and seed, the quality-of-results that changed since the previous
run are listed on standard error (informational, not gated).

Exits non-zero, without a result line, when the current directory does not
hold the repository's sources, when the build fails, or when the benchmark
program fails or overruns its time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("libchar", "signoff", "synth", "imagechain")
OUT_DIR = "_perfbench"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def expected_metrics(trace):
    """Metric name -> unit declared in BENCHMARK.json for this kind of run."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def qor_diff(path, previous):
    """Report quality-of-results keys whose value changed since the last run."""
    try:
        with open(path) as f:
            current = json.load(f)
    except (OSError, ValueError):
        return
    changed = sorted(k for k in current if k in previous and previous[k] != current[k])
    for key in changed:
        print(f"perfbench: qor {key}: {previous[key]} -> {current[key]}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of a source checkout (no dune-project or lib/ here)")

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return fail(f"build exceeded {BUILD_TIMEOUT_S} s")
    if build.returncode != 0 or not os.path.isfile(EXE):
        return fail("build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    qor_path = os.path.join(OUT_DIR, f"qor-{args.workload}-seed{args.seed}.json")
    try:
        with open(qor_path) as f:
            previous = json.load(f)
    except (OSError, ValueError):
        previous = {}

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        return fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        # The program removes its private library cache itself; this covers
        # a program that was killed.  A cache must not outlive its run.
        shutil.rmtree(os.path.join(OUT_DIR, f"cache-{args.workload}-{child.pid}"), ignore_errors=True)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        return fail(f"benchmark exited with code {child.returncode}")
    sys.stderr.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("benchmark printed no result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("malformed result object")
    declared = expected_metrics(args.trace)
    reported = {name: m.get("unit") for name, m in result["metrics"].items()}
    if declared is not None and reported != declared:
        return fail("reported metrics differ from those BENCHMARK.json declares")

    qor_diff(qor_path, previous)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
