#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 asrbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds
asrbench/ (which pulls in the repository's libraries) into the
directory named by $CARGO_TARGET_DIR, or .bench_build; later calls only
rebuild what changed.  The benchmark binary's output is passed through,
and its last line -- one JSON object -- is checked against
BENCHMARK.json before it is repeated as this script's last line.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"asrbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "asrbench",
           "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "asrbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with {run.returncode}")
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    want = declared_metrics(args.trace)
    if list(result["metrics"]) != want:
        fail(f"metrics {list(result['metrics'])} differ from "
             f"BENCHMARK.json {want}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
