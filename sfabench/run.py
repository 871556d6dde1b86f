#!/usr/bin/env python3
"""Builds and runs the sfa end-to-end benchmark.

Usage, from the repository root:

    python3 sfabench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Configures and builds the library plus the benchmark program (Release,
Ninja when available) under $CARGO_TARGET_DIR (default .bench_build) inside
the repository, then runs one workload. Build output goes to stderr; the
program's stdout is passed through, so its last line is the JSON result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_calibrate", "warm_serve", "restart_store")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "sfabench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The library is built from this checkout's sources; without them there
    # is nothing to measure.
    for required in ("CMakeLists.txt", "src/core/audit_pipeline.h"):
        if not os.path.exists(os.path.join(ROOT, required)):
            return fail(f"{required} not found: run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out_dir = os.path.join(ROOT, target)
    try:
        binary = build(os.path.join(out_dir, "sfabench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")

    work_dir = os.path.join(out_dir, "sfabench-work")
    trace_dir = os.path.join(out_dir, "sfabench-traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode

    # The result must name exactly the metrics BENCHMARK.json declares for
    # this mode, each in its declared unit.
    result = json.loads(run.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        wrong = sorted(name for name in set(printed) | set(declared)
                       if printed.get(name) != declared.get(name))
        return fail(f"result metrics or units differ from BENCHMARK.json: "
                    f"{wrong}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
