#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is compiled from source into
$CARGO_TARGET_DIR (default .bench_build) on first use. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}; its
metrics are BENCHMARK.json's end_to_end list (--trace 0) or per_layer list
(--trace 1). The exit code is non-zero on any wrong answer, recovery
mismatch or pushed-set drift, and when the sources or the build are missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the Release benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.h")):
        fail("repository sources (src/) not found; run from a full checkout")
    out = build_dir()
    cmake_dir = os.path.join(out, "cmake")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = os.path.join(cmake_dir, "ciao_perfbench")
    if not os.path.isfile(binary):
        fail("benchmark binary missing after build")
    work_dir = os.path.join(out, "work")
    os.makedirs(work_dir, exist_ok=True)
    return binary, work_dir


def run_one(binary, work_dir, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    env = dict(os.environ)
    env.pop("CIAO_PROFILE", None)  # the plan is made with the default model
    try:
        # A run must end within 180 s; a hung one is killed and reaped.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=max(170, 3 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        fail(f"{workload}: timed out")
    # A run that died leaves its store directory behind.
    for name in os.listdir(work_dir):
        if name.startswith("run-"):
            shutil.rmtree(os.path.join(work_dir, name), ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(proc.stdout, end="")
        fail(f"{workload}: no result line (exit code {proc.returncode})")
    return proc.returncode, result


def check_metrics(result, contract, trace):
    expected = [m["name"] for m in contract["per_layer" if trace else "end_to_end"]]
    got = list(result["metrics"])
    if sorted(got) != sorted(expected):
        fail(f"metrics {sorted(set(got) ^ set(expected))} differ from BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    contract_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(contract_path):
        fail("BENCHMARK.json not found")
    with open(contract_path) as f:
        contract = json.load(f)
    binary, work_dir = build()
    names = [w["name"] for w in contract["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(f"unknown workload {args.workload}; choose from {names} or all")

    status = 0
    results = {}
    for workload in workloads:
        code, result = run_one(binary, work_dir, workload, args)
        check_metrics(result, contract, args.trace)
        results[workload] = result
        status = status or code
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        metrics = {f"{w}.{name}": value for w, r in results.items()
                   for name, value in r["metrics"].items()}
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics,
        }))
    sys.exit(status)


if __name__ == "__main__":
    main()
