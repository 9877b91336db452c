#!/usr/bin/env python3
"""Build the end-to-end benchmark and run one workload.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload train_fp4_snip --seed 1 \\
      --seconds 25 --trace 0 [--threads 2]
  python3 perfbench/run.py --self-test

The harness (perfbench/snipbench.cpp) is built with CMake into
.bench_build/perfbench, together with the library it measures; build
output goes to stderr. The harness prints its human-readable report,
then one JSON line {"correct", "attempted", "failed", "metrics"} as the
last line of stdout. This script checks that line against
BENCHMARK.json: with --trace 0 the metrics must be exactly the
end_to_end list, with --trace 1 exactly the per_layer list, each with
its declared unit. The per_layer list is passed to the harness, which
reports those metrics in that order (0 for a layer the workload does
not exercise) and fails on a metric the list lacks. Traced runs also
write their spans as Chrome trace-event JSON to .bench_build/traces/
(readable by tools/trace_report.py and Perfetto).

Workloads: train_fp4_snip, serve_fp8kv, serve_fp32kv (see the file
comment of snipbench.cpp for what each one runs and why).

Exit status: 0 when every output check passed; non-zero when the build
fails, an output check fails, or the result does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("train_fp4_snip", "serve_fp8kv", "serve_fp32kv")


def build(targets):
    """Configure and build @p targets (incremental); False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    """{name: unit} the result line must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def result_problems(line, expected):
    """Ways the harness's last line breaks the result contract."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    metrics = result.get("metrics", {})
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{missing}, extra {extra}, wrong unit {wrong}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the harness's unit tests")
    args = ap.parse_args()

    if args.self_test:
        if not build(["perfbench_tests"]):
            return 1
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_tests")], cwd=ROOT).returncode
    if args.workload is None:
        ap.error("--workload is required")

    expected = expected_metrics(args.trace)
    if not build(["snipbench"]):
        return 1
    cmd = [os.path.join(BUILD, "snipbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--threads={args.threads}"]
    if args.trace:
        # BENCHMARK.json is the one list of per-layer metrics.
        cmd.append("--layer-metrics=" + ",".join(
            f"{name}={unit}" for name, unit in expected.items()))
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace-out=" + os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json"))
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(175.0, 3 * args.seconds))
    except subprocess.TimeoutExpired:
        print("run.py: harness timed out and was killed", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        print(f"run.py: harness exited with {done.returncode}",
              file=sys.stderr)
        return done.returncode
    problems = result_problems(lines[-1], expected)
    if problems:
        lines.pop()  # never print a passing result that breaks the contract
    sys.stdout.write("\n".join(lines) + "\n")
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
