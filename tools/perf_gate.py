#!/usr/bin/env python3
"""Gate a change's end-to-end benchmark against its parent commit.

Usage (from the root of the change's checkout):

  python3 tools/perf_gate.py PARENT_CHECKOUT

BENCHMARK.json is the only configuration. For each workload the gate
runs its `command` plus `--workload W --seed S` in 10 pairs (S = 1 to
10), one run on each side per pair with the same seed, parent first on
even pairs and change first on odd ones. Each side runs with its own checkout as
the working directory, so each builds its own .bench_build/. For every
(workload, end_to_end metric) it prints both medians with their
quartiles and the relative change in the metric's `better` direction,
and a verdict:

  ok          no worse than the metric's `bound`;
  REGRESSED   the change's median is worse than the parent's by more
              than the bound;
  unresolved  the parent's own spread (IQR / median) exceeds the
              bound and not every change run beats every parent run.
              Reported, never failing.

A change run that exits non-zero or reports `correct: false`, and a
change side whose failed share (total failed / total attempted) is
higher than the parent's, also fail the gate. Then one `--trace 1` run
per side and workload records the per_layer metrics (not gated). The
last stdout line is one JSON record: commit, parent, the change's
fingerprint, pairs, medians and layers, keyed "<workload>/<metric>";
bench/trajectory.jsonl keeps one such line per gate run.

Exit status: 0 pass, 1 fail, 2 cannot compare (a parent run failed).
"""

import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
PASS, FAIL, CANNOT_COMPARE = 0, 1, 2


def sides(pair):
    """The order the two sides of pair @p pair run in."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def usable(result):
    """True when a run exited 0 and reported correct outputs."""
    return result is not None and result.get("correct") is True


def gain(metric, parent, change):
    """Relative change of @p change over @p parent; > 0 is better."""
    delta = change - parent if metric["better"] == "higher" else \
        parent - change
    if parent == 0:
        return math.copysign(math.inf, delta) if delta else 0.0
    return delta / abs(parent)


def run_failures(workload, pairs):
    """Failures of the change runs in @p pairs of (parent, change)
    results, or None when a parent run failed (cannot compare). A
    result is run.py's last JSON line, or None when the run exited
    non-zero."""
    if not all(usable(p) for p, _ in pairs):
        return None
    return [f"{workload}: change run {i} failed or was incorrect"
            for i, (_, c) in enumerate(pairs) if not usable(c)]


def judge(spec, workload, pairs):
    """(rows, failures) for one workload's (parent, change) results;
    failures is None when the two sides cannot be compared."""
    failures = run_failures(workload, pairs)
    if failures is None or failures:
        return [], failures

    def share(side):
        return sum(r[side]["failed"] for r in pairs) / max(
            1, sum(r[side]["attempted"] for r in pairs))
    if share(1) > share(0):
        failures.append(f"{workload}: failed share {share(1):.4g} > "
                        f"parent's {share(0):.4g}")
    rows = []
    for m in spec["end_to_end"]:
        par = [p["metrics"][m["name"]]["value"] for p, _ in pairs]
        chg = [c["metrics"][m["name"]]["value"] for _, c in pairs]
        pq, cq = (statistics.quantiles(v, n=4, method="inclusive")
                  for v in (par, chg))
        rel = gain(m, pq[1], cq[1])
        spread = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else 0.0
        all_better = all(gain(m, p, c) > 0 for p in par for c in chg)
        if rel < -m["bound"]:
            verdict = "REGRESSED"
            failures.append(f"{workload} {m['name']}: {rel:+.1%} is worse "
                            f"than the bound {m['bound']:.0%}")
        elif spread > m["bound"] and not all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({"workload": workload, "metric": m, "parent": pq,
                     "change": cq, "gain": rel, "verdict": verdict})
    return rows, failures


def run(spec, checkout, workload, seed, trace=False):
    """(last JSON line or None, stdout) of one benchmark run."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "1"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines() or [""]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return (result if done.returncode == 0 else None), done.stdout


def head(checkout):
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         stdout=subprocess.PIPE, text=True).stdout.strip()
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"],
                           cwd=checkout).returncode != 0
    return sha + ("+dirty" if dirty else "")


def print_rows(rows):
    print(f"{'workload/metric':34} {'parent [q1, q3]':>30} "
          f"{'change [q1, q3]':>30} {'change':>8}  verdict")
    for r in rows:
        cell = ["{:.4g} [{:.4g}, {:.4g}]".format(q[1], q[0], q[2])
                for q in (r["parent"], r["change"])]
        name = f"{r['workload']}/{r['metric']['name']}"
        print(f"{name:34} {cell[0]:>30} {cell[1]:>30} "
              f"{r['gain']:>+8.1%}  {r['verdict']}")


def main():
    if len(sys.argv) != 2 or not os.path.isdir(sys.argv[1]):
        sys.exit("usage: tools/perf_gate.py PARENT_CHECKOUT")
    checkouts = {"parent": os.path.abspath(sys.argv[1]), "change": ROOT}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    record = {"commit": head(ROOT), "parent": head(checkouts["parent"]),
              "fingerprint": None, "pairs": PAIRS, "medians": {},
              "layers": {}}

    def bench(side, w, seed, trace=False):
        result, out = run(spec, checkouts[side], w, seed, trace)
        print(f"{w} seed {seed}{' traced' if trace else ''} {side}: "
              f"{'ok' if usable(result) else 'FAILED'}", flush=True)
        if not usable(result):
            sys.stdout.write(out)
        for line in out.splitlines():
            if side == "change" and line.startswith("fingerprint "):
                record["fingerprint"] = json.loads(line.split(" ", 1)[1])
        return result

    rows, failures = [], []
    for w in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i in range(PAIRS):
            got = {side: bench(side, w, i + 1) for side in sides(i)}
            pairs.append((got["parent"], got["change"]))
        traced = {s: bench(s, w, 1, trace=True) for s in sides(0)}
        w_rows, w_failures = judge(spec, w, pairs)
        t_failures = run_failures(w + " traced",
                                  [(traced["parent"], traced["change"])])
        if w_failures is None or t_failures is None:
            print(f"cannot compare: a parent run of {w} failed")
            return CANNOT_COMPARE
        rows += w_rows
        failures += w_failures + t_failures
        for m in spec["per_layer"]:
            record["layers"][f"{w}/{m['name']}"] = {"unit": m["unit"]} | {
                s: traced[s]["metrics"][m["name"]]["value"]
                if usable(traced[s]) else None for s in traced}
    for r in rows:
        record["medians"][f"{r['workload']}/{r['metric']['name']}"] = {
            "parent": r["parent"][1], "change": r["change"][1],
            "unit": r["metric"]["unit"]}
    print_rows(rows)
    for f in failures:
        print(f"FAIL {f}")
    print("gate:", "FAIL" if failures else "pass")
    print(json.dumps(record))
    return FAIL if failures else PASS


if __name__ == "__main__":
    sys.exit(main())
