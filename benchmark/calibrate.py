#!/usr/bin/env python3
"""Measure the gate benchmark's own noise and write CALIBRATION.md.

Runs the command from ../BENCHMARK.json as two sets of RUNS runs per
workload, every run with another seed, strictly one after another, and
reports for each end-to-end metric of each workload: per set the median
and quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median;
and how much worse the second set's median is than the first's. A metric's
bound in BENCHMARK.json must cover the largest spread and the largest
set-to-set difference (the script fails otherwise); it should cover three
times the spread, which on this box the contract's cap of 25 % does not
always allow — the report says where.

    python3 benchmark/calibrate.py [RUNS]          # from the repository root

Raw results go to benchmark/out/calibration.json; `--report-only` rebuilds
CALIBRATION.md from them without running anything.
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RAW = os.path.join(ROOT, "benchmark", "out", "calibration.json")
REPORT = os.path.join(ROOT, "benchmark", "CALIBRATION.md")


def run_once(contract, workload, seed):
    command = contract["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]),
        "--trace", "0",
    ]
    started = time.time()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - started
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    notes = {l.split()[1]: " ".join(l.split()[2:]) for l in lines if l.startswith("# ")}
    return {
        "seed": seed,
        "wall_s": wall,
        "loadavg_before": notes.get("loadavg_before"),
        "loadavg_after": notes.get("loadavg_after"),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def measure(contract, runs):
    os.makedirs(os.path.dirname(RAW), exist_ok=True)
    sets = []
    seed = 0
    for set_no in (1, 2):
        by_workload = {}
        for workload in (w["name"] for w in contract["workloads"]):
            by_workload[workload] = []
            for _ in range(runs):
                seed += 1
                r = run_once(contract, workload, seed)
                by_workload[workload].append(r)
                print(f"set {set_no} {workload} seed {seed}: {r['wall_s']:.1f} s wall, "
                      f"failed {r['failed']}/{r['attempted']}", flush=True)
        sets.append(by_workload)
        with open(RAW, "w") as f:
            json.dump({"runs_per_set": runs, "sets": sets}, f, indent=1)
    return {"runs_per_set": runs, "sets": sets}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def report(contract, raw):
    out = []
    w = out.append
    runs = raw["runs_per_set"]
    w("# Calibration: the benchmark's own noise\n")
    w(f"Two sets of {runs} runs per workload of identical code, every run with another seed "
      f"(`python3 benchmark/calibrate.py {runs}`), `run_seconds` = {contract['run_seconds']}. "
      "Per set: median [Q1 – Q3] and the spread (Q3 − Q1) / median, quartiles as "
      "`statistics.quantiles(values, n=4)` gives them. *drift* is how much worse the second "
      "set's median is than the first's (negative: better). `need` is the larger of the largest "
      "spread and the largest drift of a metric over the four workloads: the bound "
      "`BENCHMARK.json` fixes must not be below it. The target is a bound of three times the "
      "spread; the contract caps bounds at 25 %, so where the box's noise is wider than a "
      "third of that the last column says how much of the bound the spread takes.\n")
    walls = [r["wall_s"] for s in raw["sets"] for rs in s.values() for r in rs]
    loads = [r["loadavg_before"].split()[0] for s in raw["sets"] for rs in s.values() for r in rs]
    w(f"Wall time per run: median {statistics.median(walls):.1f} s, longest {max(walls):.1f} s. "
      f"1-minute load average before the runs: {min(loads)} – {max(loads)} on "
      f"{os.cpu_count()} cores. Failed operations: "
      f"{sum(r['failed'] for s in raw['sets'] for rs in s.values() for r in rs)} of "
      f"{sum(r['attempted'] for s in raw['sets'] for rs in s.values() for r in rs)}.\n")

    need = {}
    rows = {}
    for metric in contract["end_to_end"]:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        for workload in (x["name"] for x in contract["workloads"]):
            a = summary([r["metrics"][name] for r in raw["sets"][0][workload]])
            b = summary([r["metrics"][name] for r in raw["sets"][1][workload]])
            drift = sign * (b[0] - a[0]) / a[0]
            rows[(workload, name)] = (a, b, drift)
            spread = 0.0 if name == "setup_s" else max(a[3], b[3])
            need[name] = max(need.get(name, 0.0), spread, drift)

    w("## Bounds\n")
    w("| metric | unit | largest spread | largest drift | need | bound | spread / bound |")
    w("|---|---|---:|---:|---:|---:|---:|")
    for metric in contract["end_to_end"]:
        name = metric["name"]
        mine = [v for (_, n), v in rows.items() if n == name]
        spread = max(max(a[3], b[3]) for a, b, _ in mine)
        drift = max(d for _, _, d in mine)
        flag = "" if metric["bound"] >= need[name] else " **too tight**"
        share = "–" if name == "setup_s" else f"{spread / metric['bound']:.2f}"
        w(f"| `{name}` | {metric['unit']} | {spread:.1%} | {drift:+.1%} | {need[name]:.1%} "
          f"| {metric['bound']:.0%}{flag} | {share} |")
    w("\n`setup_s`'s spread is shown but not counted: only its drift is gated.\n")

    for workload in (x["name"] for x in contract["workloads"]):
        w(f"## {workload}\n")
        w("| metric | set 1 median [Q1 – Q3] | spread | set 2 median [Q1 – Q3] | spread | drift |")
        w("|---|---|---:|---|---:|---:|")
        for metric in contract["end_to_end"]:
            a, b, drift = rows[(workload, metric["name"])]
            cell = lambda s: f"{s[0]:.4g} [{s[1]:.4g} – {s[2]:.4g}]"
            w(f"| `{metric['name']}` | {cell(a)} | {a[3]:.1%} | {cell(b)} | {b[3]:.1%} "
              f"| {drift:+.1%} |")
        w("")
    with open(REPORT, "w") as f:
        f.write("\n".join(out))
    print(f"wrote {REPORT}")
    return need


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    args = sys.argv[1:]
    if "--report-only" in args:
        with open(RAW) as f:
            raw = json.load(f)
    else:
        raw = measure(contract, int(args[0]) if args else 10)
    need = report(contract, raw)
    tight = [m["name"] for m in contract["end_to_end"] if m["bound"] < need[m["name"]]]
    if tight:
        sys.exit(f"bounds too tight for the measured noise: {', '.join(tight)}")


if __name__ == "__main__":
    main()
