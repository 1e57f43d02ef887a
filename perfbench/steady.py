#!/usr/bin/env python3
"""Steadiness report: two sets of runs of each workload, seeds 1..runs in
each set. Per set it prints, per end-to-end metric, the median, the
quartiles and the relative IQR ((q3 - q1) / median, as
statistics.quantiles gives them); then, per metric, the gap between the
two sets' medians as a share of the first. A spread or a gap over the
metric's BENCHMARK.json bound is flagged, and the exit code is 1 if any
is. Host facts lead the output: absolute numbers do not carry across
hosts.

    python3 perfbench/steady.py [--runs 10] [--workloads fig5-cold,...]
        [--seconds 15]
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import pblib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "kernel": platform.release(),
            "loadavg": os.getloadavg()[0]}


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mark(share, bound, over):
    if share > bound:
        return f"  {over} OVER BOUND"
    return "  (> bound/3)" if share > bound / 3 else ""


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    opts = ap.parse_args()

    print("host " + " ".join(f"{k}={v}" for k, v in host_facts().items()))
    workloads = opts.workloads.split(",")
    # Sets run one after the other, as two runs of the benchmark would.
    # Within a set, seed-major order: every workload sees the same
    # stretch of host noise, which on a shared machine comes in phases of
    # minutes.
    sets = []
    for _ in range(SETS):
        runs = {w: [] for w in workloads}
        for seed in range(1, opts.runs + 1):
            for workload in workloads:
                runs[workload].append(one_run(workload, seed, opts.seconds))
        sets.append(runs)

    flagged = 0
    for workload in workloads:
        failures = sum(r["failed"] for s in sets for r in s[workload])
        print(f"\n{workload}: {SETS} sets of {opts.runs} runs, seeds "
              f"1..{opts.runs}, failed ops {failures}")
        flagged += failures > 0
        print(f"  {'metric':18} {'set':>3} {'median':>11} {'q1':>11} "
              f"{'q3':>11} {'rel IQR':>8} {'bound':>6}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(sets, start=1):
                values = [r["metrics"][name]["value"]
                          for r in runs[workload]]
                med, q1, q3, rel = pblib.spread(values)
                medians.append(med)
                flagged += rel > bound
                print(f"  {name:18} {k:3d} {med:11.5g} {q1:11.5g} "
                      f"{q3:11.5g} {rel:8.3f} {bound:6.2f}"
                      + mark(rel, bound, "SPREAD"))
            gap = abs(medians[1] - medians[0]) / medians[0]
            flagged += gap > bound
            print(f"  {name:18} gap between set medians {gap:.3f} "
                  f"(bound {bound:.2f})" + mark(gap, bound, "GAP"))
    print(f"\n{flagged} spread(s), gap(s) or failing workload(s) over bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
