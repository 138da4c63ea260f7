#!/usr/bin/env python3
"""Steadiness check for the synthesizer benchmark.

Runs two sets of runs of one build and prints, for each workload and
end-to-end metric, both sets' medians and quartiles, the spread
(third minus first quartile, as a share of the median) against the metric's
bound in BENCHMARK.json, and how far the second median moved from the first.
It fails when a second median is worse than the first by more than the
metric's bound (setup_s included), when a spread other than setup_s's is
over its bound, or when the share of failed operations differs between
runs. setup_s is judged by how its median moves between sets: on serve-mix
most of a set-up is creating and opening the store directory, whose
latency on a shared disk changes from run to run.

    python3 synthbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

Run it from the checkout root. Each set uses its own seeds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "synthbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    return res


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    problems = []
    for w in args.workloads.split(","):
        sets = []
        for s in range(2):
            runs = [run_once(w, 1000 * (s + 1) + i, args.seconds) for i in range(args.runs)]
            sets.append(runs)
        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
        print(f"\n{w}: failed/attempted per run: {sorted(shares)}")
        if len({f / a for f, a in shares}) > 1:
            problems.append(f"{w}: the share of failed operations differs between runs")
        print(f"  {'metric':<12} {'bound':>6} | {'set':>3} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>7} | {'worse':>7}")
        for name, bound in bounds.items():
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                flag = ""
                if spread > bound and name == "setup_s":
                    flag = " over (not gated)"
                elif spread > bound:
                    flag = " OVER"
                    problems.append(f"{w} {name}: set {s + 1} spread {spread:.3f} over {bound}")
                elif spread > bound / 3:
                    flag = " >1/3"
                worse = ""
                if s == 1:
                    # How much worse the second median is, as a share of the first.
                    m = (meds[1] - meds[0]) / meds[0] if meds[0] else 0.0
                    if better[name] == "higher":
                        m = -m
                    worse = f"{m:+.3f}"
                    if m > bound:
                        worse += " OVER"
                        problems.append(f"{w} {name}: second median worse by {m:.3f}, over {bound}")
                print(f"  {name:<12} {bound:>6} | {s + 1:>3} {q1:>11.5g} {med:>11.5g} {q3:>11.5g} {spread:>7.3f}{flag} | {worse:>7}")
    if problems:
        raise SystemExit("\n".join(["steadiness check failed:"] + problems))


if __name__ == "__main__":
    main()
