#!/usr/bin/env python3
"""Steadiness test of the benchmark: runs each workload repeatedly on one
build, one seed per run, and prints the median, quartiles and spread of
every end-to-end metric against its bound in BENCHMARK.json.

The spread is (q3 - q1) / median, with the quartiles that
statistics.quantiles(values, n=4) gives. A metric is steady when its
spread is below a third of its bound; setup_s is reported but has no
spread limit. Run from the repository root:

    python3 ppbench/steady.py                      # 10 runs per workload
    python3 ppbench/steady.py --runs 5 --workload deep-churn --first-seed 100

Raw results are written to .bench_out/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    """Runs the benchmark once with --trace 0; returns its result object."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    took = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    for line in lines:
        if line.startswith("host:"):
            print(f"  {workload} seed {seed}: {took:.0f} s; {line}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    command = bench["command"]
    seeds = list(range(opts.first_seed, opts.first_seed + opts.runs))

    results = {}
    steady = True
    for workload in workloads:
        runs = [run_once(command, workload, seed, bench["run_seconds"]) for seed in seeds]
        results[workload] = {"seeds": seeds, "runs": runs}
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct {correct}, "
              f"failed share {sorted(shares)}")
        print(f"  {'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name == "setup_s":
                verdict = "no spread limit"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound, above a third of it"
                steady = False
            else:
                verdict = "TOO WIDE"
                steady = False
            print(f"  {name:<22} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>8.4f} {bound:>6.3f}  {verdict}")
        steady = steady and correct and len(shares) == 1

    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out", f"steady-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\nraw results: {path}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
