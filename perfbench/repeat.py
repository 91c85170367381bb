"""Run the benchmark several times and summarise each metric's spread.

    python3 perfbench/repeat.py --workload ladder --runs 10 --first-seed 1 \
        --seconds 30 [--trace 0]

Each run is a fresh ``perfbench/run.py`` process with the next seed.  For
every metric it prints the median, the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
plus the failed share.  ``--log FILE`` appends each run's result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log")
    ns = ap.parse_args(argv)
    results = []
    for seed in range(ns.first_seed, ns.first_seed + ns.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             ns.workload, "--seed", str(seed), "--seconds", str(ns.seconds),
             "--trace", str(ns.trace)],
            cwd=os.path.dirname(HERE), capture_output=True, text=True,
            check=True)
        line = proc.stdout.strip().splitlines()[-1]
        results.append(json.loads(line))
        if ns.log:
            with open(ns.log, "a") as fh:
                fh.write(f"{ns.workload} {seed} {line}\n")
    for name, s in summarise(results).items():
        print(f"{ns.workload:14s} {name:24s} median {s['median']:.4g} "
              f"{s['unit']}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
              f"spread {s['spread']:.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{ns.workload:14s} failed share {sorted(shares)}  correct "
          f"{all(r['correct'] for r in results)}")


if __name__ == "__main__":
    main()
