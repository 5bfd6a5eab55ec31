#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload, one run at a time, and
report each end-to-end metric's median and quartile spread across seeds.

    python3 perfbench/spread.py --workloads prove,decide --seeds 1-10

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; the
benchmark is steady when every spread is well below the metric's bound in
BENCHMARK.json.  Exits 1 if a run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import summary

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="a range such as 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds", str(args.seconds),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not (result["correct"] and result["failed"] == 0):
                print(f"{workload} seed {seed}: incorrect output")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                flush=True)
        for name, xs in values.items():
            if len(xs) < 2:
                continue
            spread = summary.quartile_spread(xs)
            print(f"  {workload:12} {name:14} median {statistics.median(xs):10.4g}"
                  f"  spread {spread:6.3f}  bound {bounds.get(name, '-')}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
