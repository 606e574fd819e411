#!/usr/bin/env python3
"""Runs one workload with several seeds and prints each end-to-end
metric's median and spread (quartile distance / median), the figures a
benchmark's bounds are judged against.

Usage, from the repository root:

    python3 liftbench/spread.py suite_seq 1 2 3 4 5 [--seconds 20]
"""

import json
import statistics
import subprocess
import sys


def main():
    args = sys.argv[1:]
    seconds = "20"
    if "--seconds" in args:
        i = args.index("--seconds")
        seconds = args[i + 1]
        del args[i:i + 2]
    workload, seeds = args[0], args[1:]
    values = {}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, "liftbench/run.py", "--workload", workload,
             "--seed", seed, "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect run: {out}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
            flush=True)
    for name, v in sorted(values.items()):
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) >= 2 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:14s} median {med:.5g}  spread {spread:.3f}")


if __name__ == "__main__":
    main()
