"""Repeat benchmark runs over seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workload lp-small --seeds 1-10 --seconds 25 \
        [--out perfbench/out/lp-small.json]

Runs ``perfbench/run.py --trace 0`` once per seed, one run at a time, from
the current directory, and reports for every metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        env = json.loads(lines[-2])["env"]
        result.update(seed=seed, run_s=time.perf_counter() - t0)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['attempted']} checks, {result['run_s']:.1f} s, "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    names = list(runs[0]["metrics"])
    summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
               for name in names}
    for name in names:
        s = summary[name]
        if s["spread"] is not None:
            print(f"{name:>24}: median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  spread {100 * s['spread']:.2f} %")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "env": env,
                       "all_correct": all(r["correct"] for r in runs),
                       "run_s": [r["run_s"] for r in runs],
                       "seeds": [r["seed"] for r in runs],
                       "metrics": summary}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
