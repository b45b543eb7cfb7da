"""Noise floor of the machine: how much the calibration loop drifts.

    python3 perfbench/noise.py [--windows 10] [--seconds 25]

Times `calibrate.loop` back to back for ``--seconds`` per window, in
``--windows`` consecutive windows the length of one benchmark run, and prints
each window's median loop time and the spread (Q3 - Q1) / median of those
medians, with quartiles from ``statistics.quantiles(values, n=4)``.  The loop
runs no lplimits code, so its spread is the machine's own: it is what an
uncalibrated wall time measured at the same time would show.
"""
from __future__ import annotations

import argparse
import statistics
import time

from calibrate import loop


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--windows", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    medians = []
    for w in range(args.windows):
        end = time.perf_counter() + args.seconds
        samples = []
        while time.perf_counter() < end:
            samples.append(loop())
        medians.append(statistics.median(samples))
        print(f"window {w + 1}: median {1e3 * medians[-1]:.2f} ms, "
              f"min {1e3 * min(samples):.2f} ms, max {1e3 * max(samples):.2f} ms "
              f"over {len(samples)} loops", flush=True)
    q1, med, q3 = statistics.quantiles(medians, n=4)
    print(f"spread of window medians: {100 * (q3 - q1) / med:.1f} %")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
