"""lplimits benchmark: one workload, one process, a closed loop of calls.

    python3 perfbench/run.py --workload lp-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``./src``.  The set-up measurement and then the workload's passes, at least
one, share the ``--seconds`` budget: passes stop when the next one would end
after it if it were as slow as the slowest so far.
Untraced passes time the calibration loop (`calibrate.py`) from a timer
signal; the samples are left out of the pass times.
With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate (at least one of each) and
the line holds the per-layer metrics of the median traced pass.  Every run
writes its full record, with the environment, to ``perfbench/out/``; a traced
run also writes its spans there.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 11
DEFAULT_SEED = 20240601     # the lplimits CLI's default Monte Carlo seed

# Times `import lplimits` in a fresh interpreter, bracketed by 20 calibration
# loops on each side; `calibrate` loads no module that lplimits would.
_IMPORT_PROBE = (
    "import time; from calibrate import loop; "
    "before = [loop() for _ in range(20)]; "
    "t0 = time.perf_counter(); import lplimits; t1 = time.perf_counter(); "
    "after = [loop() for _ in range(20)]; "
    "print(t1 - t0); print(sum(before + after) / 40); print(lplimits.__file__)")


def _package_file(src) -> str:
    return os.path.join(src, "lplimits", "__init__.py")


def measure_setup():
    """(calibrated, raw) median wall time of `import lplimits` in fresh
    interpreters, after one discarded import that fills the bytecode cache.
    Each import is calibrated by the calibration loops around it."""
    from calibrate import NOMINAL_S

    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    raw, calibrated = [], []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout.split("\n")
        if os.path.realpath(out[2]) != os.path.realpath(_package_file(SRC)):
            raise RuntimeError(f"fresh interpreter imported {out[2]}")
        raw.append(float(out[0]))
        calibrated.append(raw[-1] * NOMINAL_S / float(out[1]))
    return statistics.median(calibrated[1:]), statistics.median(raw[1:])


def one_pass(workload, seed, tracer, sampler=None):
    """(wall time, its `Pass`); the wall time leaves out `sampler`'s samples."""
    from workloads import Pass

    run = Pass(tracer)
    gc.collect()    # start each pass without the previous pass's garbage
    t0 = time.perf_counter()
    with tracer.step("pass"), sampler or nullcontext():
        workload(run, seed)
    wall = time.perf_counter() - t0
    return wall - (sampler.spent_s if sampler else 0.0), run


def run_passes(name, seed, seconds, trace, start):
    """Alternate untraced/traced passes (traced only when `trace`) until the
    next pass, if as slow as the slowest so far, would end more than
    `seconds` after `start`.
    Peak memory is read after the first pass, so it does not depend on how
    many passes fit."""
    from calibrate import Sampler
    from metrics import annotate
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    plain, traced = [], []
    first_pass_rss_mb = None
    while True:
        want_trace = trace and len(traced) < len(plain)
        tracer = Tracer(annotate) if want_trace else NullTracer()
        if want_trace:
            with tracer:
                wall, run = one_pass(workload, seed, tracer)
            traced.append((wall, run, tracer.spans))
        else:
            sampler = Sampler()
            wall, run = one_pass(workload, seed, tracer, sampler)
            plain.append((wall, run, sampler))
        if first_pass_rss_mb is None:
            first_pass_rss_mb = peak_rss_mb()
        slowest = max(p[0] for p in plain + traced)
        if (not trace or traced) and time.perf_counter() - start + slowest > seconds:
            return plain, traced, first_pass_rss_mb


def cache_size_kb(level):
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            with open(os.path.join(base, idx, "level")) as fh:
                lvl = int(fh.read())
            with open(os.path.join(base, idx, "type")) as fh:
                kind = fh.read().strip()
            if lvl == level and kind in ("Unified", "Data"):
                with open(os.path.join(base, idx, "size")) as fh:
                    size = fh.read().strip()
                return int(size.rstrip("KM")) * (1024 if size.endswith("M") else 1)
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.split()[-1].lower()})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def git_sha(root):
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                     "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "l2_kb_per_core": cache_size_kb(2),
        "l3_kb": cache_size_kb(3),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    start = time.perf_counter()
    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup()
    plain, traced, rss_mb = run_passes(args.workload, args.seed, args.seconds,
                                       bool(args.trace), start)
    runs = [p[1] for p in plain] + [t[1] for t in traced]
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    untraced_wall = statistics.median(p[0] for p in plain)
    calibrated = [p[2].calibrated(p[0]) for p in plain]
    env = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "untraced_pass_s": [p[0] for p in plain],
              "traced_pass_s": [t[0] for t in traced],
              "calibrated_pass_s": calibrated,
              "setup_raw_s": setup_raw_s,
              "calibration_loop_s": [statistics.mean(p[2].samples) for p in plain],
              "calibration_samples": [len(p[2].samples) for p in plain],
              "notes": [r.notes for r in runs],
              "attempted": attempted, "failed": len(failures),
              "fail_frac": len(failures) / max(attempted, 1),
              "failures": failures[:50]}
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        from metrics import NOTES, PER_LAYER, check_accounting, layer_metrics

        walls = [t[0] for t in traced]
        _, _, spans = traced[walls.index(statistics.median_low(walls))]
        values = layer_metrics(spans)
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
        for note in NOTES:
            got = [p[1].notes[note] for p in plain if note in p[1].notes]
            values[note] = statistics.median(got) if got else 0.0
        record["self_time_gap_s"] = check_accounting(values)
        metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                   for e in PER_LAYER}
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump([[s.to_dict() for s in t[2]] for t in traced], fh)
        _print_layers(values, env)
    else:
        metrics = {
            "wall_cal_s": {"value": statistics.median(calibrated), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    record["metrics"] = metrics
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for f in failures[:20]:
        print(f"FAILED CHECK: {f}", file=sys.stderr)
    print(f"uncalibrated: median pass {untraced_wall:.3f} s over {len(plain)} "
          f"passes" + (f", import {setup_raw_s:.3f} s" if setup_raw_s else ""))
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _print_layers(values, env) -> None:
    l2, l3 = env["l2_kb_per_core"], env["l3_kb"]
    cache = (f"L2 {l2 / 1024:.1f} MB/core, L3 {l3 / 1024:.1f} MB"
             if l2 and l3 else "cache sizes unknown")
    print(f"traced pass {values['trace.wall_s']:.3f} s, untraced "
          f"{values['trace.untraced_wall_s']:.3f} s, overhead "
          f"{values['trace.overhead_s']:+.3f} s")
    for cell in sorted({k.split(".", 2)[2] for k in values
                        if k.startswith("lp_core.pivots.")}):
        if values[f"lp_core.pivots.{cell}"]:
            print(f"  {cell:>14}: {values[f'lp_core.solve_s.{cell}']:8.3f} s "
                  f"{int(values[f'lp_core.pivots.{cell}']):6d} pivots "
                  f"{values[f'lp_core.ms_per_pivot.{cell}']:7.3f} ms/pivot  "
                  f"tableau {values[f'lp_core.tableau_mb.{cell}']:6.2f} MB "
                  f"(computed; {cache})")
    for key in sorted(k for k in values if k.endswith(".self_s")):
        print(f"  {key:>22}: {values[key]:.4f} s")


if __name__ == "__main__":
    if not os.path.isfile(_package_file(SRC)):
        print(f"run from a source checkout: {_package_file(SRC)} is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import lplimits

    if os.path.realpath(lplimits.__file__) != os.path.realpath(_package_file(SRC)):
        print(f"imported {lplimits.__file__} instead of ./src", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
