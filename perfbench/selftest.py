"""Self-test of the benchmark's own gates.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Shortened passes of the workloads
run once clean (fail_frac must be 0) and once per injected fault (fail_frac
must be above 0): a wrong LP optimum, a raising solver, an out-of-band Monte
Carlo estimate from each simulator, and a failed slab audit.  It also checks
that a traced pass accounts for its whole time in self times and leaves no
wrapper behind, that the calibration sampler samples during a pass and stops
after it, and that BENCHMARK.json agrees with the metric catalogue.  Exits
nonzero on any failure.
"""
from __future__ import annotations

import dataclasses
import json
import os
import signal
import sys
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from lplimits import families, lp_core, online_sim, studies  # noqa: E402

import metrics  # noqa: E402
from calibrate import NOMINAL_S, Sampler  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402
from workloads import Pass, lp_small, montecarlo  # noqa: E402


def small_lp(run, seed):
    lp_small(run, seed, sizes=range(1, 21))


def small_mc(run, seed):
    montecarlo(run, seed, ranking_trials=4096, secretary_trials=100_000, audits=10)


@contextmanager
def patched(module, name, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def wrong_optimum(solve):
    def bad(*args, **kwargs):
        sol = solve(*args, **kwargs)
        return dataclasses.replace(sol, objective_value=sol.objective_value + 1e-6)
    return bad


def raising(solve):
    def bad(*args, **kwargs):
        raise lp_core.LpInputError("injected failure")
    return bad


def shifted_secretary(run_secretary):
    def bad(*args, **kwargs):
        rep = run_secretary(*args, **kwargs)
        return dataclasses.replace(rep, estimate=rep.estimate + 10 * rep.std_error)
    return bad


def shrunk_ranking(run_ranking):
    def bad(*args, **kwargs):
        rep = run_ranking(*args, **kwargs)
        return dataclasses.replace(rep, estimate=0.9 * rep.estimate)
    return bad


def planted_only(factor):
    """Scale the RANKING estimate on the planted (n = 200) instance only."""
    def make(run_ranking):
        def bad(instance, *args, **kwargs):
            rep = run_ranking(instance, *args, **kwargs)
            if instance.n_offline != 200:
                return rep
            return dataclasses.replace(rep, estimate=factor * rep.estimate)
        return bad
    return make


def failed_audit(slab_audit):
    def bad(*args, **kwargs):
        slab_audit(*args, **kwargs)
        return online_sim.AuditResult(passed=False, worst_prefix=1)
    return bad


def fail_frac(workload, tracer=None):
    run = Pass(tracer or NullTracer())
    with run.tracer.step("pass"):
        workload(run, 11)
    return len(run.failures) / run.attempted, run


def main() -> int:
    results = []

    def expect(name, ok, detail=""):
        results.append(ok)
        print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")

    for label, workload in (("lp-small", small_lp), ("montecarlo", small_mc)):
        frac, run = fail_frac(workload)
        expect(f"clean {label}: fail_frac = 0", frac == 0, str(run.failures[:3]))
    faults = [
        ("wrong optimum", small_lp, lp_core, "solve", wrong_optimum),
        ("solver raises", small_lp, lp_core, "solve", raising),
        ("secretary estimate 10 s.e. off", small_mc, online_sim, "run_secretary",
         shifted_secretary),
        ("RANKING estimate 10 % low", small_mc, online_sim, "run_ranking",
         shrunk_ranking),
        ("planted RANKING estimate below the KVV bound", small_mc, online_sim,
         "run_ranking", planted_only(0.6)),
        ("failed slab audit", small_mc, online_sim, "slab_audit", failed_audit),
    ]
    for name, workload, module, attr, make in faults:
        with patched(module, attr, make):
            frac, _ = fail_frac(workload)
        expect(f"{name}: fail_frac > 0", frac > 0, f"({frac:.4f})")

    solve = lp_core.solve
    for label, workload in (("lp-small", small_lp), ("montecarlo", small_mc)):
        with Tracer(metrics.annotate) as tracer:
            frac, _ = fail_frac(workload, tracer)
        values = metrics.layer_metrics(tracer.spans)
        gap = metrics.check_accounting(values)
        expect(f"traced {label}: self times sum to the pass time", gap < 1e-9,
               f"(gap {gap:.1e} s over {values['trace.wall_s']:.3f} s)")
        expect(f"traced {label}: fail_frac = 0", frac == 0)
    # raising inside the wrapped lp_core.solve leaves a span without results
    with patched(lp_core, "_Tableau", raising), Tracer(metrics.annotate) as tracer:
        frac, _ = fail_frac(small_lp, tracer)
    gap = metrics.check_accounting(metrics.layer_metrics(tracer.spans))
    expect("traced raising solver: metrics still derived", frac > 0 and gap < 1e-9
           and any(s.attrs.get("raised") for s in tracer.spans))
    expect("tracer left no wrapper behind", lp_core.solve is solve and not any(
        hasattr(f, "__wrapped__") for f in (
            studies.solve, families._BUILDERS["toy"], online_sim.check_feasibility,
            online_sim.families.build_secretary)))

    handler = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        fail_frac(small_mc)
    mean = sum(sampler.samples) / max(len(sampler.samples), 1)
    expect("calibration sampled during the pass, then stopped",
           len(sampler.samples) >= 2 and signal.getsignal(signal.SIGALRM) is handler
           and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
           f"({len(sampler.samples)} samples)")
    expect("calibrated time scales with the loop time",
           abs(sampler.calibrated(1.0) - NOMINAL_S / mean) < 1e-12)

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    keys = ("name", "unit", "better")
    expect("BENCHMARK.json end_to_end matches the catalogue",
           bench["end_to_end"] == [{k: e[k] for k in keys + ("bound",)}
                                   for e in metrics.END_TO_END])
    expect("BENCHMARK.json per_layer matches the catalogue",
           bench["per_layer"] == [{k: e[k] for k in keys} for e in metrics.PER_LAYER])
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
