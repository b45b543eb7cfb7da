"""The benchmark's workloads, run once each at small sizes, and its self-test.

perfbench/ calls the package through module attributes and reads result
fields in `metrics.annotate`; a rename in src/ that breaks either fails here
rather than in a benchmark run.  perfbench/ is only imported, never changed.
"""
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

# perfbench/ is a directory of scripts that import each other by bare name,
# not a package or a dependency: put it on the path and load its modules
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
metrics, tracer, workloads = (importlib.import_module(name)
                              for name in ("metrics", "tracer", "workloads"))

SEED = 20240601

RUNS = {
    "lp_small": lambda run: workloads.lp_small(run, SEED, sizes=range(1, 21)),
    "montecarlo": lambda run: workloads.montecarlo(
        run, SEED, ranking_trials=4096, secretary_trials=16384, audits=10),
    "continuum": lambda run: workloads.continuum(run, SEED),
    "lp_sweep": lambda run: workloads.lp_sweep(run, SEED),
}


# The per-layer metrics a traced pass makes nonzero.  The tracer sees a call
# only where the package looks its callee up in a module attribute or a
# module-level dict, so a call path that stops doing so zeroes a metric here.
_KINDS = ("balance", "ranking", "secretary", "toy")
_SHARED = {"bench.self_s", "trace.wall_s", "families.self_s", "lp_core.self_s"}
TRACED_NONZERO = {
    "lp_small": _SHARED | {
        "families.build_s", "families.lp_mb", "lp_core.certify_s", "lp_core.pivots",
        "lp_core.solve_s", "lp_core.us_per_pivot", "online_sim.policy_from_lp_s",
        "online_sim.self_s"},
    "continuum": _SHARED | {
        "families.oracle_s", "interval_opt.grid_points", "interval_opt.search_s.k1",
        "interval_opt.search_s.k2", "interval_opt.self_s",
        "variational.discretize_s.balance", "variational.discretize_s.ranking",
        "variational.discretize_s.secretary", "variational.multiplier_check_s",
        "variational.ode_s.balance", "variational.ode_s.ranking",
        "variational.ode_steps", "variational.self_s"},
    "lp_sweep": _SHARED | {
        "families.build_s", "families.lp_mb", "families.oracle_s", "lp_core.certify_s",
        "lp_core.pivots", "lp_core.solve_s", "lp_core.us_per_pivot", "studies.self_s"}
    | {f"studies.sweep_s.{kind}" for kind in _KINDS}
    | {f"lp_core.{metric}.{kind}.{n}" for kind in _KINDS for n in (128, 256, 512)
       for metric in ("solve_s", "pivots", "ms_per_pivot", "tableau_mb")},
}


@pytest.mark.parametrize("name", RUNS)
def test_workload_passes_its_checks(name):
    run = workloads.Pass(tracer.NullTracer())
    RUNS[name](run)
    assert run.attempted > 0
    assert run.failures == []


@pytest.mark.parametrize("name", ["lp_small", "continuum", "lp_sweep"])
def test_traced_workload_passes_its_checks(name):
    with tracer.Tracer(metrics.annotate) as tr:
        run = workloads.Pass(tr)
        RUNS[name](run)
    assert run.attempted > 0
    assert run.failures == []
    assert not any(span.attrs.get("raised") for span in tr.spans)
    values = metrics.layer_metrics(tr.spans)
    assert {metric for metric, v in values.items() if v} == TRACED_NONZERO[name]


def test_benchmark_selftest_passes():
    # perfbench/selftest.py injects faults (it patches lp_core._Tableau,
    # among others) and checks that the benchmark's gates catch each one;
    # it loads src/ from its working directory, so it runs from the root
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
