"""The benchmark's workloads, run once each at small sizes.

perfbench/ calls the package through module attributes and reads result
fields in `metrics.annotate`; a rename in src/ that breaks either fails here
rather than in a benchmark run.  perfbench/ is only imported, never changed.
"""
import importlib
import sys
from pathlib import Path

import pytest

# perfbench/ is a directory of scripts that import each other by bare name,
# not a package or a dependency: put it on the path and load its modules
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
