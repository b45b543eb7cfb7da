import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lplimits"


def imported_packages(directory=PACKAGE):
    """Top-level names of every absolute import in a directory's modules,
    including imports made inside functions."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies(extra=None):
    """Runtime dependencies, or those of one optional extra."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    deps = (project["optional-dependencies"][extra] if extra
            else project["dependencies"])
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_")
            for d in deps}


def test_every_import_is_stdlib_local_or_declared():
    allowed = set(sys.stdlib_module_names) | {"lplimits"} | declared_dependencies()
    assert imported_packages() - allowed == set()


def test_every_test_import_is_declared_for_testing():
    allowed = (set(sys.stdlib_module_names) | {"lplimits"} | declared_dependencies()
               | declared_dependencies("test"))
    assert imported_packages(ROOT / "tests") - allowed == set()


def test_every_float_array_is_read_by_one_reader():
    # np.asarray( appears only in lp_core._as_floats, so every array input
    # is refused alike when it is not numeric or not finite
    tree = ast.parse((PACKAGE / "lp_core.py").read_text())
    readers = [f for f in tree.body
               if isinstance(f, ast.FunctionDef) and f.name == "_as_floats"]
    assert len(readers) == 1
    inside = {("lp_core.py", i)
              for i in range(readers[0].lineno, readers[0].end_lineno + 1)}
    found = {(path.name, i) for path in PACKAGE.glob("*.py")
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if "np.asarray(" in line}
    assert found and found <= inside, sorted(found - inside)


@pytest.mark.parametrize("call,absent", [
    pytest.param("L.offline_optimum(L.triangular_instance(5, 2))",
                 {"scipy", "networkx"}, id="offline-optimum-no-scipy-or-networkx"),
    pytest.param("", {"scipy", "fractions"}, id="import-no-scipy"),
    pytest.param("L.best_threshold(1000)", {"scipy", "fractions"},
                 id="best-threshold-no-fractions"),
    pytest.param("L.search_best(1, 1e-2, 1e-2)", {"scipy"}, id="k1-search-no-scipy"),
    pytest.param("L.discretize_profile(lambda t: 0.5 * t, L.FamilySpec('balance', 4))",
                 {"scipy"}, id="bare-callable-discretize-no-scipy"),
    # the secretary simulator's threads come from threading, which Python
    # loads at startup; concurrent.futures would add to every import
    pytest.param("L.run_secretary(L.PolicyTable(3, [0.5] * 3, [True] * 3), 5000)",
                 {"concurrent"}, id="secretary-no-concurrent-futures"),
    pytest.param("L.run_ranking(L.triangular_instance(5, 1), 3 * 4096 + 5)",
                 {"concurrent"}, id="ranking-no-concurrent-futures"),
])
def test_fresh_interpreter_loads_no_extra_library(call, absent):
    code = f"import sys, lplimits as L\n{call}\nprint(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    loaded = {m.split(".")[0] for m in out.stdout.split()}
    assert "lplimits" in loaded
    assert loaded & absent == set()


# every name a fresh `import lplimits` exports, pinned so a change to the
# package's surface is a decision, not an accident; fresh, because importing
# a submodule such as lplimits.cli adds it to the package's names
PUBLIC_NAMES = [
    "CERT_TOL", "CertificateReport", "ContinuumProfile", "DenseLp", "FEAS_TOL",
    "FamilyLp", "FamilySpec", "FeasibilityReport", "IntervalSequence", "LimitFit",
    "LpInputError", "LpSolution", "MultiplierProfile", "PROFILES", "PolicyTable",
    "SimInstance", "SimReport", "SlabStats", "SweepTable", "best_threshold",
    "build_balance", "build_ranking", "build_secretary", "build_toy", "certify",
    "check_feasibility", "discretize_profile", "dump_lp", "eval_profile", "families",
    "integrate_tight_ode", "interval_opt", "limit_estimate", "load_lp", "lp_core",
    "multiplier_check", "objective_g", "offline_optimum", "online_sim",
    "planted_instance", "policy_value", "ranking_triangular_closed_form",
    "ranking_triangular_value", "reconstruct_u", "run_balance", "run_ranking",
    "run_secretary", "search_best", "secretary_policy_from_lp", "slab_audit", "solve",
    "studies", "sweep_family", "threshold_policy_value", "tight_solution_balance",
    "tight_solution_ranking", "tight_solution_toy", "tight_value_balance",
    "tight_value_ranking", "tight_value_toy", "triangular_instance", "variational",
    "write_sweep_csv",
]


def test_public_names_pinned():
    code = ("import lplimits\n"
            "print(*sorted(n for n in dir(lplimits) if not n.startswith('_')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.split() == PUBLIC_NAMES
