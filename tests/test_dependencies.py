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


def imported_packages():
    """Top-level names of every absolute import in the package, including
    imports made inside functions."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_")
            for d in deps}


def test_every_import_is_stdlib_local_or_declared():
    allowed = set(sys.stdlib_module_names) | {"lplimits"} | declared_dependencies()
    assert imported_packages() - allowed == set()


@pytest.mark.parametrize("check", [
    pytest.param("L.offline_optimum(L.triangular_instance(5, 2)); "
                 "print('networkx' in sys.modules)", id="offline-optimum-no-networkx"),
    pytest.param("print(any(m.split('.')[0] == 'scipy' for m in sys.modules))",
                 id="import-no-scipy"),
    pytest.param("L.search_best(1, 1e-2, 1e-2); "
                 "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))",
                 id="k1-search-no-scipy"),
])
def test_fresh_interpreter_loads_no_extra_library(check):
    code = "import sys, lplimits as L; " + check
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "False"
