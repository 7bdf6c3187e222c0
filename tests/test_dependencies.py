"""The runtime needs numpy alone: what src/ imports is what pyproject.toml
declares, and scipy stays a test oracle.  The public surface is what the
README and the demos import, and the test oracles stay out of src/."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

RUN_WITHOUT_SCIPY = """
import sys, tempfile
from isosoliton import (AMBIENT_SPHERE, ISO_K1, GraphSample, IntegratorConfig,
                        IsoparametricFn, endpoint_seed, graph_from_trace,
                        make_params, maximal_trace, soliton_residual,
                        sphere_points_in_band)
from isosoliton import cli

with tempfile.TemporaryDirectory() as tmp:
    code = cli.main(["trace", "--k", "1", "--n", "2", "--seed-r", "0.1",
                     "--seed-psi", "0.3", "--formats", "csv,json,svg", "--out", tmp])
    assert code == 0, code

p, f = make_params(1, 2, 1, 1), IsoparametricFn(ISO_K1, 2)
tr = maximal_trace(p, endpoint_seed(p, -1, 1e-6), IntegratorConfig(tol=1e-12, max_step=2e-3))
pts = sphere_points_in_band(f, -0.95, tr.right_event.location - 0.1, 50)
res = soliton_residual(GraphSample(AMBIENT_SPHERE, pts, graph_from_trace(p, tr, f)))
assert res.max_deviation_from(1.0) < 1e-5, res.max_deviation_from(1.0)

print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_loads_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_SCIPY], cwd=ROOT, capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def _imported_top_level(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    runtime = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in declared}
    imported = set().union(*map(_imported_top_level, (SRC / "isosoliton").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"isosoliton"}
    assert third_party == runtime


# defined in tests/oracles.py or deleted; none of them may return to src/
TEST_ONLY = {"trace_deviation", "euler_walk", "rk4_walk", "SelfConvergenceReport",
             "self_convergence", "general_ode_residual", "_auto_window",
             "level_of_theta", "params_to_json", "params_from_json"}


def _imported_from_package(tree: ast.AST) -> set[str]:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "isosoliton"
            for alias in node.names}


def test_public_surface():
    import isosoliton

    names = isosoliton.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(isosoliton, n)] == []

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    used = _imported_from_package(ast.parse(quick_start.group(1)))
    assert used
    for demo in (ROOT / "demos").glob("*.py"):
        used |= _imported_from_package(ast.parse(demo.read_text(encoding="utf-8")))
    assert used <= set(names)

    for path in (SRC / "isosoliton").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert defined.isdisjoint(TEST_ONLY), path.name
