"""The runtime needs numpy alone: what src/ imports is what pyproject.toml
declares, and scipy stays a test oracle.  The public surface is what the
README and the demos import, its parameters are pinned, and the test
oracles stay out of src/."""

import ast
import dataclasses
import inspect
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


# The parameters of every public callable and dataclass, in order.  A change
# that adds, drops or renames a knob of the public surface edits this table.
PUBLIC_PARAMETERS = {
    "Crossing": "kind r",
    "DomainReport": "k v_type description",
    "Evidence": "left_event right_event zero_crossings psi_min psi_max psi_at_R",
    "GraphSample": "ambient points u fd_step",
    "HalfTrace": "params seed direction r psi dpsi event stats",
    "IdentityReport": ("grad_sphere_max_err lap_sphere_max_err grad_ambient_max_err "
                       "lap_ambient_max_err n_points"),
    "IntegratorConfig": "tol blowup_threshold max_steps epsilon max_step",
    "IsoparametricFn": "kind n l",
    "PhasePoint": "r psi",
    "ResidualReport": "values",
    "ShapeType": "v_type zero_crossing evidence",
    "SolitonParams": "k n m1 m2",
    "StepStats": "accepted rejected min_step max_step",
    "SweepEntry": "seed shape error",
    "SweepResult": "params entries",
    "TerminationEvent": "kind location endpoint_vprime",
    "Trace": "params seed cfg r psi dpsi left_event right_event step_stats",
    "alpha": "p r",
    "beta": "p r",
    "blowup_bound": "p r0 psi0 side",
    "bound_h1": "p r0 psi0 r",
    "bound_h2": "p r0 psi0 r",
    "bound_h2hat": "p r0 psi0 r",
    "bound_h3": "p r0 psi0 r",
    "classification_report": "trace shape domain",
    "classify": "trace tol",
    "domain_report": "p shape",
    "endpoint_seed": "p which epsilon",
    "endpoint_vprime_extrapolated": "p which",
    "endpoint_vprime_limit": "p which",
    "eta": "p r",
    "graph_from_trace": "p trace f",
    "grid_seeds": "r_range psi_range nr npsi",
    "grim_reaper": "x",
    "integrate_from": "p seed direction cfg",
    "iso_poly": "f x",
    "iso_poly_grad": "f x",
    "iso_poly_lap": "f x",
    "isoparametric_identities": "f n_points seed",
    "make_params": "k n m1 m2",
    "maximal_trace": "p seed cfg",
    "mirror_params": "p",
    "ode_residual_at": "p r vprime vsecond",
    "params_from_dict": "d",
    "params_to_dict": "p",
    "psi_at": "trace r",
    "psi_rhs": "p r psi",
    "sign_region": "p r psi",
    "soliton_residual": "sample",
    "sphere_points_in_band": "f t_lo t_hi n_points seed",
    "sweep": "p seeds cfg tol workers",
    "sweep_to_dict": "result",
    "trace_to_csv": "trace stream",
    "trace_to_json": "trace",
    "type_correspondence": "psi_type",
    "vprime_rhs": "p r vprime",
    "zeta": "p r",
}


# The fields (init=False) that every public dataclass computes from its
# parameters, in field order.  Turning one back into a constructor value, or
# a constructor value into a derived field, edits this table.
DERIVED_FIELDS = {
    "Crossing": "",
    "DomainReport": "contains_focal_minus contains_focal_plus",
    "Evidence": "",
    "GraphSample": "",
    "HalfTrace": "",
    "IdentityReport": "",
    "IntegratorConfig": "",
    "IsoparametricFn": "",
    "PhasePoint": "",
    "ResidualReport": "",
    "ShapeType": "psi_type vprime_type",
    "SolitonParams": "R",
    "StepStats": "",
    "SweepEntry": "",
    "SweepResult": "histogram unlisted errors",
    "TerminationEvent": "",
    "Trace": "vprime v crossings",
}


def test_public_parameters():
    import isosoliton

    got = {}
    for name in isosoliton.__all__:
        obj = getattr(isosoliton, name)
        if callable(obj):
            got[name] = " ".join(inspect.signature(obj).parameters)
    assert got == PUBLIC_PARAMETERS


def test_derived_fields():
    import isosoliton

    got = {}
    for name in isosoliton.__all__:
        obj = getattr(isosoliton, name)
        if dataclasses.is_dataclass(obj):
            got[name] = " ".join(f.name for f in dataclasses.fields(obj) if not f.init)
    assert got == DERIVED_FIELDS


def _sibling_imports(path: Path) -> set[str]:
    """The isosoliton modules that one module of the package imports from."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module.split(".")[0] != "isosoliton":
                continue
            module = module.partition(".")[2]
        names.update([module.split(".")[0]] if module else [a.name for a in node.names])
    return names


@pytest.mark.parametrize("module", ["catalog", "phase", "integrator", "classifier", "_svg"])
def test_verify_and_cli_are_leaves(module):
    """Nothing the integration and classification path is built from reads
    the verification routes or the command line."""
    imported = _sibling_imports(SRC / "isosoliton" / f"{module}.py")
    assert imported.isdisjoint({"verify", "cli"}), imported
