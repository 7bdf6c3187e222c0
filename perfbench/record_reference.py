"""Record the correctness reference the benchmark checks every run against.

Run from the repository root, on the program version the reference should
pin:

    python3 perfbench/record_reference.py

It rewrites ``perfbench/reference/*.json``.  The checked-in files were
recorded on the program as it was when the benchmark was introduced; later
versions must reproduce them (types and event kinds exactly, locations
within the benchmark's tolerance), so re-recording is only right when the
expected outputs change on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from isosoliton import cli, verify  # noqa: E402
from isosoliton.catalog import make_params, params_to_dict  # noqa: E402
from isosoliton.classifier import classify, grid_seeds  # noqa: E402
from isosoliton.integrator import (  # noqa: E402
    IntegratorConfig, endpoint_seed, maximal_trace,
)
from isosoliton.phase import blowup_bound  # noqa: E402

sys.path.insert(0, HERE)
import workloads  # noqa: E402

# trace_cli catalog: (k, n, m1, m2), spanning every admissible k, with R
# near -1 and +1 for k = 2, n = 10
TRACE_SETS = [
    (1, 2, 1, 1), (1, 4, 3, 3),
    (2, 3, 1, 1), (2, 4, 2, 1), (2, 10, 8, 1), (2, 10, 1, 8),
    (3, 4, 1, 1), (3, 7, 2, 2),
    (4, 9, 1, 3), (4, 9, 3, 1),
    (6, 7, 1, 1), (6, 13, 2, 2),
]
# per set: 18 point seeds and both endpoint seeds, so one call in ten is
# --endpoint
POOL_SIZES = {"generic": 9, "near_R": 4, "near_focal": 5}


def _bound(p, r0, psi0, side):
    """blowup_bound where it covers the quadrant, else None."""
    try:
        return blowup_bound(p, r0, psi0, side)
    except (ValueError, RuntimeError):
        return None


def _event(ev, p, seed, side) -> dict:
    return {"kind": ev.kind, "location": ev.location,
            "bound": _bound(p, seed.r, seed.psi, side)}


def record_sweep(p, path: str) -> None:
    cfg = IntegratorConfig()
    seeds = grid_seeds() + [endpoint_seed(p, -1, cfg.epsilon), endpoint_seed(p, +1, cfg.epsilon)]
    entries = []
    hist: dict[str, int] = {}
    for s in seeds:
        trace = maximal_trace(p, s, cfg)
        shape = classify(trace)
        hist[shape.v_type] = hist.get(shape.v_type, 0) + 1
        entries.append({"v_type": shape.v_type,
                        "left": _event(trace.left_event, p, s, -1),
                        "right": _event(trace.right_event, p, s, 1)})
    _dump(path, {"params": params_to_dict(p),
                 "seeds": [[s.r, s.psi] for s in seeds],
                 "entries": entries, "histogram": hist})


def _trace_argv(k, n, m1, m2) -> list[str]:
    argv = ["trace", "--k", str(k), "--n", str(n)]
    if m1 == m2:
        return argv + ["--m", str(m1)]
    return argv + ["--m1", str(m1), "--m2", str(m2)]


def _pool_seeds(rng: random.Random, R: float) -> list[tuple[str, float, float]]:
    out = []
    for _ in range(POOL_SIZES["generic"]):
        out.append(("generic", rng.uniform(-0.9, 0.9), rng.uniform(-5.0, 5.0)))
    for _ in range(POOL_SIZES["near_R"]):
        r = min(0.95, max(-0.95, R + rng.uniform(-0.1, 0.1)))
        out.append(("near_R", r, rng.uniform(-3.0, 3.0)))
    for _ in range(POOL_SIZES["near_focal"]):
        r = rng.choice((-1.0, 1.0)) * rng.uniform(0.9, 0.97)
        out.append(("near_focal", r, rng.choice((-1.0, 1.0)) * rng.uniform(2.0, 20.0)))
    return out


def record_trace_cli(path: str) -> None:
    rng = random.Random(2021)
    calls = []
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as out:
        for set_id, (k, n, m1, m2) in enumerate(TRACE_SETS):
            p = make_params(k, n, m1, m2)
            base = _trace_argv(k, n, m1, m2)
            specs = [(g, base + ["--seed-r", repr(r), "--seed-psi", repr(psi)])
                     for g, r, psi in _pool_seeds(rng, p.R)]
            specs += [("endpoint", base + ["--endpoint", str(e)]) for e in (-1, 1)]
            for group, argv in specs:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv + workloads.TRACE_FORMATS + ["--out", out])
                if rc != 0:
                    raise RuntimeError(f"{argv}: exit {rc}")
                blobs = {}
                for name in workloads.ARTIFACTS:
                    with open(os.path.join(out, name), "rb") as fh:
                        blobs[name] = fh.read()
                env = json.loads(blobs["trace.json"])
                seed = env["seed"]
                ev = {}
                for side, key in ((-1, "left"), (1, "right")):
                    e = env["events"][key]
                    ev[key] = {"kind": e["kind"], "location": e["location"],
                               "bound": _bound(p, seed["r"], seed["psi"], side)}
                if "BudgetExhausted" in (ev["left"]["kind"], ev["right"]["kind"]):
                    raise RuntimeError(f"{argv}: budget exhausted")
                calls.append({
                    "set": set_id, "group": group, "argv": argv,
                    "left": ev["left"], "right": ev["right"],
                    "crossings": [[c["kind"], c["r"]] for c in env["crossings"]],
                    "v_type": workloads.TYPE_LABEL.findall(blobs["v.svg"].decode())[0],
                    "sha256": {name: hashlib.sha256(b).hexdigest() for name, b in blobs.items()},
                })
    _dump(path, {"calls": calls})


def record_verify(path: str) -> None:
    families = []
    for p, iso in ((make_params(1, 2, 1, 1), verify.IsoparametricFn(verify.ISO_K1, 2)),
                   (make_params(2, 3, 1, 1), verify.IsoparametricFn(verify.ISO_K2, 3, l=2))):
        seed = endpoint_seed(p, -1, workloads.VERIFY_EPSILON)
        trace = maximal_trace(p, seed, workloads.VERIFY_CFG)
        families.append({
            "params": params_to_dict(p),
            "iso": {"kind": iso.kind, "n": iso.n, "l": iso.l},
            "left": _event(trace.left_event, p, seed, -1),
            "right": _event(trace.right_event, p, seed, 1),
        })
    _dump(path, {"families": families})


def _dump(path: str, payload: dict) -> None:
    """JSON with one list element per line, so diffs stay readable."""
    fields = []
    for key, value in payload.items():
        if isinstance(value, list):
            text = "[\n" + ",\n".join("  " + json.dumps(v) for v in value) + "\n ]"
        else:
            text = json.dumps(value)
        fields.append(f" {json.dumps(key)}: {text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(fields) + "\n}\n")
    print(f"wrote {path}")


def main() -> None:
    ref = os.path.join(HERE, "reference")
    os.makedirs(ref, exist_ok=True)
    record_sweep(make_params(2, 3, 1, 1), os.path.join(ref, "sweep_k2n3.json"))
    record_sweep(make_params(1, 2, 1, 1), os.path.join(ref, "sweep_k1n2.json"))
    record_trace_cli(os.path.join(ref, "trace_cli.json"))
    record_verify(os.path.join(ref, "verify_sphere.json"))


if __name__ == "__main__":
    main()
