"""Command line surface: integrate, classify, sweep, verify, emit artifacts.

Outputs are byte-identical for identical flags: fixed RNG seeds, fixed
float formatting, deterministic file names.

Exit codes: 0 success; 2 bad flags; 3 numeric failure; 4 unlisted shape
under ``sweep --strict``.  A flag value is checked once, by the library
type that consumes it (``make_params``, ``IntegratorConfig``,
``PhasePoint``, ``endpoint_seed``, ``_svg.PlotConfig``,
``IsoparametricFn``, and ``check_crossing_tol`` for ``classify`` and
``sweep``); its ValueError becomes the usage error, before any
integration starts.  Flags no library type takes (grids, ranges, counts,
formats) are checked by their argparse converters.  A numeric failure is
any of ``classifier.NUMERIC_FAILURES`` raised by the command itself;
``main`` reports it once, as a JSON payload on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, TypeVar

import numpy as np

from . import _svg
from .catalog import SolitonParams, make_params, params_to_dict
from .classifier import (
    DEFAULT_CROSSING_TOL,
    NUMERIC_FAILURES,
    ROMANS,
    check_crossing_tol,
    classification_report,
    classify,
    domain_report,
    grid_seeds,
    sweep,
    sweep_to_dict,
)
from .integrator import (
    IntegratorConfig,
    Trace,
    endpoint_seed,
    endpoint_vprime_extrapolated,
    endpoint_vprime_limit,
    maximal_trace,
    trace_to_csv,
    trace_to_json,
)
from .phase import PhasePoint, psi_rhs, vprime_rhs
from .verify import (
    AMBIENT_EUCLIDEAN,
    ISO_K1,
    ISO_K2,
    GraphSample,
    IsoparametricFn,
    grim_reaper,
    isoparametric_identities,
    ode_residual_at,
    soliton_residual,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_UNLISTED = 4

OUT_ENV = "ISOSOLITON_OUT"

VERIFY_CHECKS = ("grim-reaper", "identities", "ode-residual", "endpoint-law")

_T = TypeVar("_T")


def _usage(ap: argparse.ArgumentParser, build: Callable[..., _T], *args, **kwargs) -> _T:
    """``build(*args, **kwargs)``, its ValueError reported as a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        ap.error(str(exc))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expects NRxNPSI, got {text!r}")
    try:
        nr, npsi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects integers, got {text!r}") from None
    if nr < 1 or npsi < 1:
        raise argparse.ArgumentTypeError("dimensions must be >= 1")
    return nr, npsi


def _range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expects LO,HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects numbers, got {text!r}") from None
    # a finite width keeps every grid point finite
    if not (lo < hi and math.isfinite(hi - lo)):
        raise argparse.ArgumentTypeError(f"needs finite LO < HI, got {text!r}")
    return lo, hi


def _add_params_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--k", type=int, required=True, help="degree of the foliation, one of 1,2,3,4,6")
    ap.add_argument("--n", type=int, required=True, help="dimension of the sphere")
    ap.add_argument("--m", type=int, default=None,
                    help="single multiplicity for k in {1,3,6}; defaults to n-1 when k=1")
    ap.add_argument("--m1", type=int, default=None, help="first multiplicity (k in {2,4})")
    ap.add_argument("--m2", type=int, default=None, help="second multiplicity (k in {2,4})")


def _add_cfg_flags(ap: argparse.ArgumentParser) -> None:
    default = IntegratorConfig()
    ap.add_argument("--tol", type=float, default=default.tol, help="integrator error tolerance")
    ap.add_argument("--blowup-threshold", type=float, default=default.blowup_threshold)
    ap.add_argument("--max-steps", type=int, default=default.max_steps)
    ap.add_argument("--epsilon", type=float, default=default.epsilon,
                    help="offset of endpoint seeds from the focal level")


def _add_seed_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--seed-r", type=float, default=None)
    ap.add_argument("--seed-psi", type=float, default=None)
    ap.add_argument("--endpoint", type=int, choices=(-1, 1), default=None,
                    help="seed on the regular orbit next to this focal level instead")


def _add_out_flag(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--out", default=None,
                    help=f"output directory (default: ${OUT_ENV} or the working directory)")


def _params_from_args(ap: argparse.ArgumentParser, args: argparse.Namespace) -> SolitonParams:
    m, m1, m2 = args.m, args.m1, args.m2
    if m is not None and (m1 is not None or m2 is not None):
        ap.error("--m conflicts with --m1/--m2")
    if (m1 is None) != (m2 is None):
        ap.error("--m1 and --m2 must be given together")
    if m is not None:
        m1 = m2 = m
    elif m1 is None:
        if args.k == 1:
            m1 = m2 = args.n - 1
        else:
            ap.error("multiplicities required: --m (k in {1,3,6}) or --m1/--m2 (k in {2,4})")
    return _usage(ap, make_params, args.k, args.n, m1, m2)


def _cfg_from_args(ap: argparse.ArgumentParser, args: argparse.Namespace) -> IntegratorConfig:
    return _usage(ap, IntegratorConfig, tol=args.tol, blowup_threshold=args.blowup_threshold,
                  max_steps=args.max_steps, epsilon=args.epsilon)


def _seed_from_args(ap: argparse.ArgumentParser, args: argparse.Namespace,
                    p: SolitonParams) -> PhasePoint:
    has_point = args.seed_r is not None or args.seed_psi is not None
    if has_point and args.endpoint is not None:
        ap.error("--seed-r/--seed-psi conflicts with --endpoint")
    if args.endpoint is not None:
        return _usage(ap, endpoint_seed, p, args.endpoint, args.epsilon)
    if args.seed_r is None or args.seed_psi is None:
        ap.error("seed required: --seed-r with --seed-psi, or --endpoint")
    return _usage(ap, PhasePoint, args.seed_r, args.seed_psi)


def _trace_from_args(ap: argparse.ArgumentParser, args: argparse.Namespace,
                     p: SolitonParams) -> Trace:
    """The maximal run the cfg and seed flags ask for."""
    cfg = _cfg_from_args(ap, args)
    return maximal_trace(p, _seed_from_args(ap, args, p), cfg)


def _out_dir(args: argparse.Namespace) -> str:
    out = args.out or os.environ.get(OUT_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write(out: str, name: str, text: str) -> str:
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _shape_labels(trace) -> dict[str, str]:
    try:
        shape = classify(trace)
        return {"psi": shape.psi_type, "vprime": shape.vprime_type, "v": shape.v_type}
    except ValueError:
        return {"psi": "unclassified", "vprime": "unclassified", "v": "unclassified"}


def _parse_formats(ap: argparse.ArgumentParser, args: argparse.Namespace) -> set[str]:
    formats = set(args.formats)
    if args.svg:
        formats.add("svg")
    bad = formats - {"csv", "json", "svg"}
    if bad:
        ap.error(f"unknown formats {sorted(bad)}; choose from csv,json,svg")
    if not formats:
        ap.error("at least one output format required")
    return formats


def cmd_trace(ap: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    p = _params_from_args(ap, args)
    formats = _parse_formats(ap, args)
    plot = _usage(ap, _svg.PlotConfig, ymax=args.ymax, overlays=args.overlays)
    trace = _trace_from_args(ap, args, p)
    out = _out_dir(args)

    written = []
    if "csv" in formats:
        csv_path = os.path.join(out, "trace.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            trace_to_csv(trace, fh)
        written.append(csv_path)
    if "json" in formats:
        written.append(_write(out, "trace.json", _json_text(trace_to_json(trace))))
    if "svg" in formats:
        figs = _svg.trace_figures(p, trace, _shape_labels(trace), plot)
        for key in ("psi", "vprime", "v"):
            written.append(_write(out, f"{key}.svg", figs[key]))
    print(f"left: {trace.left_event.kind} at {trace.left_event.location:.6g}")
    print(f"right: {trace.right_event.kind} at {trace.right_event.location:.6g}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_classify(ap: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    p = _params_from_args(ap, args)
    tol = _usage(ap, check_crossing_tol, args.crossing_tol)
    trace = _trace_from_args(ap, args, p)
    shape = classify(trace, tol=tol)
    out = _out_dir(args)
    domain = None
    if p.k in (1, 2, 3) and not shape.is_unlisted:
        domain = domain_report(p, shape)

    report = classification_report(trace, shape, domain)
    path = _write(out, "classify.json", _json_text(report))
    print(f"type: psi {shape.psi_type} / slope {shape.vprime_type} / height {shape.v_type}")
    if shape.zero_crossing is not None:
        print(f"zero crossing at r = {shape.zero_crossing:.6g}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(ap: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    p = _params_from_args(ap, args)
    cfg = _cfg_from_args(ap, args)
    tol = _usage(ap, check_crossing_tol, args.crossing_tol)
    if not (-1.0 < args.r_range[0] and args.r_range[1] < 1.0):
        ap.error("--r-range must stay inside (-1, 1)")
    workers = min(args.workers, os.cpu_count() or 1)
    seeds = grid_seeds(args.r_range, args.psi_range, *args.grid)
    if args.with_endpoints:
        seeds += [_usage(ap, endpoint_seed, p, which, args.epsilon) for which in (-1, 1)]
    out = _out_dir(args)

    result = sweep(p, seeds, cfg=cfg, tol=tol, workers=workers)
    path = _write(out, "sweep.json", _json_text(sweep_to_dict(result)))

    print(f"seeds: {result.n_seeds}")
    print("type    count")
    for name in ROMANS:
        print(f"{name:<7} {result.histogram.get(name, 0)}")
    n_unlisted = len(result.unlisted)
    if n_unlisted:
        print(f"UNLISTED SHAPES: {n_unlisted}")
        for s in result.unlisted:
            print(f"  seed r={s.r:.6g} psi={s.psi:.6g}")
    else:
        print("unlisted: 0")
    if result.errors:
        print(f"failed seeds: {len(result.errors)}")
        for s, msg in result.errors:
            print(f"  seed r={s.r:.6g} psi={s.psi:.6g}: {msg}")
    print(f"wrote {path}")

    if result.errors:
        return EXIT_NUMERIC
    if args.strict and n_unlisted:
        return EXIT_UNLISTED
    return EXIT_OK


def _check_grim_reaper(args: argparse.Namespace) -> tuple[dict, bool]:
    rng = np.random.default_rng(args.rng_seed)
    pts = rng.uniform(-1.2, 1.2, size=(args.points, 2))
    rep = soliton_residual(GraphSample(AMBIENT_EUCLIDEAN, pts, grim_reaper))
    dev = rep.max_deviation_from(1.0)
    tol = 1e-6
    print(f"grim reaper: max |residual - 1| = {dev:.3e} over {args.points} points (tol {tol:g})")
    return {"check": "grim-reaper", "points": args.points,
            "max_abs_deviation": dev, "tol": tol}, dev < tol


def _check_identities(ap: argparse.ArgumentParser, args: argparse.Namespace) -> tuple[dict, bool]:
    kind = ISO_K1 if args.family == "k1" else ISO_K2
    f = _usage(ap, IsoparametricFn, kind, args.n, l=args.l)
    rep = isoparametric_identities(f, n_points=args.points, seed=args.rng_seed)
    fd = max(rep.grad_sphere_max_err, rep.lap_sphere_max_err)
    amb = max(rep.grad_ambient_max_err, rep.lap_ambient_max_err)
    fd_tol, amb_tol = 1e-8, 1e-12
    print(f"identities ({args.family}, n={args.n}): "
          f"fd dev {fd:.3e} (tol {fd_tol:g}), ambient dev {amb:.3e} (tol {amb_tol:g})")
    return {"check": "identities", "family": args.family, "n": args.n,
            "fd_dev": fd, "ambient_dev": amb,
            "fd_tol": fd_tol, "ambient_tol": amb_tol}, fd < fd_tol and amb < amb_tol


def _check_ode_residual(ap: argparse.ArgumentParser, args: argparse.Namespace) -> tuple[dict, bool]:
    p = _params_from_args(ap, args)
    rng = np.random.default_rng(args.rng_seed)
    worst_res = 0.0
    worst_chain = 0.0
    for _ in range(args.points):
        r = float(rng.uniform(-0.99, 0.99))
        vp = float(rng.uniform(-5.0, 5.0))
        worst_res = max(worst_res, abs(ode_residual_at(p, r, vp)))
        psi = p.k * math.sqrt(1.0 - r * r) * vp
        lhs = psi_rhs(p, r, psi)
        rhs = p.k * (math.sqrt(1.0 - r * r) * vprime_rhs(p, r, vp) - r * vp / math.sqrt(1.0 - r * r))
        worst_chain = max(worst_chain, abs(lhs - rhs))
    tol = 1e-10
    print(f"profile equation: max residual {worst_res:.3e}, "
          f"max chain-rule gap {worst_chain:.3e} over {args.points} states (tol {tol:g})")
    return {"check": "ode-residual", "params": params_to_dict(p), "points": args.points,
            "max_residual": worst_res, "max_chain_gap": worst_chain,
            "tol": tol}, worst_res < tol and worst_chain < tol


def _check_endpoint_law(ap: argparse.ArgumentParser, args: argparse.Namespace) -> tuple[dict, bool]:
    p = _params_from_args(ap, args)
    tol = 1e-6
    devs = {}
    ok = True
    for which in (-1, +1):
        est = endpoint_vprime_extrapolated(p, which)
        exact = endpoint_vprime_limit(p, which)
        dev = abs(est - exact)
        devs[str(which)] = {"measured": est, "exact": exact, "deviation": dev}
        ok = ok and dev < tol
        print(f"endpoint {which:+d}: V' = {est:.12g}, law {exact:.12g}, dev {dev:.3e} (tol {tol:g})")
    return {"check": "endpoint-law", "params": params_to_dict(p),
            "endpoints": devs, "tol": tol}, ok


def cmd_verify(ap: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.check == "grim-reaper":
        payload, ok = _check_grim_reaper(args)
    elif args.check == "identities":
        payload, ok = _check_identities(ap, args)
    elif args.check == "ode-residual":
        payload, ok = _check_ode_residual(ap, args)
    else:
        payload, ok = _check_endpoint_law(ap, args)
    out = _out_dir(args)
    payload["pass"] = ok
    path = _write(out, "verify.json", _json_text(payload))
    print(f"{'PASS' if ok else 'FAIL'}; wrote {path}")
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_domain(ap: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    p = _params_from_args(ap, args)
    if p.k not in (1, 2, 3):
        ap.error("domain statements are available for k in {1, 2, 3}")

    has_seed = args.seed_r is not None or args.seed_psi is not None or args.endpoint is not None
    if not has_seed:
        # Types VI / VII have a canonical representative: the run seeded on
        # the regular orbit at the matching focal level.
        if args.type == "VI":
            args.endpoint = -1
        elif args.type == "VII":
            args.endpoint = 1
        else:
            ap.error("--type I..V needs an explicit seed (--seed-r/--seed-psi)")
    tol = _usage(ap, check_crossing_tol, args.crossing_tol)
    trace = _trace_from_args(ap, args, p)
    shape = classify(trace, tol=tol)
    if shape.is_unlisted:
        raise ValueError("seed produced an unlisted shape; no domain statement")
    if args.type is not None and shape.v_type != args.type:
        raise ValueError(f"seed produced type {shape.v_type}, not the requested {args.type}")
    domain = domain_report(p, shape)
    out = _out_dir(args)

    payload = {
        "params": params_to_dict(p),
        "seed": {"r": trace.seed.r, "psi": trace.seed.psi},
        "type": shape.v_type,
        "contains_focal_minus": domain.contains_focal_minus,
        "contains_focal_plus": domain.contains_focal_plus,
        "description": domain.description,
    }
    path = _write(out, "domain.json", _json_text(payload))
    if p.k == 2:
        lo, hi = domain.description["theta_lo"], domain.description["theta_hi"]
        lob = "[" if domain.description["closed_lo"] else "("
        hib = "]" if domain.description["closed_hi"] else ")"
        fmt = lambda v: "?" if v is None else f"{v:.6g}"
        print(f"type {shape.v_type}: theta in {lob}{fmt(lo)}, {fmt(hi)}{hib}")
    else:
        print(f"type {shape.v_type}: focal- {domain.contains_focal_minus}, "
              f"focal+ {domain.contains_focal_plus}")
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isosoliton",
        description="Translating-soliton profile runs over isoparametric foliations of the sphere.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("trace", help="integrate one maximal profile and write artifacts")
    _add_params_flags(t)
    _add_seed_flags(t)
    _add_cfg_flags(t)
    _add_out_flag(t)
    t.add_argument("--formats", type=_comma_list, default="csv,json",
                   help="comma list from csv,json,svg")
    t.add_argument("--svg", action="store_true", help="also write the three figures")
    t.add_argument("--overlays", type=_comma_list, default=",".join(_svg.OVERLAY_CHOICES),
                   help="comma list from eta,zeta,R-line")
    t.add_argument("--ymax", type=float, default=None, help="symmetric vertical range for slope figures")
    t.set_defaults(func=cmd_trace)

    c = sub.add_parser("classify", help="integrate and name the shape type")
    _add_params_flags(c)
    _add_seed_flags(c)
    _add_cfg_flags(c)
    _add_out_flag(c)
    c.add_argument("--crossing-tol", type=float, default=DEFAULT_CROSSING_TOL)
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("sweep", help="classify a seed grid and histogram the types")
    _add_params_flags(s)
    _add_cfg_flags(s)
    _add_out_flag(s)
    s.add_argument("--grid", type=_grid, default="21x21", help="NRxNPSI seed grid")
    s.add_argument("--r-range", type=_range, default="-0.9,0.9")
    s.add_argument("--psi-range", type=_range, default="-5,5")
    s.add_argument("--with-endpoints", action="store_true",
                   help="add the two endpoint-seeded runs")
    s.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes, at least 1; more than the CPU count are clamped to it")
    s.add_argument("--strict", action="store_true",
                   help="exit 4 when an unlisted shape appears")
    s.add_argument("--crossing-tol", type=float, default=DEFAULT_CROSSING_TOL)
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run one of the built-in ground-truth checks")
    v.add_argument("--check", required=True, choices=VERIFY_CHECKS)
    v.add_argument("--points", type=_positive_int, default=1000)
    v.add_argument("--rng-seed", type=_non_negative_int, default=0)
    v.add_argument("--family", choices=("k1", "k2"), default="k1",
                   help="identities: which foliation family")
    v.add_argument("--l", type=int, default=None, help="identities: k2 split index")
    # params flags are optional here; only some checks use them
    v.add_argument("--k", type=int, default=None)
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--m", type=int, default=None)
    v.add_argument("--m1", type=int, default=None)
    v.add_argument("--m2", type=int, default=None)
    _add_out_flag(v)
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("domain", help="domain statement for a classified run")
    _add_params_flags(d)
    _add_seed_flags(d)
    _add_cfg_flags(d)
    _add_out_flag(d)
    d.add_argument("--type", choices=ROMANS, default=None,
                   help="assert the expected type; VI/VII also pick their canonical seed")
    d.add_argument("--crossing-tol", type=float, default=DEFAULT_CROSSING_TOL)
    d.set_defaults(func=cmd_domain)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "verify" and args.check in ("ode-residual", "endpoint-law") and args.k is None:
        ap.error(f"--check {args.check} requires --k/--n")
    try:
        return args.func(ap, args)
    except NUMERIC_FAILURES as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}", "command": args.command},
                         indent=2))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
