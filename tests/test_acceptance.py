"""Acceptance gate: the ten headline checks, one printed line each.

Each test prints CRITERION <n> PASS/FAIL with the measured worst case, at
the stated tolerance, bypassing capture so the line always shows up in the
run log.  Tolerances here are contractual; do not loosen them.  Beside them
sit the closed-form side and slope laws of the poles, companions of
criterion 4.
"""

import dataclasses
import math

import numpy as np
import pytest

from isosoliton import (
    BLOWUP_MINUS,
    BLOWUP_PLUS,
    REGULAR_ENDPOINT,
    AMBIENT_EUCLIDEAN,
    AMBIENT_SPHERE,
    ISO_K1,
    ISO_K2,
    GraphSample,
    IntegratorConfig,
    IsoparametricFn,
    PhasePoint,
    blowup_bound,
    bound_h1,
    bound_h2,
    bound_h2hat,
    bound_h3,
    endpoint_seed,
    endpoint_vprime_extrapolated,
    endpoint_vprime_limit,
    eta,
    graph_from_trace,
    grid_seeds,
    grim_reaper,
    integrate_from,
    isoparametric_identities,
    make_params,
    maximal_trace,
    mirror_params,
    ode_residual_at,
    psi_at,
    psi_rhs,
    sign_region,
    soliton_residual,
    sphere_points_in_band,
    sweep,
    vprime_rhs,
)
from oracles import self_convergence

# the parameter sets the endpoint-law criterion names, reused by the
# algebraic criteria
LAW_PARAMS = [
    make_params(1, 2, 1, 1),
    make_params(1, 3, 2, 2),
    make_params(2, 3, 1, 1),
    make_params(2, 4, 2, 1),
    make_params(2, 4, 1, 2),
    make_params(3, 4, 1, 1),
]

K1N2 = make_params(1, 2, 1, 1)
K2N3 = make_params(2, 3, 1, 1)
CFG = IntegratorConfig()


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def taxonomy_sweeps():
    """Base-resolution sweeps for the coverage and stability criteria."""
    out = {}
    for name, p in (("k1n2", K1N2), ("k2n3", K2N3)):
        seeds = grid_seeds() + [endpoint_seed(p, -1, CFG.epsilon),
                                endpoint_seed(p, +1, CFG.epsilon)]
        out[name] = (p, seeds, sweep(p, seeds, cfg=CFG, workers=4))
    return out


def test_criterion_01_endpoint_derivative_law(capsys):
    worst = 0.0
    for p in LAW_PARAMS:
        for which in (-1, +1):
            est = endpoint_vprime_extrapolated(p, which)
            law = endpoint_vprime_limit(p, which)
            worst = max(worst, abs(est - law))
    _report(capsys, 1, worst <= 1e-6,
            f"endpoint derivative law, 6 parameter sets x 2 endpoints, "
            f"worst |measured - law| = {worst:.3e} (tol 1e-6)")


def test_criterion_02_sign_trichotomy(capsys):
    rng = np.random.default_rng(20)
    violations = 0
    checked = 0
    for p in LAW_PARAMS:
        rs = rng.uniform(-0.999, 0.999, size=10_000)
        psis = rng.uniform(-50.0, 50.0, size=10_000)
        for r, psi in zip(rs, psis):
            region = sign_region(p, float(r), float(psi))
            if region == "0":
                continue
            checked += 1
            value = psi_rhs(p, float(r), float(psi))
            if (region == "+") != (value > 0.0):
                violations += 1
    _report(capsys, 2, violations == 0,
            f"sign trichotomy, {checked} points outside the 1e-9 tie band, "
            f"{violations} violations")


def test_criterion_03_algebraic_equivalence(capsys):
    rng = np.random.default_rng(30)
    worst_chain = 0.0
    worst_res = 0.0
    for p in LAW_PARAMS:
        for _ in range(10_000):
            r = float(rng.uniform(-0.99, 0.99))
            vp = float(rng.uniform(-5.0, 5.0))
            sq = math.sqrt(1.0 - r * r)
            psi = p.k * sq * vp
            lhs = psi_rhs(p, r, psi)
            rhs = p.k * (sq * vprime_rhs(p, r, vp) - r * vp / sq)
            worst_chain = max(worst_chain, abs(lhs - rhs) / (1.0 + abs(lhs)))
            worst_res = max(worst_res, abs(ode_residual_at(p, r, vp)))
    ok = worst_chain < 1e-10 and worst_res < 1e-10
    _report(capsys, 3, ok,
            f"chain rule gap {worst_chain:.3e}, profile-equation residual "
            f"{worst_res:.3e} at 6x10^4 states (tol 1e-10)")


def _h1_pointwise_margin(p, r0, psi0, half):
    """Worst violation of psi > 1/sqrt(h1) over stored samples.

    The seed sample is excluded: there the bound is an equality by
    construction and carries only rounding noise.
    """
    worst = math.inf
    for r, psi in zip(half.r.tolist(), half.psi.tolist()):
        if r <= r0 or r >= 1.0:
            continue
        h = bound_h1(p, r0, psi0, r)
        if h <= 0.0:
            break
        worst = min(worst, psi - 1.0 / math.sqrt(h))
    return worst


def _h3_pointwise_margin(p, r0, psi0, half):
    """Worst violation of psi > 1/h3 over stored samples (leftward run)."""
    worst = math.inf
    for r, psi in zip(half.r.tolist(), half.psi.tolist()):
        if r >= r0 or r <= -1.0:
            continue
        h = bound_h3(p, r0, psi0, r)
        if h <= 0.0:
            break
        worst = min(worst, psi - 1.0 / h)
    return worst


def test_criterion_04_blowup_bounds(capsys):
    rng = np.random.default_rng(40)
    loc_excess = 0.0   # how far a detected location lands past its bound
    margin = math.inf  # pointwise comparison slack, must stay positive
    runs = 0
    for p in (K1N2, K2N3):
        # rightward blow-up quadrant
        for _ in range(100):
            r0 = float(rng.uniform(p.R + 0.05, 0.9))
            psi0 = float(rng.uniform(0.1, 5.0))
            bound = blowup_bound(p, r0, psi0, +1)
            half = integrate_from(p, PhasePoint(r0, psi0), +1, CFG)
            assert half.event.kind == BLOWUP_PLUS
            loc_excess = max(loc_excess, half.event.location - bound)
            margin = min(margin, _h1_pointwise_margin(p, r0, psi0, half))
            runs += 1
        # leftward blow-up quadrant, above the guide curve
        for _ in range(100):
            r0 = float(rng.uniform(-0.9, p.R - 0.05))
            psi0 = eta(p, r0) * float(rng.uniform(1.05, 3.0)) + 0.1
            bound = blowup_bound(p, r0, psi0, -1)
            half = integrate_from(p, PhasePoint(r0, psi0), -1, CFG)
            assert half.event.kind == BLOWUP_PLUS
            loc_excess = max(loc_excess, bound - half.event.location)
            margin = min(margin, _h3_pointwise_margin(p, r0, psi0, half))
            runs += 1
        # reflected quadrant: negative slope going left
        q = mirror_params(p)
        for _ in range(100):
            r0 = float(rng.uniform(-0.9, p.R - 0.05))
            psi0 = float(rng.uniform(-5.0, -0.1))
            bound = blowup_bound(p, r0, psi0, -1)
            half = integrate_from(p, PhasePoint(r0, psi0), -1, CFG)
            assert half.event.kind == BLOWUP_MINUS
            loc_excess = max(loc_excess, bound - half.event.location)
            # reflect the samples onto the rightward quadrant of q
            mirrored = dataclasses.replace(half, r=-half.r, psi=-half.psi)
            margin = min(margin, _h1_pointwise_margin(q, -r0, -psi0, mirrored))
            runs += 1
    ok = loc_excess <= 1e-6 and margin > 0.0
    _report(capsys, 4, ok,
            f"blow-up bounds over {runs} runs: worst location excess "
            f"{loc_excess:.3e} (tol 1e-6), worst pointwise margin {margin:.3e}")


def test_pole_side_law(taxonomy_sweeps):
    """s = 1/psi runs to zero along a run that reaches a pole b != R, where
    dr/ds ~ -k(1 - b^2) s / ((n-1)(b - R)), so r moves with the sign of
    b - R.  Hence (b - R) * direction > 0: every pole lies on the side of R
    the run heads to (a closed-form law, needing no reference run)."""
    poles = 0
    for name, (p, seeds, res) in taxonomy_sweeps.items():
        for entry in res.entries:
            ev = entry.shape.evidence
            for direction, event in ((-1, ev.left_event), (1, ev.right_event)):
                if event.kind in (BLOWUP_PLUS, BLOWUP_MINUS):
                    assert (event.location - p.R) * direction > 0.0, (name, entry.seed)
                    poles += 1
    assert poles > 1000


def test_pole_slope_law(taxonomy_sweeps):
    """Near a pole b != R, r is analytic in s = 1/psi, with
    dr/ds = -k(1 - r^2) s / ((1 + s^2)((n-1)(r - R) + sqrt(1 - r^2) s)).  So
    the last sample of a run lies short of its pole by
    P = k(1 - b^2) s^2 / (2|a|), a = (n-1)(b - R), to leading order, and the
    next term is (2/3) (sqrt(1 - b^2)/|a|) |s| P.  Every located pole of the
    criterion-6 sweeps obeys the leading law within 3/4 of that next term,
    plus 4 ulps of 1 for rounding: a closed-form check of each pole, needing
    no reference run."""
    poles = 0
    for name, (p, seeds, res) in taxonomy_sweeps.items():
        for entry in res.entries:
            ev = entry.shape.evidence
            for direction, event in ((-1, ev.left_event), (1, ev.right_event)):
                if event.kind not in (BLOWUP_PLUS, BLOWUP_MINUS):
                    continue
                half = integrate_from(p, entry.seed, direction, CFG)
                assert half.event == event, (name, entry.seed, direction)
                b, r_last = event.location, float(half.r[-1])
                if not (b - r_last) * direction > 0.0:
                    continue  # a fallback exit, at the last sample
                s_last = 1.0 / float(half.psi[-1])
                a = abs((p.n - 1) * (b - p.R))
                lead = p.k * (1.0 - b * b) * s_last * s_last / (2.0 * a)
                bound = 0.75 * math.sqrt(1.0 - b * b) / a * abs(s_last) * lead \
                    + 4.0 * math.ulp(1.0)
                assert abs((b - r_last) * direction - lead) <= bound, (name, entry.seed, direction)
                poles += 1
    assert poles > 1000


def test_criterion_05_bounded_limit(capsys):
    rng = np.random.default_rng(50)
    worst_slack = math.inf   # tan(h2) - psi, must stay positive
    growth_ok = True
    for p, angle_bound in ((K1N2, bound_h2), (K2N3, bound_h2hat)):
        for _ in range(100):
            r0 = float(rng.uniform(-0.95, p.R - 0.05))
            psi0 = float(rng.uniform(0.05, 0.95)) * eta(p, r0)
            half = integrate_from(p, PhasePoint(r0, psi0), +1, CFG)
            # pointwise angle comparison on samples up to the singular level,
            # excluding the seed where the bound is an equality by construction
            for r, psi in zip(half.r.tolist(), half.psi.tolist()):
                if not r0 < r <= p.R:
                    continue
                h = angle_bound(p, r0, psi0, r)
                if h < 0.5 * math.pi - 1e-9:
                    worst_slack = min(worst_slack, math.tan(h) - psi)
                else:
                    worst_slack = min(worst_slack, 0.5 * math.pi - math.atan(psi))
            at_R = psi_at(half, p.R)
            if not (math.isfinite(at_R) and at_R > psi0):
                growth_ok = False
    ok = worst_slack > 0.0 and growth_ok
    _report(capsys, 5, ok,
            f"bounded-limit comparison, 200 runs: worst slack below the "
            f"angle bound {worst_slack:.3e}, finite growth through R: {growth_ok}")


def test_criterion_06_taxonomy_coverage(capsys, taxonomy_sweeps):
    detail = []
    ok = True
    for name, (p, seeds, res) in taxonomy_sweeps.items():
        missing = {"I", "II", "III", "IV", "V", "VI", "VII"} - set(res.histogram)
        ok = ok and not missing and not res.unlisted and not res.errors
        detail.append(
            f"{name}: {res.n_seeds} seeds, missing={sorted(missing) or 'none'}, "
            f"unlisted={len(res.unlisted)}, failures={len(res.errors)}")
    _report(capsys, 6, ok, "taxonomy coverage; " + "; ".join(detail))


def test_criterion_07_oracle_equivalence(capsys):
    # windows sit well inside the moderate-slope region, clipped away from
    # the blow-ups that bracket every trajectory
    trials = [
        (K1N2, PhasePoint(0.0, 0.0), (-0.3, 0.3)),
        (K1N2, PhasePoint(-0.3, 0.8), (-0.5, -0.1)),
        (K1N2, PhasePoint(0.4, -1.2), (0.1, 0.5)),
        (K1N2, PhasePoint(-0.5, 2.5), (-0.55, -0.3)),
        (K1N2, PhasePoint(0.2, 0.3), (-0.1, 0.5)),
        (K2N3, PhasePoint(0.0, 0.0), (-0.4, 0.4)),
        (K2N3, PhasePoint(-0.4, 1.0), (-0.6, -0.2)),
        (K2N3, PhasePoint(0.3, -0.7), (0.0, 0.6)),
        (K2N3, PhasePoint(-0.2, 3.0), (-0.3, 0.0)),
        (K2N3, PhasePoint(0.5, 0.5), (0.2, 0.7)),
    ]
    worst = 0.0
    for p, seed, window in trials:
        rep = self_convergence(p, seed, window=window, euler_h=1e-6)
        worst = max(worst, rep.max_dev_euler)
    _report(capsys, 7, worst < 1e-4,
            f"adaptive vs fixed-step Euler (h=1e-6), 10 seeds on clipped "
            f"windows, worst deviation {worst:.3e} (tol 1e-4)")


def test_criterion_08_pde_ground_truth(capsys):
    rng = np.random.default_rng(80)
    pts = rng.uniform(-1.2, 1.2, size=(1000, 2))
    flat = soliton_residual(GraphSample(AMBIENT_EUCLIDEAN, pts, grim_reaper))
    flat_dev = flat.max_deviation_from(1.0)

    p = K1N2
    cfg = IntegratorConfig(tol=1e-12, max_step=2e-3)
    tr = maximal_trace(p, endpoint_seed(p, -1, 1e-6), cfg)
    assert tr.left_event.kind == REGULAR_ENDPOINT
    f = IsoparametricFn(ISO_K1, 2)
    u = graph_from_trace(p, tr, f)
    band_hi = tr.right_event.location - 0.1
    sphere_pts = sphere_points_in_band(f, -0.95, band_hi, 1000, seed=80)
    curved = soliton_residual(GraphSample(AMBIENT_SPHERE, sphere_pts, u))
    curved_dev = curved.max_deviation_from(1.0)

    ok = flat_dev < 1e-6 and curved_dev < 1e-3
    _report(capsys, 8, ok,
            f"translating-graph PDE: flat closed form dev {flat_dev:.3e} "
            f"(tol 1e-6), integrated sphere graph dev {curved_dev:.3e} "
            f"(tol 1e-3) on 10^3-point band")


def test_criterion_09_isoparametric_identities(capsys):
    reps = {
        "K1(n=2)": isoparametric_identities(IsoparametricFn(ISO_K1, 2), n_points=1000),
        "K2(n=3,l=2)": isoparametric_identities(IsoparametricFn(ISO_K2, 3, l=2), n_points=1000),
    }
    worst_fd = max(max(r.grad_sphere_max_err, r.lap_sphere_max_err) for r in reps.values())
    worst_amb = max(max(r.grad_ambient_max_err, r.lap_ambient_max_err) for r in reps.values())
    ok = worst_fd < 1e-8 and worst_amb < 1e-12
    _report(capsys, 9, ok,
            f"foliation identities at 10^3 points each: finite-difference "
            f"dev {worst_fd:.3e} (tol 1e-8), ambient algebra dev "
            f"{worst_amb:.3e} (tol 1e-12)")


def test_criterion_10_classification_stability(capsys, taxonomy_sweeps):
    halved = dataclasses.replace(CFG, tol=0.5 * CFG.tol)
    changes = 0
    total = 0
    for name, (p, seeds, base) in taxonomy_sweeps.items():
        res = sweep(p, seeds, cfg=halved, workers=4)
        assert not res.errors
        for a, b in zip(base.entries, res.entries):
            total += 1
            if a.shape.v_type != b.shape.v_type:
                changes += 1
    _report(capsys, 10, changes == 0,
            f"halved integrator tolerance: {changes} type changes across "
            f"{total} classified seeds")
