"""Reference implementations that the tests compare the library against.

Fixed-step explicit Euler and classical RK4 walks (Hairer, Norsett & Wanner,
*Solving ODEs I*, II.1) share nothing with the adaptive path except the
right-hand side; ``self_convergence`` measures the adaptive trace against
them on a window (criterion 7).  ``trace_deviation`` compares two traces by
dense output, and ``general_ode_residual`` evaluates the profile equation
along a trace's samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from isosoliton.catalog import SolitonParams
from isosoliton.integrator import Trace, maximal_trace, psi_at
from isosoliton.phase import PhasePoint, psi_rhs
from isosoliton.verify import ResidualReport, ode_residual_at


def trace_deviation(a: Trace, b: Trace, window: tuple[float, float], npts: int = 1001) -> float:
    """Max |psi_a - psi_b| on a shared window, by dense evaluation."""
    lo, hi = window
    for t in (a, b):
        if not (t.r[0] <= lo and hi <= t.r[-1]):
            raise ValueError(f"window {window} outside trace span [{t.r[0]}, {t.r[-1]}]")
    grid = np.linspace(lo, hi, npts)
    return float(np.max(np.abs(psi_at(a, grid) - psi_at(b, grid))))


def euler_walk(p: SolitonParams, seed: PhasePoint, r_stop: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step explicit Euler from the seed to r_stop (sign of travel from
    the ordering of seed.r and r_stop).  Oracle-grade: shares only the RHS
    with the adaptive path."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    direction = 1.0 if r_stop >= seed.r else -1.0
    n_steps = int(abs(r_stop - seed.r) / h)
    k, n, R = p.k, p.n, p.R
    r, y = seed.r, seed.psi
    rs = [r]
    ys = [y]
    sqrt = math.sqrt
    step = direction * h
    for _ in range(n_steps):
        # phase.psi_rhs, inlined with the same operations in the same order
        one_minus_r2 = 1.0 - r * r
        drift = (n - 1) * (r - R) * y + sqrt(one_minus_r2)
        y += step * ((y * y + 1.0) * drift / (k * one_minus_r2))
        r += step
        rs.append(r)
        ys.append(y)
    return np.asarray(rs), np.asarray(ys)


def rk4_walk(p: SolitonParams, seed: PhasePoint, r_stop: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step classical RK4 companion to :func:`euler_walk`."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    direction = 1.0 if r_stop >= seed.r else -1.0
    n_steps = int(abs(r_stop - seed.r) / h)
    r, y = seed.r, seed.psi
    rs = [r]
    ys = [y]
    step = direction * h
    for _ in range(n_steps):
        k1 = psi_rhs(p, r, y)
        k2 = psi_rhs(p, r + 0.5 * step, y + 0.5 * step * k1)
        k3 = psi_rhs(p, r + 0.5 * step, y + 0.5 * step * k2)
        k4 = psi_rhs(p, r + step, y + step * k3)
        y += step * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        r += step
        rs.append(r)
        ys.append(y)
    return np.asarray(rs), np.asarray(ys)


@dataclass(frozen=True)
class SelfConvergenceReport:
    window: tuple[float, float]
    euler_h: float
    rk4_h: float
    max_dev_euler: float
    max_dev_rk4: float
    euler_steps: int
    rk4_steps: int


def self_convergence(
    p: SolitonParams,
    seed: PhasePoint,
    window: tuple[float, float],
    euler_h: float = 1e-6,
    rk4_h: float = 1e-4,
) -> SelfConvergenceReport:
    """Deviation of the default-config adaptive run from fixed-step oracles
    on a window.

    The window must contain the seed (both oracles walk outward from it).  A
    degenerate window yields zero deviation by construction.
    """
    trace = maximal_trace(p, seed)
    lo, hi = window
    if not (lo <= seed.r <= hi):
        raise ValueError(f"window {window} must contain the seed r={seed.r}")
    if not (trace.r[0] <= lo and hi <= trace.r[-1]):
        raise ValueError(f"window {window} outside trace span")

    def walk_dev(walker, h: float) -> tuple[float, int]:
        dev = 0.0
        steps = 0
        for stop in (lo, hi):
            if abs(stop - seed.r) < h:
                continue
            rs, ys = walker(p, seed, stop, h)
            steps += len(rs) - 1
            # the walk's accumulated r may pass a window edge by rounding
            at = psi_at(trace, np.clip(rs, trace.r[0], trace.r[-1]))
            dev = max(dev, float(np.max(np.abs(ys - at))))
        return dev, steps

    dev_e, n_e = walk_dev(euler_walk, euler_h)
    dev_r, n_r = walk_dev(rk4_walk, rk4_h)
    return SelfConvergenceReport(
        window=(lo, hi), euler_h=euler_h, rk4_h=rk4_h,
        max_dev_euler=dev_e, max_dev_rk4=dev_r,
        euler_steps=n_e, rk4_steps=n_r,
    )


def general_ode_residual(p: SolitonParams, trace: Trace, vprime_cap: float = 100.0) -> ResidualReport:
    """Profile-equation residual along a trace's samples.

    Samples with |V'| above ``vprime_cap`` (blow-up tails) are excluded: the
    residual is identically zero in exact arithmetic, but its float
    evaluation loses ~|V'|^3 eps to cancellation, which would swamp the
    check without saying anything about the trace.
    """
    mask = np.abs(trace.vprime) <= vprime_cap
    if not np.any(mask):
        raise ValueError(f"no samples with |V'| <= {vprime_cap}")
    vals = np.array([
        ode_residual_at(p, float(r), float(vp))
        for r, vp in zip(trace.r[mask], trace.vprime[mask])
    ])
    return ResidualReport(values=vals)
