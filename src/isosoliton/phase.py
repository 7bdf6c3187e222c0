"""Phase-plane analysis of the soliton profile equation.

A graphical translating soliton whose height depends only on the
isoparametric level r has profile V(r) solving a second-order ODE singular at
the focal levels r = +-1.  The substitution

    psi(r) = k sqrt(1 - r^2) V'(r)

(the profile slope measured against arclength across the leaves) turns it
into the first-order equation

    psi' = (psi^2 + 1) ((n-1)(r - R) psi + sqrt(1 - r^2)) / (k (1 - r^2)),

whose sign structure is controlled by the guide curves

    eta(r)  = -sqrt(1 - r^2) / ((n-1)(r - R)),
    zeta(r) = -1 / (k (n-1)(r - R))        (eta = k sqrt(1-r^2) zeta).

This module provides the right-hand sides, the guide curves, the sign
trichotomy (a tie within ``SIGN_TIE_TOL`` of eta), and the comparison
bounds that pin down where solutions blow up or stay bounded.  The bounds
are closed-form antiderivatives lifted from the comparison arguments; tests
re-derive them by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import SolitonParams, make_params

BISECTION_TOL = 1e-12

# Half-width of the band around eta in which sign_region reports a tie.
SIGN_TIE_TOL = 1e-9

# Distance from R inside which the sampled guide curves take their one-sided
# limits: beyond it |eta|, |zeta| <= 1/|r - R| stay finite.
ETA_POLE_GAP = 1e-300


@dataclass(frozen=True)
class PhasePoint:
    """A state (r, psi) of the first-order slope equation, |r| < 1."""

    r: float
    psi: float

    def __post_init__(self) -> None:
        if not abs(self.r) < 1.0:
            raise ValueError(f"phase point needs |r| < 1, got r={self.r}")
        if not math.isfinite(self.psi):
            raise ValueError(f"phase point needs finite psi, got {self.psi}")
        # Python floats, whatever number type came in: a numpy float32 would
        # run the walk in float32, and a bool would print as one.
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "psi", float(self.psi))


def psi_rhs(p: SolitonParams, r: float, psi: float) -> float:
    """Right-hand side of the first-order slope equation.

    Singular at r = +-1; callers must keep |r| < 1.
    """
    one_minus_r2 = 1.0 - r * r
    if one_minus_r2 <= 0.0:
        raise ValueError(f"slope equation singular at |r| >= 1, got r={r}")
    drift = (p.n - 1) * (r - p.R) * psi + math.sqrt(one_minus_r2)
    return (psi * psi + 1.0) * drift / (p.k * one_minus_r2)


def s_rhs(p: SolitonParams, s: float, r: float) -> float:
    """The slope equation with s = 1/psi as the variable and r as the value:

        dr/ds = -k (1 - r^2) s / ((1 + s^2) ((n-1)(r - R) + sqrt(1 - r^2) s)).

    A blow-up of psi at a level b != R is the regular point s = 0, r = b,
    where dr/ds vanishes.  Singular at |r| >= 1 and where the second factor
    of the denominator vanishes; callers keep to where it is at least half
    its first term (the integrator's tail guard).
    """
    one_minus_r2 = 1.0 - r * r
    if not one_minus_r2 > 0.0:
        raise ValueError(f"slope equation singular at |r| >= 1, got r={r}")
    den = (1.0 + s * s) * ((p.n - 1) * (r - p.R) + math.sqrt(one_minus_r2) * s)
    if den == 0.0:
        raise ValueError(f"dr/ds singular at (s, r) = ({s}, {r})")
    return -p.k * one_minus_r2 * s / den


def vprime_rhs(p: SolitonParams, r: float, vprime: float) -> float:
    """Second derivative V'' of the profile, as a function of (r, V').

    Singular at r = +-1 like :func:`psi_rhs`.
    """
    one_minus_r2 = 1.0 - r * r
    if one_minus_r2 <= 0.0:
        raise ValueError(f"profile equation singular at |r| >= 1, got r={r}")
    k, n, R = p.k, p.n, p.R
    return (
        k * (n - 1) * (r - R) * vprime**3
        + vprime * vprime
        + ((n + k - 1) * r - (n - 1) * R) * vprime / (k * one_minus_r2)
        + 1.0 / (k * k * one_minus_r2)
    )


def eta(p: SolitonParams, r: float) -> float:
    """Guide curve eta(r) = -sqrt(1-r^2) / ((n-1)(r-R)).

    At the singular level r == R it returns the limit from r > R, -inf (the
    limit from r < R is +inf).  At r = +-1 the curve vanishes.
    """
    if abs(r) > 1.0:
        raise ValueError(f"eta undefined for |r| > 1, got r={r}")
    if r == p.R:
        return -math.inf
    return -math.sqrt(1.0 - r * r) / ((p.n - 1) * (r - p.R))


def zeta(p: SolitonParams, r: float) -> float:
    """Guide curve zeta(r) = -1 / (k (n-1)(r-R)); eta = k sqrt(1-r^2) zeta.

    At r == R it returns -inf, the limit from r > R, like :func:`eta`.
    """
    if abs(r) > 1.0:
        raise ValueError(f"zeta undefined for |r| > 1, got r={r}")
    if r == p.R:
        return -math.inf
    return -1.0 / (p.k * (p.n - 1) * (r - p.R))


def _eta_samples(p: SolitonParams, r: np.ndarray) -> np.ndarray:
    """:func:`eta` at an array of levels |r| <= 1, bit for bit off the pole."""
    return _off_pole(p, r, lambda x, d: -np.sqrt(1.0 - x * x) / ((p.n - 1) * d))


def _zeta_samples(p: SolitonParams, r: np.ndarray) -> np.ndarray:
    """:func:`zeta` at an array of levels |r| <= 1, bit for bit off the pole."""
    return _off_pole(p, r, lambda x, d: -1.0 / (p.k * (p.n - 1) * d))


def _off_pole(p: SolitonParams, r: np.ndarray,
              quotient: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """A guide curve given as a quotient of (r, r - R).

    Within ``ETA_POLE_GAP`` of R, where the quotient would overflow, its
    one-sided limit stands in: -inf for r >= R, +inf below.
    """
    d = r - p.R
    out = np.where(d >= 0.0, -np.inf, np.inf)
    far = np.abs(d) > ETA_POLE_GAP
    out[far] = quotient(r[far], d[far])
    return out


def sign_region(p: SolitonParams, r: float, psi: float) -> str:
    """Sign of psi' at (r, psi) predicted by the trichotomy, without the RHS.

    Returns "+", "-", or "0" (the latter inside the eta-proximity tie band of
    half-width ``SIGN_TIE_TOL``).  The structure: psi' vanishes exactly on the
    guide curve eta; above eta the sign is + for r > R and - for r < R,
    below eta the opposite; on the singular level r = R itself, and on the
    axis psi = 0, the derivative is strictly positive.
    """
    if not abs(r) < 1.0:
        raise ValueError(f"sign_region needs |r| < 1, got r={r}")
    if psi == 0.0 or r == p.R:
        return "+"
    e = eta(p, r)
    if abs(psi - e) <= SIGN_TIE_TOL:
        return "0"
    if r > p.R:
        return "+" if psi > e else "-"
    return "-" if psi > e else "+"


def mirror_params(p: SolitonParams) -> SolitonParams:
    """Parameter set of the reflected flow psi~(r) = -psi(-r).

    Reflection swaps the two multiplicities, hence flips R to -R; it maps
    solutions of the slope equation onto solutions for the swapped set, which
    transfers every one-sided comparison bound to its mirror quadrant.
    """
    return make_params(p.k, p.n, p.m2, p.m1)


def bound_h1(p: SolitonParams, r0: float, psi0: float, r: float) -> float:
    """Blow-up comparison function for rightward runs started above the axis.

    For a trajectory with psi(r0) > 0 and R < r0 < 1, the squared reciprocal
    slope satisfies 1/psi(r)^2 < h1(r) on [r0, 1), where

        h1(r) = 1/psi0^2 - 2 integral_{r0}^{r} (n-1)(s-R) / (k(1-s^2)) ds

    evaluated here in closed form.  h1 starts positive and decreases to -inf,
    so its unique root bounds the blow-up location from the right.
    """
    if not (p.R < r0 < 1.0):
        raise ValueError(f"bound_h1 needs R < r0 < 1, got r0={r0} (R={p.R})")
    if not (r0 <= r < 1.0):
        raise ValueError(f"bound_h1 needs r0 <= r < 1, got r={r}")
    if not psi0 > 0.0:
        raise ValueError(f"bound_h1 needs psi0 > 0, got {psi0}")
    n, k, R = p.n, p.k, p.R
    c = (n - 1) / k

    def antiderivative(s: float) -> float:
        return c * math.log(1.0 - s * s) + c * R * math.log((1.0 + s) / (1.0 - s))

    return antiderivative(r) - antiderivative(r0) + 1.0 / (psi0 * psi0)


def bound_h2(p: SolitonParams, r0: float, psi0: float, r: float) -> float:
    """Bounded-limit comparison angle for k = 1 runs below the guide curve.

    For 0 < psi(r0) < eta(r0) with -1 < r0 < R, the slope angle satisfies
    arctan(psi(r)) < h2(r) = arcsin(r) - arcsin(r0) + arctan(psi0) on
    (r0, R], which keeps psi finite up to the singular level.
    """
    if p.k != 1:
        raise ValueError(f"bound_h2 applies to k=1 only, got k={p.k}")
    _check_bounded_limit_pre(p, r0, psi0, r)
    return math.asin(r) - math.asin(r0) + math.atan(psi0)


def bound_h2hat(p: SolitonParams, r0: float, psi0: float, r: float) -> float:
    """Bounded-limit comparison angle for k >= 2 (half-rate arcsine drift)."""
    if p.k < 2:
        raise ValueError(f"bound_h2hat applies to k >= 2, got k={p.k}")
    _check_bounded_limit_pre(p, r0, psi0, r)
    return 0.5 * (math.asin(r) - math.asin(r0)) + math.atan(psi0)


def _check_bounded_limit_pre(p: SolitonParams, r0: float, psi0: float, r: float) -> None:
    if not (-1.0 < r0 < p.R):
        raise ValueError(f"bounded-limit bound needs -1 < r0 < R, got r0={r0} (R={p.R})")
    if not (r0 <= r <= p.R):
        raise ValueError(f"bounded-limit bound needs r0 <= r <= R, got r={r}")
    e0 = eta(p, r0)
    if not (0.0 < psi0 < e0):
        raise ValueError(
            f"bounded-limit bound needs 0 < psi0 < eta(r0)={e0}, got psi0={psi0}"
        )


def bound_h3(p: SolitonParams, r0: float, psi0: float, r: float) -> float:
    """Blow-up comparison function for leftward runs above the guide curve.

    For psi(r0) > eta(r0) > 0 with -1 < r0 < R, the reciprocal slope
    satisfies 1/psi(r) < h3(r) on (-1, r0], where h3 solves

        h3' = -(n-1)(r-R) psi0 / (k(1-r^2)) - 1 / (k sqrt(1-r^2)),
        h3(r0) = 1/psi0,

    in closed form.  Under the precondition h3 increases with r, so its
    unique root below r0 bounds the leftward blow-up location.
    """
    if not (-1.0 < r0 < p.R):
        raise ValueError(f"bound_h3 needs -1 < r0 < R, got r0={r0} (R={p.R})")
    if not (-1.0 < r <= r0):
        raise ValueError(f"bound_h3 needs -1 < r <= r0, got r={r}")
    e0 = eta(p, r0)
    if not psi0 > e0 > 0.0:
        raise ValueError(f"bound_h3 needs psi0 > eta(r0) > 0, got psi0={psi0}, eta={e0}")
    n, k, R = p.n, p.k, p.R
    c = (n - 1) * psi0 / (2.0 * k)

    def antiderivative(s: float) -> float:
        return (
            c * math.log(1.0 - s * s)
            - math.asin(s) / k
            + c * R * math.log((1.0 + s) / (1.0 - s))
        )

    return antiderivative(r) - antiderivative(r0) + 1.0 / psi0


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: float = BISECTION_TOL) -> float:
    """Plain bisection on a sign-changing bracket lo < hi, to absolute width
    tol or until the bracket holds two adjacent doubles."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise RuntimeError(f"bisection bracket [{lo}, {hi}] has no sign change")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bracket_toward(f: Callable[[float], float], start: float, endpoint: float) -> float:
    """First point of the dyadic sequence toward ``endpoint`` where f < 0.

    The comparison functions are undefined at the focal level itself, so
    probes are clamped to the last representable point before ``endpoint``;
    if f is still positive there the root hugs the endpoint closer than one
    ulp and that innermost point is returned instead.
    """
    inner = math.nextafter(endpoint, start)
    for j in range(1, 60):
        b = endpoint - (endpoint - start) * 0.5**j
        b = max(b, inner) if endpoint > start else min(b, inner)
        if f(b) < 0.0:
            return b
        if b == inner:
            return inner
    raise RuntimeError(
        f"no sign change between {start} and {endpoint}; comparison function stayed positive"
    )


def blowup_bound(p: SolitonParams, r0: float, psi0: float, side: int) -> float:
    """A priori bound on the blow-up location of the run from (r0, psi0).

    ``side`` is the direction of integration: +1 rightward, -1 leftward.
    Four quadrants are covered:

    * rightward, psi0 > 0  (needs r0 > R): root of h1 in (r0, 1); the
      trajectory blows up to +inf no later than that root.
    * leftward, psi0 > eta(r0) > 0 (needs r0 < R): root of h3 in (-1, r0);
      blow-up to +inf happens no earlier (no further left) than the root.
    * leftward, psi0 < 0 and rightward, psi0 < eta(r0) < 0: reduced to the
      first two through the reflection psi~(r) = -psi(-r) (multiplicities
      swapped), and the returned location is reflected back.

    The root is found by bisection to absolute tolerance 1e-12 on a bracket
    grown dyadically toward the relevant focal level.
    """
    if side not in (-1, 1):
        raise ValueError(f"side must be -1 or +1, got {side!r}")
    if psi0 == 0.0:
        raise ValueError("blow-up bound undefined for psi0 = 0")
    if not math.isfinite(psi0):
        raise ValueError(f"blow-up bound needs finite psi0, got {psi0}")
    if not abs(r0) < 1.0:
        raise ValueError(f"blow-up bound needs |r0| < 1, got {r0}")

    if side == 1 and psi0 > 0.0:
        f = lambda r: bound_h1(p, r0, psi0, r)
        hi = _bracket_toward(f, r0, 1.0)
        if f(hi) >= 0.0:
            return hi
        return _bisect(f, r0, hi)

    if side == -1 and psi0 > 0.0:
        f = lambda r: bound_h3(p, r0, psi0, r)
        lo = _bracket_toward(f, r0, -1.0)
        if f(lo) >= 0.0:
            return lo
        return _bisect(f, lo, r0)

    # Negative-psi quadrants via reflection.
    q = mirror_params(p)
    if side == -1:
        return -blowup_bound(q, -r0, -psi0, 1)
    return -blowup_bound(q, -r0, -psi0, -1)
