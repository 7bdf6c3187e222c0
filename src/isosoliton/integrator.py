"""Event-aware adaptive integration of the slope equation.

The slope equation is integrated with an embedded Dormand-Prince 5(4) pair
under three hard behaviors that a generic ODE driver does not provide in the
form needed here:

* the step is capped by half the distance to the nearest focal level, so the
  walk can approach r = +-1 without ever evaluating the singular right-hand
  side outside (-1, 1);
* blow-up is a first-class termination.  Once |psi| passes a moderate level
  the same stepping loop carries u = 1/psi^2 instead of psi, in which the
  pole is a regular zero (the variable of the comparison bound h1).  A step
  that lands at u <= 0 has crossed the pole; the root of the step's cubic
  Hermite model of u, polished by Newton iterations on the step, is
  reported as the blow-up location.  Two fallbacks report the last accepted
  sample instead: |psi| above ``blowup_threshold``, and the step collapsing
  below ``STEP_COLLAPSE`` while the graph slope exceeds ``BLOWUP_SOFT`` and
  |psi| is still growing.  The second ends runs jammed against r = +-1,
  where psi can stay moderate up to the last step;
* reaching a focal level regularly is also a termination, with the profile
  derivative measured at the final sample.

Endpoint approach uses an absolute gap tolerance (``ENDPOINT_TOL``) plus a
relative rule for runs that *start* within ``ENDPOINT_START_WINDOW`` of a
focal level: the regular orbit into the endpoint is a separatrix, and
integrating toward the endpoint amplifies the O(epsilon) seeding error like
a power of (epsilon/gap), so a fixed absolute gap is unreachable from a
coarse seed.  Covering a fixed fraction of the initial gap instead (stop at
``ENDPOINT_COVER`` of it) makes the measured endpoint derivative converge
linearly in epsilon, which downstream extrapolation then cancels.

The stepping kernels ``_dp5_psi`` and ``_dp5_u`` are the Dormand-Prince
stages unrolled with the right-hand side inlined: they repeat the
floating-point operations of ``phase.psi_rhs`` and ``phase.u_rhs`` in the
same order, so a step is bit for bit the tableau walked over those
functions, which stay the reference (the tests hold the kernels to it).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .catalog import SolitonParams, params_to_dict
from .phase import PhasePoint, _bisect, _eta_samples, eta, psi_rhs, u_rhs

REGULAR_ENDPOINT = "RegularEndpoint"
BLOWUP_PLUS = "BlowUpPlus"
BLOWUP_MINUS = "BlowUpMinus"
BUDGET_EXHAUSTED = "BudgetExhausted"

CROSSING_ZERO = "zero"
CROSSING_ETA = "eta"

# |psi| above which an accepted step switches the walk to u = 1/psi^2, and
# below which it switches back; the gap between the two keeps a run that
# hovers near one level from flapping between variables.
U_ENTER = 100.0
U_LEAVE = 25.0

# Bracket width at which crossing and pole bisection stop: about ten ulps
# for |r| near 1, and a bounded iteration count near r = 0, where doubles
# are dense.
ROOT_TOL = 1e-15
# Newton polish steps on a located pole (see _locate_pole).
POLE_NEWTON_ITERS = 3

# Absolute gap at which a focal level counts as reached.
ENDPOINT_TOL = 1e-12
# Runs whose initial gap to the focal level ahead is at most this stop once
# the gap is ENDPOINT_COVER of the initial one (99% covered).
ENDPOINT_START_WINDOW = 1e-3
ENDPOINT_COVER = 0.01
# Step size below which the walk is stuck: a blow-up when the graph slope
# is above BLOWUP_SOFT and |psi| still growing, else BudgetExhausted.
STEP_COLLAPSE = 1e-14
BLOWUP_SOFT = 1e4


@dataclass(frozen=True)
class IntegratorConfig:
    """Tunables for the adaptive walk.

    tol                per-step local error tolerance (mixed abs/rel, on
                       psi or on u = 1/psi^2, whichever is carried).
    blowup_threshold   |psi| at which blow-up is declared outright, at the
                       last accepted sample (a fallback: the pole is
                       normally located as the zero of u first).
    max_steps          attempted-step budget per direction; a trace keeps
                       every accepted sample, at most 2 * max_steps + 1.
    epsilon            default focal-level offset for endpoint seeds.
    max_step           global cap on |step|; also bounds the sample
                       spacing, which crossing detection relies on.

    The endpoint and step-collapse settings are the module constants above.
    """

    tol: float = 1e-10
    blowup_threshold: float = 1e8
    max_steps: int = 1_000_000
    epsilon: float = 1e-6
    max_step: float = 0.01

    def __post_init__(self) -> None:
        for name in ("tol", "blowup_threshold", "epsilon", "max_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if type(self.max_steps) is not int or self.max_steps < 1:
            raise ValueError(f"the step budget must be a positive int, got {self.max_steps!r}")


@dataclass(frozen=True)
class TerminationEvent:
    """Why a directed run stopped.

    ``endpoint_vprime`` is set only for RegularEndpoint events and holds the
    profile derivative psi/(k sqrt(1-r^2)) measured at the last accepted
    sample.  ``location`` is +-1 exactly for RegularEndpoint; for a blow-up
    it is the located pole (the zero of u = 1/psi^2 within the last step),
    or the last accepted r when a fallback exit fired; for BudgetExhausted
    it is the last accepted r.
    """

    kind: str
    location: float
    endpoint_vprime: float | None = None


@dataclass(frozen=True)
class StepStats:
    accepted: int
    rejected: int
    min_step: float
    max_step: float


@dataclass(frozen=True)
class Crossing:
    kind: str  # "zero" or "eta"
    r: float


@dataclass(frozen=True)
class HalfTrace:
    """Samples of one directed run, in integration order."""

    params: SolitonParams
    seed: PhasePoint
    direction: int
    r: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    event: TerminationEvent
    stats: StepStats


@dataclass(frozen=True)
class Trace:
    """A maximal bidirectional run, samples strictly increasing in r.

    vprime is definitionally psi/(k sqrt(1-r^2)); v is the profile recovered
    by trapezoid quadrature of vprime with gauge v = 0 at the seed.
    """

    params: SolitonParams
    seed: PhasePoint
    cfg: IntegratorConfig
    r: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    vprime: np.ndarray
    v: np.ndarray
    left_event: TerminationEvent
    right_event: TerminationEvent
    crossings: tuple[Crossing, ...]
    step_stats: StepStats


# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# section II.5): nodes, stage weights, and the error weights, which are the
# fifth-order minus the embedded fourth-order weights.  Stages 6 and 7 both
# sit at r + h; the seventh is the first stage of the next step.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A72, _A73, _A74, _A75, _A76 = 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E2, _E3, _E4 = 71 / 57600, 0.0, -71 / 16695, 71 / 1920
_E5, _E6, _E7 = -17253 / 339200, 22 / 525, -1 / 40
# What a kernel returns once a stage leaves the finite range.
_STAGE_OVERFLOW = (math.nan, math.inf, math.nan)


def endpoint_vprime_limit(p: SolitonParams, which: int) -> float:
    """Profile derivative forced at a focal level by regularity.

    which = -1 gives V'(-1) =  1 / (k (k + (n-1)(1+R)));
    which = +1 gives V'(+1) = -1 / (k (k + (n-1)(1-R))).
    """
    if which == -1:
        return 1.0 / (p.k * (p.k + (p.n - 1) * (1.0 + p.R)))
    if which == 1:
        return -1.0 / (p.k * (p.k + (p.n - 1) * (1.0 - p.R)))
    raise ValueError(f"which must be -1 or +1, got {which!r}")


def endpoint_seed(p: SolitonParams, which: int, epsilon: float) -> PhasePoint:
    """Seed just inside a focal level on the regular orbit.

    Places the state at r = which * (1 - epsilon) with the slope the endpoint
    derivative law dictates to first order.  epsilon must lie in (0, 1e-4].
    """
    if not 0.0 < epsilon <= 1e-4:
        raise ValueError(f"epsilon must be in (0, 1e-4], got {epsilon}")
    vp = endpoint_vprime_limit(p, which)
    r0 = which * (1.0 - epsilon)
    psi0 = p.k * math.sqrt(1.0 - r0 * r0) * vp
    return PhasePoint(r=r0, psi=psi0)


def integrate_from(
    p: SolitonParams,
    seed: PhasePoint,
    direction: int,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> HalfTrace:
    """Run the adaptive walk from ``seed`` in one direction until an event.

    The walk carries psi, or u = 1/psi^2 while |psi| is large (entered above
    ``U_ENTER``, left below ``U_LEAVE``); samples are always stored as
    (r, psi, psi').
    """
    if direction not in (-1, 1):
        raise ValueError(f"direction must be -1 or +1, got {direction!r}")

    # as floats: the kernels then multiply float by float, the same values
    # as int by float without CPython's mixed-type path
    k, n1, R = float(p.k), float(p.n - 1), p.R
    tol, max_step, threshold = cfg.tol, cfg.max_step, cfg.blowup_threshold
    in_u = False
    sign = 1.0  # sgn psi while the walk carries u
    endpoint = float(direction)

    r, y = seed.r, seed.psi
    psi = y
    gap0 = abs(endpoint - r)
    relative_rule = gap0 <= ENDPOINT_START_WINDOW
    stop_gap = max(ENDPOINT_TOL, ENDPOINT_COVER * gap0 if relative_rule else 0.0)
    # Landing exactly on the stop radius keeps the endpoint-derivative
    # measurement a smooth function of the seeding offset, which the
    # extrapolation in the endpoint-law checks relies on.
    r_stop = endpoint - direction * stop_gap

    rs = [r]
    ys = [y]
    k1 = psi_rhs(p, r, y)
    ds = [k1]

    def finish(event: TerminationEvent, accepted: int, rejected: int,
               hmin: float, hmax: float) -> HalfTrace:
        stats = StepStats(accepted=accepted, rejected=rejected,
                          min_step=hmin if accepted else 0.0,
                          max_step=hmax if accepted else 0.0)
        return HalfTrace(
            params=p, seed=seed, direction=direction,
            r=np.asarray(rs), psi=np.asarray(ys), dpsi=np.asarray(ds),
            event=event, stats=stats,
        )

    def endpoint_event() -> TerminationEvent:
        vp = ys[-1] / (k * math.sqrt(1.0 - rs[-1] * rs[-1]))
        return TerminationEvent(kind=REGULAR_ENDPOINT, location=endpoint,
                                endpoint_vprime=vp)

    def blowup_event(positive: bool, location: float) -> TerminationEvent:
        return TerminationEvent(kind=BLOWUP_PLUS if positive else BLOWUP_MINUS,
                                location=location)

    if gap0 <= ENDPOINT_TOL:
        return finish(endpoint_event(), 0, 0, 0.0, 0.0)

    accepted = 0
    rejected = 0
    hmin_seen = math.inf
    hmax_seen = 0.0
    prev_abs_psi = abs(psi)
    h = direction * min(max_step, 0.25 * gap0, 1e-3)

    # min/max are spelled as comparisons that pick the same operand.
    for _attempt in range(cfg.max_steps):
        hcap = 0.5 * abs(endpoint - r)
        if not hcap < max_step:
            hcap = max_step
        if abs(h) > hcap:
            h = endpoint * hcap
        if (r + h - r_stop) * endpoint >= 0.0:
            h = r_stop - r

        if in_u:
            y_new, err, d_new = _dp5_u(n1, R, k, sign, r, y, k1, h)
        else:
            y_new, err, d_new = _dp5_psi(n1, R, k, r, y, k1, h)
        if math.isfinite(y_new) and math.isfinite(err):
            scale = abs(y_new)
            if not scale > abs(y):
                scale = abs(y)
            err_norm = abs(err) / (tol * (1.0 + scale))
        else:
            err_norm = math.inf

        if err_norm <= 1.0:
            r_new = r + h
            accepted += 1
            ah = abs(h)
            if ah < hmin_seen:
                hmin_seen = ah
            if ah > hmax_seen:
                hmax_seen = ah
            if in_u and y_new <= 0.0:  # the step crossed the pole
                pole = _locate_pole(n1, R, k, sign, r, y, k1, r_new, y_new, d_new)
                return finish(blowup_event(sign > 0.0, pole),
                              accepted, rejected, hmin_seen, hmax_seen)
            prev_abs_psi = abs(psi)
            r, y, k1 = r_new, y_new, d_new
            if in_u:
                psi = sign / math.sqrt(y)
                w = 1.0 - r * r  # positive: the step's last stage sat at r
                dpsi = (psi * psi + 1.0) * (n1 * (r - R) * psi + math.sqrt(w)) / (k * w)
            else:
                psi, dpsi = y, k1
            rs.append(r)
            ys.append(psi)
            ds.append(dpsi)

            if abs(psi) >= threshold:
                return finish(blowup_event(psi > 0.0, r),
                              accepted, rejected, hmin_seen, hmax_seen)
            # Slack of a few ulp of 1.0: the landed gap is |endpoint - r|
            # with r near +-1, so it carries that absolute rounding.
            if abs(endpoint - r) <= stop_gap + 1e-15:
                return finish(endpoint_event(), accepted, rejected, hmin_seen, hmax_seen)

            if not in_u and abs(psi) > U_ENTER:
                in_u = True
                sign = math.copysign(1.0, psi)
                y = 1.0 / (psi * psi)
                k1 = u_rhs(p, r, y, sign)
            elif in_u and abs(psi) < U_LEAVE:
                in_u = False
                y, k1 = psi, dpsi
        else:
            rejected += 1

        if err_norm == 0.0:
            h *= 5.0
        else:
            factor = 0.9 * err_norm ** -0.2
            h *= 5.0 if factor >= 5.0 else factor if factor > 0.2 else 0.2

        if abs(h) < STEP_COLLAPSE:
            # Trigger on the graph slope, not on psi: a pole sitting close
            # to r = +-1 collapses the step while psi is still moderate,
            # but psi / (k sqrt(1-r^2)) is already enormous there.
            slope = abs(psi) / (k * math.sqrt(max(1.0 - r * r, 1e-300)))
            if slope > BLOWUP_SOFT and abs(psi) >= prev_abs_psi:
                return finish(blowup_event(psi > 0.0, r),
                              accepted, rejected, hmin_seen, hmax_seen)
            event = TerminationEvent(kind=BUDGET_EXHAUSTED, location=r)
            return finish(event, accepted, rejected, hmin_seen, hmax_seen)

    event = TerminationEvent(kind=BUDGET_EXHAUSTED, location=r)
    return finish(event, accepted, rejected, hmin_seen, hmax_seen)


def _singular(r: float) -> ValueError:
    return ValueError(f"slope equation singular at |r| >= 1, got r={r}")


def _dp5_psi(n1: float, R: float, k: float, r: float, y: float, k1: float,
             h: float) -> tuple[float, float, float]:
    """One Dormand-Prince 5(4) step of psi' = F(r, psi) from (r, y), y' = k1.

    ``n1`` is n - 1.  F is ``phase.psi_rhs`` inlined with the same
    floating-point operations in the same order, so the step is bit for bit
    the tableau walked over ``psi_rhs``.  Returns the fifth-order value at
    r + h, the embedded error estimate and the derivative there (first same
    as last: the seventh stage sits at (r + h, y_new)).  The value is NaN
    when a stage left the finite range.
    """
    y2 = y + h * _A21 * k1
    if not math.isfinite(y2):
        return _STAGE_OVERFLOW
    x = r + _C2 * h
    w = 1.0 - x * x
    if w <= 0.0:
        raise _singular(x)
    k2 = (y2 * y2 + 1.0) * (n1 * (x - R) * y2 + math.sqrt(w)) / (k * w)

    y3 = y + h * _A31 * k1 + h * _A32 * k2
    if not math.isfinite(y3):
        return _STAGE_OVERFLOW
    x = r + _C3 * h
    w = 1.0 - x * x
    if w <= 0.0:
        raise _singular(x)
    k3 = (y3 * y3 + 1.0) * (n1 * (x - R) * y3 + math.sqrt(w)) / (k * w)

    y4 = y + h * _A41 * k1 + h * _A42 * k2 + h * _A43 * k3
    if not math.isfinite(y4):
        return _STAGE_OVERFLOW
    x = r + _C4 * h
    w = 1.0 - x * x
    if w <= 0.0:
        raise _singular(x)
    k4 = (y4 * y4 + 1.0) * (n1 * (x - R) * y4 + math.sqrt(w)) / (k * w)

    y5 = y + h * _A51 * k1 + h * _A52 * k2 + h * _A53 * k3 + h * _A54 * k4
    if not math.isfinite(y5):
        return _STAGE_OVERFLOW
    x = r + _C5 * h
    w = 1.0 - x * x
    if w <= 0.0:
        raise _singular(x)
    k5 = (y5 * y5 + 1.0) * (n1 * (x - R) * y5 + math.sqrt(w)) / (k * w)

    y6 = y + h * _A61 * k1 + h * _A62 * k2 + h * _A63 * k3 + h * _A64 * k4 + h * _A65 * k5
    if not math.isfinite(y6):
        return _STAGE_OVERFLOW
    x = r + h
    w = 1.0 - x * x
    if w <= 0.0:
        raise _singular(x)
    a = n1 * (x - R)
    sq = math.sqrt(w)
    kw = k * w
    k6 = (y6 * y6 + 1.0) * (a * y6 + sq) / kw

    y7 = (y + h * _A71 * k1 + h * _A72 * k2 + h * _A73 * k3 + h * _A74 * k4
          + h * _A75 * k5 + h * _A76 * k6)
    if not math.isfinite(y7):
        return _STAGE_OVERFLOW
    k7 = (y7 * y7 + 1.0) * (a * y7 + sq) / kw

    err = (0.0 + _E1 * k1 + _E2 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5
           + _E6 * k6 + _E7 * k7)
    return y7, err * h, k7


def _dp5_u(n1: float, R: float, k: float, sign: float, r: float, y: float,
           k1: float, h: float) -> tuple[float, float, float]:
    """:func:`_dp5_psi` for u = 1/psi^2 on the branch sgn psi = ``sign``.

    The right-hand side is ``phase.u_rhs`` inlined, its clamp of u at zero
    included; the returns are those of :func:`_dp5_psi`.
    """
    y2 = y + h * _A21 * k1
    if not math.isfinite(y2):
        return _STAGE_OVERFLOW
    x = r + _C2 * h
    w = 1.0 - x * x
    if w <= 0.0:
        raise _singular(x)
    su = math.sqrt(0.0 if y2 < 0.0 else y2)
    k2 = -2.0 * (1.0 + y2) * (n1 * (x - R) + sign * math.sqrt(w) * su) / (k * w)

    y3 = y + h * _A31 * k1 + h * _A32 * k2
    if not math.isfinite(y3):
        return _STAGE_OVERFLOW
    x = r + _C3 * h
    w = 1.0 - x * x
    if w <= 0.0:
        raise _singular(x)
    su = math.sqrt(0.0 if y3 < 0.0 else y3)
    k3 = -2.0 * (1.0 + y3) * (n1 * (x - R) + sign * math.sqrt(w) * su) / (k * w)

    y4 = y + h * _A41 * k1 + h * _A42 * k2 + h * _A43 * k3
    if not math.isfinite(y4):
        return _STAGE_OVERFLOW
    x = r + _C4 * h
    w = 1.0 - x * x
    if w <= 0.0:
        raise _singular(x)
    su = math.sqrt(0.0 if y4 < 0.0 else y4)
    k4 = -2.0 * (1.0 + y4) * (n1 * (x - R) + sign * math.sqrt(w) * su) / (k * w)

    y5 = y + h * _A51 * k1 + h * _A52 * k2 + h * _A53 * k3 + h * _A54 * k4
    if not math.isfinite(y5):
        return _STAGE_OVERFLOW
    x = r + _C5 * h
    w = 1.0 - x * x
    if w <= 0.0:
        raise _singular(x)
    su = math.sqrt(0.0 if y5 < 0.0 else y5)
    k5 = -2.0 * (1.0 + y5) * (n1 * (x - R) + sign * math.sqrt(w) * su) / (k * w)

    y6 = y + h * _A61 * k1 + h * _A62 * k2 + h * _A63 * k3 + h * _A64 * k4 + h * _A65 * k5
    if not math.isfinite(y6):
        return _STAGE_OVERFLOW
    x = r + h
    w = 1.0 - x * x
    if w <= 0.0:
        raise _singular(x)
    a = n1 * (x - R)
    ssq = sign * math.sqrt(w)
    kw = k * w
    su = math.sqrt(0.0 if y6 < 0.0 else y6)
    k6 = -2.0 * (1.0 + y6) * (a + ssq * su) / kw

    y7 = (y + h * _A71 * k1 + h * _A72 * k2 + h * _A73 * k3 + h * _A74 * k4
          + h * _A75 * k5 + h * _A76 * k6)
    if not math.isfinite(y7):
        return _STAGE_OVERFLOW
    su = math.sqrt(0.0 if y7 < 0.0 else y7)
    k7 = -2.0 * (1.0 + y7) * (a + ssq * su) / kw

    err = (0.0 + _E1 * k1 + _E2 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5
           + _E6 * k6 + _E7 * k7)
    return y7, err * h, k7


def _locate_pole(n1: float, R: float, k: float, sign: float, r0: float, u0: float,
                 d0: float, r1: float, u1: float, d1: float) -> float:
    """Zero of u = 1/psi^2 on an accepted step from u0 > 0 to u1 <= 0.

    The step's cubic Hermite model brackets the root and bisection finds
    it; Newton iterations on the step itself, re-taken from r0 to each
    estimate, then polish it.  The model alone is only as good as a cubic
    fit of u, which near the pole carries a (pole distance)^(3/2) term.
    """
    lo, hi = min(r0, r1), max(r0, r1)
    x = _bisect(lambda t: _hermite_eval(r0, r1, u0, u1, d0, d1, t), lo, hi, tol=ROOT_TOL)
    for _ in range(POLE_NEWTON_ITERS):
        u, _err, du = _dp5_u(n1, R, k, sign, r0, u0, d0, x - r0)
        if not (math.isfinite(u) and du != 0.0):
            break
        x_next = min(hi, max(lo, x - u / du))
        if x_next == x:
            break
        x = x_next
    return x


def _hermite_eval(x0: float, x1: float, y0: float, y1: float,
                  d0: float, d1: float, x: float) -> float:
    """Cubic Hermite value on [x0, x1] at x (floats, or arrays elementwise)."""
    h = x1 - x0
    s = (x - x0) / h
    s2 = s * s
    s3 = s2 * s
    return (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * h * d0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * h * d1
    )


def _find_crossings(p: SolitonParams, r: np.ndarray, psi: np.ndarray,
                    dpsi: np.ndarray) -> tuple[Crossing, ...]:
    """Zero and guide-curve crossings of the sampled orbit.

    Sign changes are found over the whole sample array; a segment-local
    cubic Hermite model then refines each bracketed one by bisection.  A
    sample sitting exactly on a curve is a crossing itself.  Segments
    straddling the guide-curve pole at r = R are skipped for the eta scan
    (the sign of psi - eta flips there without a crossing).
    """
    def root(i: int, curve: Callable[[float], float]) -> float:
        """Where the Hermite model of psi on segment i meets the curve."""
        x0, x1 = float(r[i]), float(r[i + 1])
        y0, y1 = float(psi[i]), float(psi[i + 1])
        d0, d1 = float(dpsi[i]), float(dpsi[i + 1])
        return _bisect(lambda x: _hermite_eval(x0, x1, y0, y1, d0, d1, x) - curve(x),
                       x0, x1, tol=ROOT_TOL)

    out: list[Crossing] = []

    pos = psi > 0.0
    on = psi == 0.0
    for i in np.flatnonzero(on):
        out.append(Crossing(kind=CROSSING_ZERO, r=float(r[i])))
    for i in np.flatnonzero(~on[:-1] & ~on[1:] & (pos[:-1] != pos[1:])):
        out.append(Crossing(kind=CROSSING_ZERO, r=root(i, lambda x: 0.0)))

    s = psi - _eta_samples(p, r)
    clear = ~((r[:-1] <= p.R) & (p.R <= r[1:]))
    pos = s > 0.0
    on = s == 0.0
    for i in np.flatnonzero(clear & on[:-1]):
        out.append(Crossing(kind=CROSSING_ETA, r=float(r[i])))
    for i in np.flatnonzero(clear & ~on[:-1] & ~on[1:] & (pos[:-1] != pos[1:])):
        out.append(Crossing(kind=CROSSING_ETA, r=root(i, lambda x: eta(p, x))))

    out.sort(key=lambda c: c.r)
    return tuple(out)


def _profile_slopes(k: int, r: np.ndarray, psi: np.ndarray,
                    dpsi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V' = psi / (k sqrt(1-r^2)) and its derivative
    V'' = psi' / (k sqrt(1-r^2)) + psi r / (k (1-r^2)^(3/2)) at the samples."""
    sq = np.sqrt(1.0 - r * r)
    return psi / (k * sq), dpsi / (k * sq) + psi * r / (k * sq**3)


def maximal_trace(
    p: SolitonParams,
    seed: PhasePoint,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trace:
    """Bidirectional maximal run through ``seed`` with derived columns.

    Every accepted sample of the left and right runs is merged, the seed
    once, on a strictly increasing r grid; the profile derivative and (by
    trapezoid quadrature, gauged to v = 0 at the seed) the profile itself
    are attached, and zero / guide-curve crossings are located.
    """
    left = integrate_from(p, seed, -1, cfg)
    right = integrate_from(p, seed, +1, cfg)

    r = np.concatenate([left.r[::-1][:-1], right.r])
    psi = np.concatenate([left.psi[::-1][:-1], right.psi])
    dpsi = np.concatenate([left.dpsi[::-1][:-1], right.dpsi])

    vprime, dvprime = _profile_slopes(p.k, r, psi, dpsi)
    # Trapezoid with the Hermite endpoint correction h^2/12 (f'_0 - f'_1);
    # the derivative of vprime comes for free from the stored slope
    # derivatives, and the correction buys two orders in the sample spacing.
    h_i = np.diff(r)
    dv = 0.5 * (vprime[1:] + vprime[:-1]) * h_i \
        - h_i * h_i / 12.0 * (dvprime[1:] - dvprime[:-1])
    v = np.concatenate([[0.0], np.cumsum(dv)])
    v -= v[len(left.r) - 1]

    crossings = _find_crossings(p, r, psi, dpsi)

    stats = StepStats(
        accepted=left.stats.accepted + right.stats.accepted,
        rejected=left.stats.rejected + right.stats.rejected,
        min_step=min((s for s in (left.stats.min_step, right.stats.min_step) if s > 0.0),
                     default=0.0),
        max_step=max(left.stats.max_step, right.stats.max_step),
    )
    return Trace(
        params=p, seed=seed, cfg=cfg,
        r=r, psi=psi, dpsi=dpsi, vprime=vprime, v=v,
        left_event=left.event, right_event=right.event,
        crossings=crossings, step_stats=stats,
    )


def psi_at(trace: Trace, r: float | np.ndarray) -> float | np.ndarray:
    """Dense-output value of psi at points of the trace span (scalar or array).

    Each point is evaluated on the cubic Hermite model of its bracketing
    sample segment; a one-sample trace returns its sample.
    """
    x = np.asarray(r, dtype=float)
    if not np.all((trace.r[0] <= x) & (x <= trace.r[-1])):
        raise ValueError(f"r={r} outside trace span [{trace.r[0]}, {trace.r[-1]}]")
    if len(trace.r) == 1:
        val = np.full(x.shape, trace.psi[0])
    else:
        i = np.minimum(np.searchsorted(trace.r, x, side="right"), len(trace.r) - 1) - 1
        val = _hermite_eval(trace.r[i], trace.r[i + 1], trace.psi[i], trace.psi[i + 1],
                            trace.dpsi[i], trace.dpsi[i + 1], x)
    return float(val) if x.ndim == 0 else val


def endpoint_vprime_extrapolated(
    p: SolitonParams,
    which: int,
    cfg: IntegratorConfig | None = None,
    epsilons: Sequence[float] = (1e-5, 1e-6, 1e-7),
) -> float:
    """Endpoint derivative measured by seeding at several offsets and
    extrapolating to offset zero.

    Each run covers the short side from the endpoint seed to the stop radius;
    the measured derivatives converge linearly in the offset, so polynomial
    extrapolation through (epsilon_i, measurement_i) at epsilon = 0 (Neville)
    removes the offset error.  The default config tightens tol to 1e-12: the
    measurement divides psi by sqrt(1 - r^2) ~ sqrt(epsilon), so the
    integration error is magnified as the offsets shrink.
    """
    if cfg is None:
        cfg = IntegratorConfig(tol=1e-12)
    if len(epsilons) < 2:
        raise ValueError("need at least two offsets to extrapolate")
    xs = list(epsilons)
    ys = []
    for eps in xs:
        seed = endpoint_seed(p, which, eps)
        half = integrate_from(p, seed, which, cfg)
        if half.event.kind != REGULAR_ENDPOINT:
            raise RuntimeError(
                f"endpoint run at epsilon={eps} terminated with {half.event.kind}"
            )
        ys.append(half.event.endpoint_vprime)
    # Neville tableau evaluated at 0.
    tab = list(ys)
    m = len(xs)
    for level in range(1, m):
        for i in range(m - level):
            tab[i] = (xs[i + level] * tab[i] - xs[i] * tab[i + 1]) / (xs[i + level] - xs[i])
    return tab[0]


def event_to_dict(e: TerminationEvent) -> dict:
    d = {"kind": e.kind, "location": e.location}
    if e.endpoint_vprime is not None:
        d["endpoint_vprime"] = e.endpoint_vprime
    return d


def trace_to_csv(trace: Trace, stream) -> None:
    """Write the sample table as CSV with 17 significant digits."""
    cells = np.column_stack((trace.r, trace.psi, trace.vprime, trace.v)).ravel().tolist()
    body = "%.17g,%.17g,%.17g,%.17g\n" * len(trace.r) % tuple(cells)
    stream.write("r,psi,vprime,v\n" + body)


def trace_to_json(trace: Trace) -> dict:
    """Run envelope: parameters, seed, config, events, crossings, stats."""
    return {
        "params": params_to_dict(trace.params),
        "seed": {"r": trace.seed.r, "psi": trace.seed.psi},
        "cfg": dataclasses.asdict(trace.cfg),
        "events": {
            "left": event_to_dict(trace.left_event),
            "right": event_to_dict(trace.right_event),
        },
        "crossings": [{"kind": c.kind, "r": c.r} for c in trace.crossings],
        "step_stats": dataclasses.asdict(trace.step_stats),
        "n_samples": int(len(trace.r)),
        "r_span": [float(trace.r[0]), float(trace.r[-1])],
    }
