"""Event-aware adaptive integration of the slope equation.

The slope equation is integrated with an embedded Dormand-Prince 5(4) pair
under three hard behaviors that a generic ODE driver does not provide in the
form needed here:

* the step is capped by half the distance to the nearest focal level, so the
  walk can approach r = +-1 without ever evaluating the singular right-hand
  side outside (-1, 1);
* blow-up is a first-class termination.  Once an accepted step lands at
  |psi| > ``TAIL_ENTER`` = 4 where |(n-1)(r - R) psi| >= 2 sqrt(1 - r^2)
  (the tail guard), the walk swaps variable and value: the tail carries r
  as a function of s = 1/psi (``phase.s_rhs``), and hands back to psi once
  |psi| < ``TAIL_LEAVE`` = 1 or the guard fails.  The guard keeps the
  denominator of dr/ds at least half its first term, so no zero or
  guide-curve crossing falls in the tail.  A pole b != R is the regular
  point s = 0, r = b, and the tail lands on it as the psi walk lands on its
  stop radius: first on |s| = ``S_LAND``, which is the last sample, then on
  s = 0, whose r is the blow-up location.  In the tail the error norm is
  tol * (1 + |r|), the step is capped so that its change of r obeys the
  caps above, and a step whose change of r exceeds them is rejected.  Two
  fallbacks report the last accepted sample instead: |psi| above
  ``blowup_threshold``, and the step collapsing below ``STEP_COLLAPSE``
  while the graph slope exceeds ``BLOWUP_SOFT`` and |psi| is still growing.
  The second ends runs jammed against r = +-1, where psi can stay moderate
  up to the last step;
* reaching a focal level regularly is also a termination, with the profile
  derivative measured at the final sample.

Endpoint approach uses an absolute gap tolerance (``ENDPOINT_TOL``) plus a
relative rule for runs that *start* within ``ENDPOINT_START_WINDOW`` of a
focal level: the regular orbit into the endpoint is a separatrix, and
integrating toward the endpoint amplifies the O(epsilon) seeding error like
a power of (epsilon/gap), so a fixed absolute gap is unreachable from a
coarse seed.  Covering a fixed fraction of the initial gap instead (stop at
``ENDPOINT_COVER`` of it) makes the measured endpoint derivative converge
linearly in epsilon, which ``endpoint_vprime_extrapolated`` then cancels
by extrapolating from the offsets ``ENDPOINT_OFFSETS``.

The stepping kernels ``_dp5`` (psi in r) and ``_dp5_s`` (r in s) are the
Dormand-Prince stages unrolled with ``phase.psi_rhs`` and ``phase.s_rhs``
inlined.  Each line repeats the floating-point operations of its function
in the same order, so a step is bit for bit the tableau walked over it, and
those functions stay the reference (the tests hold the kernels to them).

``_integrate_lanes`` is the lockstep walk a large sweep block runs: it
advances many (seed, direction) lanes at once, one attempted psi step of
every running lane per iteration, with numpy arrays in place of the scalar
loop of :func:`integrate_from`.  Its contract is that every lane's HalfTrace
is byte for byte the one ``integrate_from`` returns.  So each stage repeats
the floating-point operations of ``_dp5`` in the same order (elementwise
IEEE arithmetic and sqrt round as Python's do); min and max are
``np.where`` on the scalar code's comparison, never ``np.minimum`` or
``np.maximum``; and the step factor ``err_norm ** -0.2`` is
``np.float_power``, which matches Python's ``**``, where ``np.power`` may
take a SIMD path that differs in the last bit.  A lane whose step meets the
tail entry leaves the lockstep, and ``_walk``, the scalar walk that
``integrate_from`` runs too, resumes it from that state.  The other rules
around the stepping are stated once, as functions both walks call: how a
run starts (``_start``), the tail entry (``_tail_guard``), each exit
(``_endpoint_event``, ``_blowup_event``, ``_collapse_event`` and
``_budget_event``), and the step counts (``_step_stats``).  Single traces
keep the scalar walk, which is also the lockstep's reference in the tests.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .catalog import SolitonParams, params_to_dict
from .phase import PhasePoint, _bisect, _eta_samples, eta, psi_rhs, s_rhs

REGULAR_ENDPOINT = "RegularEndpoint"
BLOWUP_PLUS = "BlowUpPlus"
BLOWUP_MINUS = "BlowUpMinus"
BUDGET_EXHAUSTED = "BudgetExhausted"

CROSSING_ZERO = "zero"
CROSSING_ETA = "eta"

# |psi| above which an accepted psi step enters the blow-up tail, if the
# tail guard holds there, and below which the tail hands back to psi.
TAIL_ENTER = 4.0
TAIL_LEAVE = 1.0
# |s| = 1/|psi| the tail lands on before it lands on the pole s = 0, so the
# last sample of a run that ends at a pole sits at |psi| = 1/S_LAND.
S_LAND = 1e-3

# Bracket width at which crossing bisection stops: about ten ulps for |r|
# near 1, and a bounded iteration count near r = 0, where doubles are dense.
ROOT_TOL = 1e-15
# Newton steps that polish a zero crossing on the step from its left sample.
CROSSING_NEWTON_ITERS = 3

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
# Seeding offsets that endpoint_vprime_extrapolated extrapolates to zero.
ENDPOINT_OFFSETS = (1e-5, 1e-6, 1e-7)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tunables for the adaptive walk.

    tol                per-step local error tolerance, mixed abs/rel:
                       tol * (1 + |psi|) while psi is carried, and
                       tol * (1 + |r|) on r while the blow-up tail carries
                       r as a function of s = 1/psi (from |psi| >
                       TAIL_ENTER = 4 under the tail guard until |psi| <
                       TAIL_LEAVE = 1 or the guard fails).
    blowup_threshold   |psi| at which blow-up is declared outright, at the
                       last accepted sample (a fallback: the tail normally
                       lands on the pole s = 0 first).
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
            # as in PhasePoint: a numpy float32 would run the walk in float32
            object.__setattr__(self, name, float(value))
        if type(self.max_steps) is not int or self.max_steps < 1:
            raise ValueError(f"the step budget must be a positive int, got {self.max_steps!r}")


@dataclass(frozen=True)
class TerminationEvent:
    """Why a directed run stopped.

    ``endpoint_vprime`` is set only for RegularEndpoint events and holds the
    profile derivative psi/(k sqrt(1-r^2)) measured at the last accepted
    sample.  ``location`` is +-1 exactly for RegularEndpoint; for a blow-up
    it is the pole, the r at which the tail lands on s = 1/psi = 0, beyond
    the last sample, or the last accepted r when a fallback exit fired; for
    BudgetExhausted it is the last accepted r.
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


@dataclass(frozen=True, eq=False)
class HalfTrace:
    """Samples of one directed run, in integration order.

    Compares and hashes by identity, like Trace: its array fields have no
    single truth value.
    """

    params: SolitonParams
    seed: PhasePoint
    direction: int
    r: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    event: TerminationEvent
    stats: StepStats


@dataclass(frozen=True, eq=False)
class Trace:
    """A maximal bidirectional run, samples strictly increasing in r.

    vprime is definitionally psi/(k sqrt(1-r^2)); v is the profile
    recovered by quadrature of vprime with gauge v = 0 at the seed, which
    must be one of the samples: in r, or in s = 1/psi over the segments of
    a blow-up tail (see ``_profile_increments``).  crossings are the zero
    and guide-curve crossings of psi, located on its Hermite model and, for
    zeros, polished on the integration step.  Two traces compare and hash
    by identity, since numpy arrays have no single truth value.
    """

    params: SolitonParams
    seed: PhasePoint
    cfg: IntegratorConfig
    r: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    vprime: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    left_event: TerminationEvent
    right_event: TerminationEvent
    crossings: tuple[Crossing, ...] = field(init=False)
    step_stats: StepStats

    def __post_init__(self) -> None:
        r = self.r
        at_seed = int(np.searchsorted(r, self.seed.r))
        if at_seed == len(r) or r[at_seed] != self.seed.r:
            raise ValueError(f"the seed level r={self.seed.r} is not a sample of the trace")
        vprime, dvprime = _profile_slopes(self.params.k, r, self.psi, self.dpsi)
        dv = _profile_increments(self.params, r, self.psi, vprime, dvprime)
        v = np.concatenate([[0.0], np.cumsum(dv)])
        v -= v[at_seed]
        object.__setattr__(self, "vprime", vprime)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "crossings", _find_crossings(self.params, r, self.psi, self.dpsi))


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
# What the kernel returns once a stage leaves the finite range.
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


def _start(r: float, direction: int, max_step: float) -> tuple[float, float, float] | None:
    """How a run from level ``r`` toward the focal level ``direction`` starts:
    the stop radius, the bound on the landed gap and the first step, or None
    when ``r`` is already within ``ENDPOINT_TOL`` of the focal level."""
    if direction not in (-1, 1):
        raise ValueError(f"direction must be -1 or +1, got {direction!r}")
    endpoint = float(direction)
    gap0 = abs(endpoint - r)
    if gap0 <= ENDPOINT_TOL:
        return None
    relative_rule = gap0 <= ENDPOINT_START_WINDOW
    stop_gap = max(ENDPOINT_TOL, ENDPOINT_COVER * gap0 if relative_rule else 0.0)
    # Landing exactly on the stop radius keeps the endpoint-derivative
    # measurement a smooth function of the seeding offset, which the
    # extrapolation in the endpoint-law checks relies on.  The slack of a
    # few ulp of 1.0 on the landed gap is the absolute rounding of
    # |endpoint - r| with r near +-1.
    r_stop = endpoint - direction * stop_gap
    return r_stop, stop_gap + 1e-15, direction * min(max_step, 0.25 * gap0, 1e-3)


def _endpoint_event(k: float, endpoint: float, r: float, psi: float) -> TerminationEvent:
    """RegularEndpoint at ``endpoint``, with V' measured at the sample (r, psi)."""
    return TerminationEvent(kind=REGULAR_ENDPOINT, location=endpoint,
                            endpoint_vprime=psi / (k * math.sqrt(1.0 - r * r)))


def _blowup_event(positive: bool, location: float) -> TerminationEvent:
    return TerminationEvent(kind=BLOWUP_PLUS if positive else BLOWUP_MINUS,
                            location=location)


def _budget_event(r: float) -> TerminationEvent:
    """BudgetExhausted at the last accepted level ``r``."""
    return TerminationEvent(kind=BUDGET_EXHAUSTED, location=r)


def _collapse_event(k: float, r: float, psi: float, prev_abs_psi: float) -> TerminationEvent:
    """The exit of a run whose step collapsed at the sample (r, psi).

    The trigger is the graph slope, not psi: a pole sitting close to r = +-1
    collapses the step while psi is still moderate, but psi / (k sqrt(1-r^2))
    is already enormous there.
    """
    slope = abs(psi) / (k * math.sqrt(max(1.0 - r * r, 1e-300)))
    if slope > BLOWUP_SOFT and abs(psi) >= prev_abs_psi:
        return _blowup_event(psi > 0.0, r)
    return _budget_event(r)


def _step_stats(accepted: int, rejected: int, hmin: float, hmax: float) -> StepStats:
    """Step counts; the extreme |step| sizes read 0 for a run that accepted none."""
    return StepStats(accepted=accepted, rejected=rejected,
                     min_step=hmin if accepted else 0.0,
                     max_step=hmax if accepted else 0.0)


def _tail_guard(n1: float, R: float, r, psi):
    """Whether the blow-up tail may carry (r, psi): |(n-1)(r - R) psi| >=
    2 sqrt(1 - r^2), so the denominator (n-1)(r - R) + sqrt(1 - r^2) s of
    dr/ds is at least half its first term.  Squared, so that floats and
    numpy arrays (elementwise) take the same operations."""
    t = n1 * (r - R) * psi
    return t * t >= 4.0 * (1.0 - r * r)


@dataclass(slots=True)
class _Run:
    """A directed run in progress: its settings, the state after its last
    accepted step (``h`` is the next step of r), the attempts it has left,
    its step counts and the samples it stored."""

    p: SolitonParams
    cfg: IntegratorConfig
    endpoint: float
    r_stop: float
    slack: float
    r: float
    psi: float
    dpsi: float
    h: float
    prev_abs_psi: float
    attempts: int
    accepted: int
    rejected: int
    hmin: float
    hmax: float
    rs: list[float]
    ys: list[float]
    ds: list[float]


def integrate_from(
    p: SolitonParams,
    seed: PhasePoint,
    direction: int,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> HalfTrace:
    """Run the adaptive walk from ``seed`` in one direction until an event.

    The walk carries psi, and in the blow-up tail r as a function of
    s = 1/psi (entered above ``TAIL_ENTER`` where the tail guard holds, left
    below ``TAIL_LEAVE`` or where it fails); samples are always stored as
    (r, psi, psi').
    """
    r, psi = seed.r, seed.psi
    endpoint = float(direction)
    start = _start(r, direction, cfg.max_step)
    dpsi = psi_rhs(p, r, psi)
    if start is None:
        return HalfTrace(params=p, seed=seed, direction=direction, r=np.array([r]),
                         psi=np.array([psi]), dpsi=np.array([dpsi]),
                         event=_endpoint_event(float(p.k), endpoint, r, psi),
                         stats=_step_stats(0, 0, 0.0, 0.0))
    r_stop, slack, h = start
    run = _Run(p, cfg, endpoint, r_stop, slack, r, psi, dpsi, h, abs(psi), cfg.max_steps,
               0, 0, math.inf, 0.0, [r], [psi], [dpsi])
    event = _walk(run, False)
    return HalfTrace(
        params=p, seed=seed, direction=direction,
        r=np.asarray(run.rs), psi=np.asarray(run.ys), dpsi=np.asarray(run.ds),
        event=event, stats=_step_stats(run.accepted, run.rejected, run.hmin, run.hmax),
    )


def _walk(run: _Run, tail: bool) -> TerminationEvent:
    """Advance ``run`` to its exit, psi steps (``_body``) and tail steps
    (``_tail``) in turn, starting with the tail if ``tail``.  Every scalar
    run starts here, and the lockstep resumes here a lane that enters the
    tail."""
    while True:
        event = _tail(run) if tail else _body(run)
        if event is not None:
            return event
        tail = not tail


def _body(run: _Run) -> TerminationEvent | None:
    """Psi steps from the run's state until an exit, which is returned, or
    until an accepted step meets the tail entry, which returns None."""
    p, cfg = run.p, run.cfg
    # as floats: the kernel then multiplies float by float, the same values
    # as int by float without CPython's mixed-type path
    k, n1, R = float(p.k), float(p.n - 1), p.R
    tol, max_step, threshold = cfg.tol, cfg.max_step, cfg.blowup_threshold
    endpoint, r_stop, slack = run.endpoint, run.r_stop, run.slack
    r, y, k1, h, prev_abs_psi = run.r, run.psi, run.dpsi, run.h, run.prev_abs_psi
    rs, ys, ds = run.rs, run.ys, run.ds
    accepted, rejected, hmin_seen, hmax_seen = run.accepted, run.rejected, run.hmin, run.hmax
    event = None
    attempt = 0
    # min/max are spelled as comparisons that pick the same operand.
    for attempt in range(1, run.attempts + 1):
        hcap = 0.5 * abs(endpoint - r)
        if not hcap < max_step:
            hcap = max_step
        if abs(h) > hcap:
            h = endpoint * hcap
        if (r + h - r_stop) * endpoint >= 0.0:
            h = r_stop - r

        y_new, err, d_new = _dp5(n1, R, k, r, y, k1, h)
        if math.isfinite(y_new) and math.isfinite(err):
            scale = abs(y_new)
            if not scale > abs(y):
                scale = abs(y)
            err_norm = abs(err) / (tol * (1.0 + scale))
        else:
            err_norm = math.inf

        enter = False
        if err_norm <= 1.0:
            accepted += 1
            ah = abs(h)
            if ah < hmin_seen:
                hmin_seen = ah
            if ah > hmax_seen:
                hmax_seen = ah
            prev_abs_psi = abs(y)
            r, y, k1 = r + h, y_new, d_new
            rs.append(r)
            ys.append(y)
            ds.append(k1)

            if abs(y) >= threshold:
                event = _blowup_event(y > 0.0, r)
                break
            if abs(endpoint - r) <= slack:
                event = _endpoint_event(k, endpoint, r, y)
                break
            enter = abs(y) > TAIL_ENTER and _tail_guard(n1, R, r, y)
        else:
            rejected += 1

        if err_norm == 0.0:
            h *= 5.0
        else:
            factor = 0.9 * err_norm ** -0.2
            h *= 5.0 if factor >= 5.0 else factor if factor > 0.2 else 0.2

        if abs(h) < STEP_COLLAPSE:
            event = _collapse_event(k, r, y, prev_abs_psi)
            break
        if enter:
            break
    else:
        event = _budget_event(r)

    run.r, run.psi, run.dpsi, run.h, run.prev_abs_psi = r, y, k1, h, prev_abs_psi
    run.attempts -= attempt
    run.accepted, run.rejected, run.hmin, run.hmax = accepted, rejected, hmin_seen, hmax_seen
    return event


def _tail(run: _Run) -> TerminationEvent | None:
    """Steps of r in s = 1/psi from the run's state, toward the pole s = 0
    or away from it, until an exit, which is returned, or until |psi| falls
    below ``TAIL_LEAVE`` or the tail guard fails, which returns None.

    The step sigma of s is capped so that its change of r, predicted as
    sigma * dr/ds times ``grow``, the ratio of the change to that product on
    the last attempt, obeys the caps of the psi walk; a step whose change of
    r exceeds them is rejected.  (Away from the pole |dr/ds| grows along a
    step, and without ``grow`` most capped steps would be rejected once.)
    Toward the pole the tail lands on |s| = ``S_LAND`` and then on s = 0.
    """
    p, cfg = run.p, run.cfg
    k, n1, R = float(p.k), float(p.n - 1), p.R
    tol, max_step, threshold = cfg.tol, cfg.max_step, cfg.blowup_threshold
    endpoint, slack = run.endpoint, run.slack
    r, psi, dpsi, prev_abs_psi = run.r, run.psi, run.dpsi, run.prev_abs_psi
    rs, ys, ds = run.rs, run.ys, run.ds
    accepted, rejected, hmin_seen, hmax_seen = run.accepted, run.rejected, run.hmin, run.hmax
    s = 1.0 / psi
    k1 = s_rhs(p, s, r)
    sigma = run.h / k1
    # sigma keeps its sign: toward the pole where it opposes s
    toward = sigma * s < 0.0
    grow = 1.0
    event = None
    attempt = 0
    for attempt in range(1, run.attempts + 1):
        hcap = 0.5 * abs(endpoint - r)
        if not hcap < max_step:
            hcap = max_step
        cap = hcap / (abs(k1) * grow)
        if abs(sigma) > cap:
            sigma = math.copysign(cap, sigma)
        s_new = s + sigma
        landing = False
        if toward:
            s_land = math.copysign(S_LAND, s) if abs(s) > S_LAND else 0.0
            if (s_new - s_land) * s <= 0.0:
                sigma, s_new, landing = s_land - s, s_land, True

        r_new, err, d_new = _dp5_s(n1, R, k, s, r, k1, sigma)
        dr = abs(r_new - r)
        if dr > 0.0:  # not NaN
            grow = dr / abs(sigma * k1)
        # a NaN r_new (a stage left the domain) fails the comparison too
        if dr <= hcap and math.isfinite(err):
            scale = abs(r_new)
            if not scale > abs(r):
                scale = abs(r)
            err_norm = abs(err) / (tol * (1.0 + scale))
        else:
            err_norm = math.inf

        leave = False
        if err_norm <= 1.0:
            accepted += 1
            if dr < hmin_seen:
                hmin_seen = dr
            if dr > hmax_seen:
                hmax_seen = dr
            if s_new == 0.0:
                event = _blowup_event(s > 0.0, r_new)
                break
            prev_abs_psi = abs(psi)
            s, r, k1 = s_new, r_new, d_new
            psi = 1.0 / s
            dpsi = psi_rhs(p, r, psi)
            rs.append(r)
            ys.append(psi)
            ds.append(dpsi)

            if abs(psi) >= threshold:
                event = _blowup_event(psi > 0.0, r)
                break
            if abs(endpoint - r) <= slack:
                event = _endpoint_event(k, endpoint, r, psi)
                break
            leave = abs(psi) < TAIL_LEAVE or not _tail_guard(n1, R, r, psi)
        else:
            rejected += 1

        if err_norm == 0.0:
            sigma *= 5.0
        else:
            factor = 0.9 * err_norm ** -0.2
            sigma *= 5.0 if factor >= 5.0 else factor if factor > 0.2 else 0.2
        if landing and err_norm <= 1.0:
            # landed on |s| = S_LAND: the next step aims at the pole
            sigma = -s

        if abs(sigma) < STEP_COLLAPSE:
            event = _collapse_event(k, r, psi, prev_abs_psi)
            break
        if leave:
            break
    else:
        event = _budget_event(r)

    run.r, run.psi, run.dpsi, run.h, run.prev_abs_psi = r, psi, dpsi, sigma * k1, prev_abs_psi
    run.attempts -= attempt
    run.accepted, run.rejected, run.hmin, run.hmax = accepted, rejected, hmin_seen, hmax_seen
    return event


# The Dormand-Prince nodes of stages 2 to 6 (stage 7 shares the last) as a
# column, and the stage weights h * A(i, j) flattened row by row: stage i
# reads its i - 1 weights at _A_ROWS[i - 2].
_NODES = np.array([[_C2], [_C3], [_C4], [_C5], [1.0]])
_A_FLAT = np.array([
    [_A21],
    [_A31], [_A32],
    [_A41], [_A42], [_A43],
    [_A51], [_A52], [_A53], [_A54],
    [_A61], [_A62], [_A63], [_A64], [_A65],
    [_A71], [_A72], [_A73], [_A74], [_A75], [_A76],
])
_A_ROWS = ((0, 1), (1, 3), (3, 6), (6, 10), (10, 15), (15, 21))
_E_COL = np.array([[_E1], [_E2], [_E3], [_E4], [_E5], [_E6], [_E7]])

# Rows of the lockstep state, one column per running lane.  The first four
# are the sample a lane stores once it accepts a step.
(_LANE, _R, _PSI, _DPSI, _H, _PREV, _END, _RSTOP, _SLACK,
 _ACC, _REJ, _HMIN, _HMAX) = range(13)


def _integrate_lanes(p: SolitonParams, lanes: Sequence[tuple[PhasePoint, int]],
                     cfg: IntegratorConfig) -> list[HalfTrace]:
    """``integrate_from(p, seed, direction, cfg)`` for every (seed, direction)
    lane at once, in numpy; the module docstring says why each HalfTrace is
    bit for bit the scalar one.

    Every iteration takes one psi step attempt of every running lane; a lane
    leaves the working arrays when its scalar run would have returned, or
    when it enters the blow-up tail, where ``_walk`` finishes its run.  The
    exits run the scalar code on their lane.  Any exception (a stage at
    |r| >= 1, say) is raised for the whole call, so a caller can fall back
    to ``integrate_from`` per lane.
    """
    k, n1, R = float(p.k), float(p.n - 1), p.R
    tol, max_step, threshold = cfg.tol, cfg.max_step, cfg.blowup_threshold
    n_lanes = len(lanes)
    events: list[TerminationEvent | None] = [None] * n_lanes
    stats: list[StepStats | None] = [None] * n_lanes
    first = np.empty((4, n_lanes))
    columns = []
    for i, (seed, direction) in enumerate(lanes):
        r, y = seed.r, seed.psi
        start = _start(r, direction, max_step)
        k1 = psi_rhs(p, r, y)
        first[:, i] = (i, r, y, k1)
        if start is None:
            events[i] = _endpoint_event(k, float(direction), r, y)
            stats[i] = _step_stats(0, 0, 0.0, 0.0)
            continue
        r_stop, slack, h = start
        columns.append((i, r, y, k1, h, abs(y), float(direction), r_stop, slack,
                        0.0, 0.0, math.inf, 0.0))

    def finish(i: int, event: TerminationEvent, accepted: int, rejected: int,
               hmin: float, hmax: float) -> None:
        events[i] = event
        stats[i] = _step_stats(accepted, rejected, hmin, hmax)

    def counts(col: np.ndarray) -> tuple[int, int, float, float]:
        return int(col[_ACC]), int(col[_REJ]), float(col[_HMIN]), float(col[_HMAX])

    chunks = [first]
    st = np.array(columns, dtype=float).reshape(len(columns), 13).T.copy()
    # Python floats overflow to inf silently where numpy warns.
    with np.errstate(over="ignore", invalid="ignore"):
        for attempt in range(cfg.max_steps):
            if not st.shape[1]:
                break
            r, y, k1, end, r_stop = st[_R], st[_PSI], st[_DPSI], st[_END], st[_RSTOP]

            hcap = 0.5 * np.abs(end - r)
            hcap = np.where(hcap < max_step, hcap, max_step)
            h = st[_H]
            h = np.where(np.abs(h) > hcap, end * hcap, h)
            h = np.where((r + h - r_stop) * end >= 0.0, r_stop - r, h)

            # x-only terms at the five distinct nodes r + c h, last r + h
            x = r + _NODES * h
            w = 1.0 - x * x
            # The scalar kernel raises here too, unless an earlier stage has
            # already left the finite range; raising in that case as well
            # only sends the caller back to integrate_from.
            if not (w > 0.0).all():
                raise _singular(float(x[~(w > 0.0)][0]))
            a = n1 * (x - R)
            sq = np.sqrt(w)
            kw = k * w

            ha = _A_FLAT * h
            ks = np.empty((7, len(h)))
            ks[0] = k1
            for stage, (lo, hi) in enumerate(_A_ROWS):
                terms = ha[lo:hi] * ks[:hi - lo]
                ys = y + terms[0]
                for t in terms[1:]:
                    ys += t
                node = min(stage, 4)
                ks[stage + 1] = (ys * ys + 1.0) * (a[node] * ys + sq[node]) / kw[node]
            y7, k7 = ys, ks[6]
            terms = _E_COL * ks
            err = 0.0 + terms[0]
            for t in terms[1:]:
                err += t
            err *= h

            # A stage that leaves the finite range makes y7 non-finite: every
            # A(i+1, i) is nonzero, and the zero A72 turns an infinite k2
            # into NaN.  So this is the scalar kernel's rejection.
            ay, ay7 = np.abs(y), np.abs(y7)
            scale = np.where(ay7 > ay, ay7, ay)
            err_norm = np.where(np.isfinite(y7) & np.isfinite(err),
                                np.abs(err) / (tol * (1.0 + scale)), np.inf)
            acc = err_norm <= 1.0
            ah = np.abs(h)
            st[_ACC] += acc
            st[_REJ] += ~acc
            st[_HMIN] = np.where(acc & (ah < st[_HMIN]), ah, st[_HMIN])
            st[_HMAX] = np.where(acc & (ah > st[_HMAX]), ah, st[_HMAX])

            st[_PREV] = np.where(acc, np.abs(y), st[_PREV])
            st[_R] = np.where(acc, x[4], r)
            st[_PSI] = np.where(acc, y7, y)
            st[_DPSI] = np.where(acc, k7, k1)
            chunks.append(st[:4, acc])

            factor = 0.9 * np.float_power(err_norm, -0.2)
            factor = np.where(factor >= 5.0, 5.0, np.where(factor > 0.2, factor, 0.2))
            st[_H] = h * np.where(err_norm == 0.0, 5.0, factor)

            # The exits and the tail entry, in the order integrate_from tests
            # them.
            apsi = np.abs(st[_PSI])
            over = acc & (apsi >= threshold)
            landed = acc & (np.abs(end - st[_R]) <= st[_SLACK])
            collapsed = np.abs(st[_H]) < STEP_COLLAPSE
            enter = acc & (apsi > TAIL_ENTER) & _tail_guard(n1, R, st[_R], st[_PSI])
            ends = over | landed | collapsed | enter
            if not ends.any():
                continue
            for j in np.flatnonzero(ends).tolist():
                col = st[:, j]
                i = int(col[_LANE])
                psi_j, r_j = float(col[_PSI]), float(col[_R])
                if over[j]:
                    finish(i, _blowup_event(psi_j > 0.0, r_j), *counts(col))
                elif landed[j]:
                    finish(i, _endpoint_event(k, float(end[j]), r_j, psi_j), *counts(col))
                elif collapsed[j]:
                    finish(i, _collapse_event(k, r_j, psi_j, float(col[_PREV])), *counts(col))
                else:  # the lane enters the tail; the scalar walk resumes it
                    run = _Run(p, cfg, float(end[j]), float(col[_RSTOP]), float(col[_SLACK]),
                               r_j, psi_j, float(col[_DPSI]), float(col[_H]),
                               float(col[_PREV]), cfg.max_steps - 1 - attempt, *counts(col),
                               [], [], [])
                    finish(i, _walk(run, True), run.accepted, run.rejected, run.hmin, run.hmax)
                    chunks.append(np.array([[float(i)] * len(run.rs), run.rs, run.ys, run.ds]))
            st = st[:, ~ends]
    for j in range(st.shape[1]):
        col = st[:, j]
        finish(int(col[_LANE]), _budget_event(float(col[_R])), *counts(col))

    samples = np.concatenate(chunks, axis=1)
    lane = samples[0].astype(np.intp)
    samples = samples[1:, np.argsort(lane, kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(lane, minlength=n_lanes))]).tolist()
    return [
        HalfTrace(params=p, seed=seed, direction=direction,
                  r=samples[0, lo:hi], psi=samples[1, lo:hi], dpsi=samples[2, lo:hi],
                  event=events[i], stats=stats[i])
        for i, ((seed, direction), lo, hi) in enumerate(zip(lanes, bounds, bounds[1:]))
    ]


def _singular(r: float) -> ValueError:
    return ValueError(f"slope equation singular at |r| >= 1, got r={r}")


def _dp5(n1: float, R: float, k: float, r: float, y: float, k1: float,
         h: float) -> tuple[float, float, float]:
    """One Dormand-Prince 5(4) step of psi from (r, y), y' = k1.

    ``n1`` is n - 1, and ``phase.psi_rhs`` is inlined.  Returns the
    fifth-order value at r + h, the embedded error estimate and the
    derivative there (first same as last: the seventh stage sits at
    (r + h, y_new)).  The value is NaN when a stage left the finite range.
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
    # stages 6 and 7 share the node r + h
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


def _dp5_s(n1: float, R: float, k: float, s: float, r: float, k1: float,
           sigma: float) -> tuple[float, float, float]:
    """One Dormand-Prince 5(4) step of the blow-up tail: r as a function of
    s = 1/psi, from (s, r), dr/ds = k1.

    ``n1`` is n - 1, and ``phase.s_rhs`` is inlined.  Returns r at
    s + sigma, the embedded error estimate and dr/ds there.  A stage value
    of r outside (-1, 1), NaN included, or one at which the denominator of
    dr/ds vanishes returns (NaN, inf, NaN), a rejection, where
    ``phase.s_rhs`` raises: the step caps bound the nodes of a psi step but
    not the stage values of r, so such a stage means the step is too long.
    """
    r2 = r + sigma * _A21 * k1
    w = 1.0 - r2 * r2
    if not w > 0.0:
        return _STAGE_OVERFLOW
    x = s + _C2 * sigma
    den = (1.0 + x * x) * (n1 * (r2 - R) + math.sqrt(w) * x)
    if den == 0.0:
        return _STAGE_OVERFLOW
    k2 = -k * w * x / den

    r3 = r + sigma * _A31 * k1 + sigma * _A32 * k2
    w = 1.0 - r3 * r3
    if not w > 0.0:
        return _STAGE_OVERFLOW
    x = s + _C3 * sigma
    den = (1.0 + x * x) * (n1 * (r3 - R) + math.sqrt(w) * x)
    if den == 0.0:
        return _STAGE_OVERFLOW
    k3 = -k * w * x / den

    r4 = r + sigma * _A41 * k1 + sigma * _A42 * k2 + sigma * _A43 * k3
    w = 1.0 - r4 * r4
    if not w > 0.0:
        return _STAGE_OVERFLOW
    x = s + _C4 * sigma
    den = (1.0 + x * x) * (n1 * (r4 - R) + math.sqrt(w) * x)
    if den == 0.0:
        return _STAGE_OVERFLOW
    k4 = -k * w * x / den

    r5 = r + sigma * _A51 * k1 + sigma * _A52 * k2 + sigma * _A53 * k3 + sigma * _A54 * k4
    w = 1.0 - r5 * r5
    if not w > 0.0:
        return _STAGE_OVERFLOW
    x = s + _C5 * sigma
    den = (1.0 + x * x) * (n1 * (r5 - R) + math.sqrt(w) * x)
    if den == 0.0:
        return _STAGE_OVERFLOW
    k5 = -k * w * x / den

    r6 = (r + sigma * _A61 * k1 + sigma * _A62 * k2 + sigma * _A63 * k3 + sigma * _A64 * k4
          + sigma * _A65 * k5)
    w = 1.0 - r6 * r6
    if not w > 0.0:
        return _STAGE_OVERFLOW
    # stages 6 and 7 share the node s + sigma
    x = s + sigma
    xx = 1.0 + x * x
    den = xx * (n1 * (r6 - R) + math.sqrt(w) * x)
    if den == 0.0:
        return _STAGE_OVERFLOW
    k6 = -k * w * x / den

    r7 = (r + sigma * _A71 * k1 + sigma * _A72 * k2 + sigma * _A73 * k3
          + sigma * _A74 * k4 + sigma * _A75 * k5 + sigma * _A76 * k6)
    w = 1.0 - r7 * r7
    if not w > 0.0:
        return _STAGE_OVERFLOW
    den = xx * (n1 * (r7 - R) + math.sqrt(w) * x)
    if den == 0.0:
        return _STAGE_OVERFLOW
    k7 = -k * w * x / den

    err = (0.0 + _E1 * k1 + _E2 * k2 + _E3 * k3 + _E4 * k4 + _E5 * k5
           + _E6 * k6 + _E7 * k7)
    return r7, err * sigma, k7


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
    cubic Hermite model then refines each bracketed one by bisection, and a
    zero is polished by Newton steps on the Dormand-Prince step from the
    segment's left sample (the model is good to about its width to the
    fourth, the step to the integration tol).  A sample sitting exactly on a
    curve is a crossing itself.  Segments straddling the guide-curve pole at
    r = R are skipped for the eta scan (the sign of psi - eta flips there
    without a crossing).
    """
    def root(i: int, curve: Callable[[float], float]) -> float:
        """Where the Hermite model of psi on segment i meets the curve."""
        x0, x1 = float(r[i]), float(r[i + 1])
        y0, y1 = float(psi[i]), float(psi[i + 1])
        d0, d1 = float(dpsi[i]), float(dpsi[i + 1])
        return _bisect(lambda x: _hermite_eval(x0, x1, y0, y1, d0, d1, x) - curve(x),
                       x0, x1, tol=ROOT_TOL)

    def zero(i: int) -> float:
        """The zero of psi on segment i, polished on the step from r[i]."""
        x0, x1 = float(r[i]), float(r[i + 1])
        y0, d0 = float(psi[i]), float(dpsi[i])
        x = root(i, lambda x: 0.0)
        for _ in range(CROSSING_NEWTON_ITERS):
            y, _err, dy = _dp5(n1, p.R, k, x0, y0, d0, x - x0)
            if not (math.isfinite(y) and dy != 0.0):
                break
            x_next = min(x1, max(x0, x - y / dy))
            if x_next == x:
                break
            x = x_next
        return x

    k, n1 = float(p.k), float(p.n - 1)
    out: list[Crossing] = []

    pos = psi > 0.0
    on = psi == 0.0
    for i in np.flatnonzero(on):
        out.append(Crossing(kind=CROSSING_ZERO, r=float(r[i])))
    for i in np.flatnonzero(~on[:-1] & ~on[1:] & (pos[:-1] != pos[1:])):
        out.append(Crossing(kind=CROSSING_ZERO, r=zero(i)))

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


def _profile_increments(p: SolitonParams, r: np.ndarray, psi: np.ndarray,
                        vprime: np.ndarray, dvprime: np.ndarray) -> np.ndarray:
    """Increments of v over the sample segments.

    Each is the trapezoid rule with the Hermite endpoint correction
    h^2/12 (f'_0 - f'_1), which buys two orders in the sample spacing: in r
    on V' and its derivative, and in s = 1/psi on dV/ds and its derivative
    over a tail segment: one whose ends both meet the tail guard with one
    sign of psi, one of them at |psi| > ``TAIL_ENTER``.  There V' is steep
    in r (the tail's samples are sparse in r near a pole) while V is smooth
    in s.  A trace has a handful of tail segments, so they are summed as
    floats, which costs less than numpy's per-call overhead would.
    """
    h = np.diff(r)
    dv = 0.5 * (vprime[1:] + vprime[:-1]) * h - h * h / 12.0 * (dvprime[1:] - dvprime[:-1])
    n1, R = float(p.n - 1), p.R
    steep = np.flatnonzero(np.abs(psi) > TAIL_ENTER).tolist()
    after = -1  # the sample whose slopes are (s1, f1, df1)
    for i in sorted({j - 1 for j in steep if j > 0}.union(j for j in steep if j < len(h))):
        r0, r1, psi0, psi1 = float(r[i]), float(r[i + 1]), float(psi[i]), float(psi[i + 1])
        if not ((psi0 > 0.0) == (psi1 > 0.0) and _tail_guard(n1, R, r0, psi0)
                and _tail_guard(n1, R, r1, psi1)):
            continue
        if i == after:
            s0, f0, df0 = s1, f1, df1
        else:
            s0, f0, df0 = _tail_slopes(p.k, n1, R, r0, psi0)
        after = i + 1
        s1, f1, df1 = _tail_slopes(p.k, n1, R, r1, psi1)
        ds = s1 - s0
        dv[i] = 0.5 * (f1 + f0) * ds - ds * ds / 12.0 * (df1 - df0)
    return dv


def _tail_slopes(k: int, n1: float, R: float, r: float,
                 psi: float) -> tuple[float, float, float]:
    """s = 1/psi, dV/ds = -q / D, with q = sqrt(1-r^2) and
    D = (1+s^2)((n-1)(r-R) + q s), and the derivative of dV/ds along the
    orbit, d/ds = partial_s + (dr/ds) partial_r with dr/ds = -k q^2 s / D,
    at a tail sample (r, psi)."""
    s = 1.0 / psi
    q = math.sqrt(1.0 - r * r)
    a = n1 * (r - R) + q * s
    P = 1.0 + s * s
    D = P * a
    dD_ds = 2.0 * s * a + P * q
    dD_dr = P * (n1 - r * s / q)
    drds = -k * q * q * s / D
    # f = -q/D: f_s = q D_s / D^2, f_r = (r D / q + q D_r) / D^2
    df = (q * dD_ds + (r * D / q + q * dD_dr) * drds) / (D * D)
    return s, -q / D, df


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
    return _assemble(p, seed, cfg, integrate_from(p, seed, -1, cfg),
                     integrate_from(p, seed, +1, cfg))


def _assemble(p: SolitonParams, seed: PhasePoint, cfg: IntegratorConfig,
              left: HalfTrace, right: HalfTrace) -> Trace:
    """The :class:`Trace` of ``maximal_trace`` from its two directed runs."""
    r = np.concatenate([left.r[::-1][:-1], right.r])
    psi = np.concatenate([left.psi[::-1][:-1], right.psi])
    dpsi = np.concatenate([left.dpsi[::-1][:-1], right.dpsi])
    stats = StepStats(
        accepted=left.stats.accepted + right.stats.accepted,
        rejected=left.stats.rejected + right.stats.rejected,
        min_step=min((s for s in (left.stats.min_step, right.stats.min_step) if s > 0.0),
                     default=0.0),
        max_step=max(left.stats.max_step, right.stats.max_step),
    )
    return Trace(
        params=p, seed=seed, cfg=cfg, r=r, psi=psi, dpsi=dpsi,
        left_event=left.event, right_event=right.event, step_stats=stats,
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


def endpoint_vprime_extrapolated(p: SolitonParams, which: int) -> float:
    """Endpoint derivative measured by seeding at the offsets
    ``ENDPOINT_OFFSETS`` and extrapolating to offset zero.

    Each run covers the short side from the endpoint seed to the stop radius;
    the measured derivatives converge linearly in the offset, so polynomial
    extrapolation through (epsilon_i, measurement_i) at epsilon = 0 (Neville)
    removes the offset error.  The runs tighten tol to 1e-12: the
    measurement divides psi by sqrt(1 - r^2) ~ sqrt(epsilon), so the
    integration error is magnified as the offsets shrink.
    """
    cfg = IntegratorConfig(tol=1e-12)
    xs = ENDPOINT_OFFSETS
    tab = []
    for eps in xs:
        seed = endpoint_seed(p, which, eps)
        half = integrate_from(p, seed, which, cfg)
        if half.event.kind != REGULAR_ENDPOINT:
            raise RuntimeError(
                f"endpoint run at epsilon={eps} terminated with {half.event.kind}"
            )
        tab.append(half.event.endpoint_vprime)
    # Neville tableau evaluated at 0.
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
