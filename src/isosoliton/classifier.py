"""Seven-type shape taxonomy of maximal profile runs.

A complete maximal trace lands in exactly one of seven qualitative types,
read off its termination pair and its zero crossing:

    ====  ==================  ==================  =================
    type  left termination    right termination   zero crossing
    ====  ==================  ==================  =================
    I     blow-up to -inf     blow-up to +inf     at R (within tol)
    II    blow-up to -inf     blow-up to +inf     left of R
    III   blow-up to -inf     blow-up to +inf     right of R
    IV    blow-up to +inf     blow-up to +inf     none (psi > 0)
    V     blow-up to -inf     blow-up to -inf     none (psi < 0)
    VI    regular at -1       blow-up to +inf     none
    VII   blow-up to -inf     regular at +1       none
    ====  ==================  ==================  =================

Every combination outside the table is reported as Unlisted, a first-class
verdict rather than an error (a both-endpoints-regular run, for example,
would land there).  The same roman numeral names the slope curve (psi level,
written I''..VII''), the profile derivative (I'..VII'), and the profile
itself (I..VII); the three labels always travel together.

For k in {1, 2, 3} the type also determines how the graph's domain sits in
the sphere; :func:`domain_report` spells that out, including whether the
domain contains the focal varieties r^{-1}(-1) and r^{-1}(+1) (exactly the
type VI and VII cases respectively).
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .catalog import SolitonParams, params_to_dict
from .integrator import (
    BLOWUP_MINUS,
    BLOWUP_PLUS,
    BUDGET_EXHAUSTED,
    CROSSING_ZERO,
    REGULAR_ENDPOINT,
    IntegratorConfig,
    TerminationEvent,
    Trace,
    event_to_dict,
    maximal_trace,
    psi_at,
)
from .phase import PhasePoint
from .verify import theta_of_level

ROMANS = ("I", "II", "III", "IV", "V", "VI", "VII")
UNLISTED = "Unlisted"

PSI_TYPES = tuple(f"{t}''" for t in ROMANS)
VPRIME_TYPES = tuple(f"{t}'" for t in ROMANS)
V_TYPES = ROMANS

DEFAULT_CROSSING_TOL = 1e-3


@dataclass(frozen=True)
class Evidence:
    """The classification inputs, kept for audit and domain reporting."""

    left_event: TerminationEvent
    right_event: TerminationEvent
    zero_crossings: tuple[float, ...]
    psi_min: float
    psi_max: float
    psi_at_R: float | None


@dataclass(frozen=True)
class ShapeType:
    """Type verdict at all three levels, plus the crossing that decided it."""

    psi_type: str
    vprime_type: str
    v_type: str
    zero_crossing: float | None
    evidence: Evidence | None = None

    @property
    def is_unlisted(self) -> bool:
        return self.v_type == UNLISTED


def type_correspondence(psi_type: str) -> tuple[str, str]:
    """Slope-level label -> (derivative-level, profile-level) labels."""
    if psi_type == UNLISTED:
        return (UNLISTED, UNLISTED)
    if psi_type not in PSI_TYPES:
        raise ValueError(f"unknown slope-level type {psi_type!r}")
    i = PSI_TYPES.index(psi_type)
    return (VPRIME_TYPES[i], V_TYPES[i])


def _shape(index: int | None, zero_crossing: float | None, ev: Evidence) -> ShapeType:
    if index is None:
        return ShapeType(UNLISTED, UNLISTED, UNLISTED, zero_crossing, ev)
    return ShapeType(
        psi_type=PSI_TYPES[index],
        vprime_type=VPRIME_TYPES[index],
        v_type=V_TYPES[index],
        zero_crossing=zero_crossing,
        evidence=ev,
    )


def check_crossing_tol(tol: float) -> float:
    """``tol`` if it can be a crossing-at-R half-width: finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"crossing tol must be finite and >= 0, got {tol}")
    return tol


def classify(trace: Trace, tol: float = DEFAULT_CROSSING_TOL) -> ShapeType:
    """Assign the trace its shape type from events and crossings.

    ``tol`` is the half-width of the crossing-at-R band separating type I
    from II/III (see :func:`check_crossing_tol`).  Budget-exhausted traces
    are incomplete and raise; every complete trace classifies (possibly as
    Unlisted).
    """
    check_crossing_tol(tol)
    le, re = trace.left_event, trace.right_event
    if le.kind == BUDGET_EXHAUSTED or re.kind == BUDGET_EXHAUSTED:
        raise ValueError(
            "trace is incomplete (budget exhausted); increase max_steps before classifying"
        )
    R = trace.params.R
    zeros = tuple(c.r for c in trace.crossings if c.kind == CROSSING_ZERO)
    psi_at_R = None
    if trace.r[0] <= R <= trace.r[-1]:
        psi_at_R = psi_at(trace, R)
    ev = Evidence(
        left_event=le,
        right_event=re,
        zero_crossings=zeros,
        psi_min=float(np.min(trace.psi)),
        psi_max=float(np.max(trace.psi)),
        psi_at_R=psi_at_R,
    )

    if le.kind == BLOWUP_MINUS and re.kind == BLOWUP_PLUS and len(zeros) == 1:
        z = zeros[0]
        if abs(z - R) <= tol:
            return _shape(0, z, ev)
        if z < R - tol:
            return _shape(1, z, ev)
        return _shape(2, z, ev)
    if le.kind == BLOWUP_PLUS and re.kind == BLOWUP_PLUS and not zeros and ev.psi_min > 0.0:
        return _shape(3, None, ev)
    if le.kind == BLOWUP_MINUS and re.kind == BLOWUP_MINUS and not zeros and ev.psi_max < 0.0:
        return _shape(4, None, ev)
    if le.kind == REGULAR_ENDPOINT and le.location == -1.0 and re.kind == BLOWUP_PLUS:
        return _shape(5, None, ev)
    if le.kind == BLOWUP_MINUS and re.kind == REGULAR_ENDPOINT and re.location == 1.0:
        return _shape(6, None, ev)
    return _shape(None, zeros[0] if len(zeros) == 1 else None, ev)


@dataclass(frozen=True)
class DomainReport:
    """How the graph's domain sits inside the sphere, for k in {1, 2, 3}."""

    k: int
    v_type: str
    contains_focal_minus: bool
    contains_focal_plus: bool
    description: dict


def domain_report(p: SolitonParams, shape: ShapeType) -> DomainReport:
    """Geometric domain statement determined by the shape type.

    k = 1: membership of the two poles (the focal points of the height
    function).  k = 2: the colatitude interval of the leaf family, with
    closure flags; interval endpoints need the blow-up locations and are
    None when the shape carries no evidence.  k = 3: whether the domain is a
    union of principal orbits only or reaches a singular orbit.
    """
    if p.k not in (1, 2, 3):
        raise ValueError(f"domain statements are available for k in {{1, 2, 3}}, got k={p.k}")
    if shape.is_unlisted:
        raise ValueError("no domain statement for an Unlisted shape")
    idx = V_TYPES.index(shape.v_type)
    minus = shape.v_type == "VI"
    plus = shape.v_type == "VII"

    left_loc = right_loc = None
    if shape.evidence is not None:
        left_loc = shape.evidence.left_event.location
        right_loc = shape.evidence.right_event.location

    if p.k == 1:
        desc = {
            "p_in_domain": plus,
            "q_in_domain": minus,
            "p": "north pole, level r = +1",
            "q": "south pole, level r = -1",
        }
    elif p.k == 2:
        # Colatitude decreases with the level, so the r-interval endpoints
        # swap roles: theta_lo comes from the right event.
        if idx <= 4:  # I..V: open interval between the two blow-up levels
            theta_lo = theta_of_level(right_loc) if right_loc is not None else None
            theta_hi = theta_of_level(left_loc) if left_loc is not None else None
            closed_lo = closed_hi = False
        elif minus:  # VI: reaches the theta = pi/2 focal variety
            theta_lo = theta_of_level(right_loc) if right_loc is not None else None
            theta_hi = 0.5 * math.pi
            closed_lo, closed_hi = False, True
        else:  # VII: reaches the theta = 0 focal variety
            theta_lo = 0.0
            theta_hi = theta_of_level(left_loc) if left_loc is not None else None
            closed_lo, closed_hi = True, False
        desc = {
            "theta_lo": theta_lo,
            "theta_hi": theta_hi,
            "closed_lo": closed_lo,
            "closed_hi": closed_hi,
        }
    else:
        principal_only = idx <= 4
        if principal_only:
            statement = (
                "domain is a union of principal leaves over an open interval "
                "of regular levels; it stays inside the open chamber"
            )
        else:
            which = "r = -1" if minus else "r = +1"
            statement = (
                "domain reaches the singular leaf at the focal level "
                f"{which}; its closure meets the chamber wall"
            )
        desc = {
            "principal_orbits_only": principal_only,
            "meets_focal_minus": minus,
            "meets_focal_plus": plus,
            "statement": statement,
        }
    return DomainReport(
        k=p.k,
        v_type=shape.v_type,
        contains_focal_minus=minus,
        contains_focal_plus=plus,
        description=desc,
    )


def shape_to_dict(shape: ShapeType) -> dict:
    d: dict = {
        "psi": shape.psi_type,
        "vprime": shape.vprime_type,
        "v": shape.v_type,
    }
    if shape.zero_crossing is not None:
        d["zero_crossing"] = shape.zero_crossing
    return d


def classification_report(trace: Trace, shape: ShapeType,
                          domain: DomainReport | None = None) -> dict:
    """JSON-ready record of one classified run."""
    rep = {
        "params": params_to_dict(trace.params),
        "seed": {"r": trace.seed.r, "psi": trace.seed.psi},
        "type": shape_to_dict(shape),
        "events": {
            "left": event_to_dict(trace.left_event),
            "right": event_to_dict(trace.right_event),
        },
        "crossings": [{"kind": c.kind, "r": c.r} for c in trace.crossings],
    }
    if shape.evidence is not None and shape.evidence.psi_at_R is not None:
        rep["psi_at_R"] = shape.evidence.psi_at_R
    if domain is not None:
        rep["domain"] = dataclasses.asdict(domain)
    return rep


def grid_seeds(
    r_range: tuple[float, float] = (-0.9, 0.9),
    psi_range: tuple[float, float] = (-5.0, 5.0),
    nr: int = 21,
    npsi: int = 21,
) -> list[PhasePoint]:
    """Row-major rectangular seed grid, deterministic order."""
    rs = np.linspace(r_range[0], r_range[1], nr)
    psis = np.linspace(psi_range[0], psi_range[1], npsi)
    return [PhasePoint(float(r), float(s)) for r in rs for s in psis]


@dataclass(frozen=True)
class SweepEntry:
    seed: PhasePoint
    shape: ShapeType | None
    error: str | None


@dataclass(frozen=True)
class SweepResult:
    params: SolitonParams
    entries: tuple[SweepEntry, ...]
    histogram: dict[str, int]
    unlisted: tuple[PhasePoint, ...]
    errors: tuple[tuple[PhasePoint, str], ...]

    @property
    def n_seeds(self) -> int:
        return len(self.entries)


# What a numeric failure of one run raises: per-seed data in a sweep, exit 3
# on the command line.  Any other exception is a programming error and
# propagates.
NUMERIC_FAILURES = (ValueError, RuntimeError, ArithmeticError)


def _sweep_one(args: tuple[SolitonParams, PhasePoint, IntegratorConfig, float]) -> SweepEntry:
    p, seed, cfg, tol = args
    try:
        shape = classify(maximal_trace(p, seed, cfg), tol=tol)
        return SweepEntry(seed=seed, shape=shape, error=None)
    except NUMERIC_FAILURES as exc:
        return SweepEntry(seed=seed, shape=None, error=f"{type(exc).__name__}: {exc}")


def sweep(
    p: SolitonParams,
    seeds: list[PhasePoint],
    cfg: IntegratorConfig = IntegratorConfig(),
    tol: float = DEFAULT_CROSSING_TOL,
    workers: int = 1,
) -> SweepResult:
    """Classify a batch of seeds; collect per-seed failures instead of raising.

    ``workers`` > 1 distributes the integrations over processes; results are
    returned in seed order either way.  A bad ``tol`` raises before any seed
    runs.
    """
    check_crossing_tol(tol)
    jobs = [(p, s, cfg, tol) for s in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_sweep_one, jobs, chunksize=8))
    else:
        entries = [_sweep_one(j) for j in jobs]

    histogram: dict[str, int] = {}
    unlisted: list[PhasePoint] = []
    errors: list[tuple[PhasePoint, str]] = []
    for e in entries:
        if e.error is not None:
            errors.append((e.seed, e.error))
            continue
        histogram[e.shape.v_type] = histogram.get(e.shape.v_type, 0) + 1
        if e.shape.is_unlisted:
            unlisted.append(e.seed)
    return SweepResult(
        params=p,
        entries=tuple(entries),
        histogram=histogram,
        unlisted=tuple(unlisted),
        errors=tuple(errors),
    )


def sweep_to_dict(result: SweepResult) -> dict:
    """JSON-ready sweep summary (histogram, unlisted seeds, failures)."""
    return {
        "params": params_to_dict(result.params),
        "n_seeds": result.n_seeds,
        "histogram": dict(sorted(result.histogram.items())),
        "unlisted": [{"r": s.r, "psi": s.psi} for s in result.unlisted],
        "errors": [
            {"seed": {"r": s.r, "psi": s.psi}, "error": msg}
            for s, msg in result.errors
        ],
        "types": [
            {
                "seed": {"r": e.seed.r, "psi": e.seed.psi},
                "type": shape_to_dict(e.shape) if e.shape else None,
            }
            for e in result.entries
        ],
    }
