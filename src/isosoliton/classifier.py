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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

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
    _assemble,
    _integrate_lanes,
    event_to_dict,
    maximal_trace,
    psi_at,
)
from .phase import PhasePoint

ROMANS = ("I", "II", "III", "IV", "V", "VI", "VII")
UNLISTED = "Unlisted"

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
    """Type verdict at all three levels, plus the crossing that decided it;
    the slope and derivative labels are read off the profile label."""

    psi_type: str = field(init=False)
    vprime_type: str = field(init=False)
    v_type: str
    zero_crossing: float | None
    evidence: Evidence

    def __post_init__(self) -> None:
        psi_type = self.v_type if self.is_unlisted else f"{self.v_type}''"
        # raises for a numeral outside I..VII
        object.__setattr__(self, "vprime_type", type_correspondence(psi_type)[0])
        object.__setattr__(self, "psi_type", psi_type)

    @property
    def is_unlisted(self) -> bool:
        return self.v_type == UNLISTED


def type_correspondence(psi_type: str) -> tuple[str, str]:
    """Slope-level label -> (derivative-level, profile-level) labels."""
    if psi_type == UNLISTED:
        return (UNLISTED, UNLISTED)
    v_type = psi_type.removesuffix("''")
    if v_type == psi_type or v_type not in ROMANS:
        raise ValueError(f"unknown slope-level type {psi_type!r}")
    return (f"{v_type}'", v_type)


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
            return ShapeType("I", z, ev)
        if z < R - tol:
            return ShapeType("II", z, ev)
        return ShapeType("III", z, ev)
    if le.kind == BLOWUP_PLUS and re.kind == BLOWUP_PLUS and not zeros and ev.psi_min > 0.0:
        return ShapeType("IV", None, ev)
    if le.kind == BLOWUP_MINUS and re.kind == BLOWUP_MINUS and not zeros and ev.psi_max < 0.0:
        return ShapeType("V", None, ev)
    if le.kind == REGULAR_ENDPOINT and le.location == -1.0 and re.kind == BLOWUP_PLUS:
        return ShapeType("VI", None, ev)
    if le.kind == BLOWUP_MINUS and re.kind == REGULAR_ENDPOINT and re.location == 1.0:
        return ShapeType("VII", None, ev)
    return ShapeType(UNLISTED, zeros[0] if len(zeros) == 1 else None, ev)


def _reaches_focal(v_type: str) -> tuple[bool, bool]:
    """Whether a profile of this type reaches r = -1 and r = +1."""
    return v_type == "VI", v_type == "VII"


@dataclass(frozen=True)
class DomainReport:
    """How the graph's domain sits inside the sphere, for k in {1, 2, 3};
    the focal flags are read off ``v_type``."""

    k: int
    v_type: str
    contains_focal_minus: bool = field(init=False)
    contains_focal_plus: bool = field(init=False)
    description: dict

    def __post_init__(self) -> None:
        minus, plus = _reaches_focal(self.v_type)
        object.__setattr__(self, "contains_focal_minus", minus)
        object.__setattr__(self, "contains_focal_plus", plus)


def theta_of_level(t: float) -> float:
    """Geodesic colatitude of the K2 level set r = t: arccos sqrt((1+t)/2)."""
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"level must be in [-1, 1], got {t}")
    return math.acos(math.sqrt(0.5 * (1.0 + t)))


def domain_report(p: SolitonParams, shape: ShapeType) -> DomainReport:
    """Geometric domain statement determined by the shape type.

    k = 1: membership of the two poles (the focal points of the height
    function).  k = 2: the colatitude interval of the leaf family between
    the levels of the two end events, with closure flags.  k = 3: whether
    the domain is a union of principal orbits only or reaches a singular
    orbit.
    """
    if p.k not in (1, 2, 3):
        raise ValueError(f"domain statements are available for k in {{1, 2, 3}}, got k={p.k}")
    if shape.is_unlisted:
        raise ValueError("no domain statement for an Unlisted shape")
    minus, plus = _reaches_focal(shape.v_type)

    if p.k == 1:
        desc = {
            "p_in_domain": plus,
            "q_in_domain": minus,
            "p": "north pole, level r = +1",
            "q": "south pole, level r = -1",
        }
    elif p.k == 2:
        # The band between the end levels, closed at a focal level reached
        # regularly (a RegularEndpoint sits at exactly -1 or +1).  Colatitude
        # decreases with the level, so theta_lo comes from the right end.
        desc = {
            "theta_lo": theta_of_level(shape.evidence.right_event.location),
            "theta_hi": theta_of_level(shape.evidence.left_event.location),
            "closed_lo": plus,
            "closed_hi": minus,
        }
    else:
        principal_only = not (minus or plus)
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
    return DomainReport(k=p.k, v_type=shape.v_type, description=desc)


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
    if shape.evidence.psi_at_R is not None:
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
    """The entries of a sweep, in seed order, and what they add up to: the
    count of each profile-level type, the seeds that classified Unlisted,
    and the seeds whose run failed, with the failure."""

    params: SolitonParams
    entries: tuple[SweepEntry, ...]
    histogram: dict[str, int] = field(init=False)
    unlisted: tuple[PhasePoint, ...] = field(init=False)
    errors: tuple[tuple[PhasePoint, str], ...] = field(init=False)

    def __post_init__(self) -> None:
        histogram: dict[str, int] = {}
        unlisted: list[PhasePoint] = []
        errors: list[tuple[PhasePoint, str]] = []
        for e in self.entries:
            if e.error is not None:
                errors.append((e.seed, e.error))
                continue
            histogram[e.shape.v_type] = histogram.get(e.shape.v_type, 0) + 1
            if e.shape.is_unlisted:
                unlisted.append(e.seed)
        object.__setattr__(self, "histogram", histogram)
        object.__setattr__(self, "unlisted", tuple(unlisted))
        object.__setattr__(self, "errors", tuple(errors))

    @property
    def n_seeds(self) -> int:
        return len(self.entries)


# What a numeric failure of one run raises: per-seed data in a sweep, exit 3
# on the command line.  Any other exception is a programming error and
# propagates.
NUMERIC_FAILURES = (ValueError, RuntimeError, ArithmeticError)

# A sweep runs its seeds in blocks.  A block of at least LOCKSTEP_MIN_SEEDS
# seeds integrates all its (seed, direction) lanes in one numpy lockstep
# walk; a smaller one integrates seed by seed.  A lockstep iteration costs
# about 130 us of numpy calls however few lanes are left, and a block runs
# as many iterations as its longest lane takes steps.  So the lockstep
# overtakes the per-seed walk at about 50 seeds.  Block time with
# classification, on the shuffled criterion-6 grids (CPython 3.11, numpy
# 2.4, x86-64 with AVX-512): 0.4-0.6x the per-seed speed at 14 seeds,
# 0.8-1.0x at 48, 1.2x at 64, 1.4-1.7x at 111 and 2.9-4.4x at 443.
LOCKSTEP_MIN_SEEDS = 64
# Seeds in one block at most: a lockstep keeps the samples of all its lanes
# until the last lane stops, so this bounds its memory.
LOCKSTEP_MAX_SEEDS = 512
# Seeds per worker process at least: the pool never starts more workers.
_SEEDS_PER_WORKER = 8


def _entry(seed: PhasePoint, tol: float, build: Callable[[], Trace]) -> SweepEntry:
    try:
        return SweepEntry(seed=seed, shape=classify(build(), tol=tol), error=None)
    except NUMERIC_FAILURES as exc:
        return SweepEntry(seed=seed, shape=None, error=f"{type(exc).__name__}: {exc}")


def _sweep_block(args: tuple[SolitonParams, list[PhasePoint], IntegratorConfig, float]
                 ) -> list[SweepEntry]:
    """The sweep entries of a block of seeds.

    A large block integrates in lockstep.  If the lockstep raises, the block
    runs seed by seed instead, so each failure lands on its own seed.
    """
    p, seeds, cfg, tol = args
    if len(seeds) >= LOCKSTEP_MIN_SEEDS:
        try:
            halves = _integrate_lanes(p, [(s, d) for s in seeds for d in (-1, 1)], cfg)
        except NUMERIC_FAILURES:
            pass
        else:
            return [_entry(s, tol, partial(_assemble, p, s, cfg, left, right))
                    for s, left, right in zip(seeds, halves[::2], halves[1::2])]
    return [_entry(s, tol, partial(maximal_trace, p, s, cfg)) for s in seeds]


def sweep(
    p: SolitonParams,
    seeds: list[PhasePoint],
    cfg: IntegratorConfig = IntegratorConfig(),
    tol: float = DEFAULT_CROSSING_TOL,
    workers: int = 1,
) -> SweepResult:
    """Classify a batch of seeds; collect per-seed failures instead of raising.

    The seeds run in contiguous blocks of at most ``LOCKSTEP_MAX_SEEDS``; a
    block of at least ``LOCKSTEP_MIN_SEEDS`` integrates in one lockstep walk,
    with the same results as seed by seed.  ``workers`` counts processes:
    ``workers`` > 1 cuts the seeds into blocks of at most ceil(n / workers),
    the same number for each worker, and hands one block to each pool task.
    A pool starts all its workers at once, so ``workers`` is clamped to the
    CPUs this process may use and to one worker per 8 seeds; one worker runs
    in this process.  Results are returned in seed order either way.  A bad
    ``tol`` or ``workers`` < 1 raises before any seed runs.
    """
    check_crossing_tol(tol)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(workers, cpus, math.ceil(len(seeds) / _SEEDS_PER_WORKER))
    # the same number of blocks per worker, as few as the cap allows, and of
    # near-equal sizes
    rounds = max(1, math.ceil(len(seeds) / (max(1, workers) * LOCKSTEP_MAX_SEEDS)))
    size = max(1, math.ceil(len(seeds) / (max(1, workers) * rounds)))
    jobs = [(p, seeds[i:i + size], cfg, tol) for i in range(0, len(seeds), size)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_sweep_block, jobs))
    else:
        blocks = [_sweep_block(j) for j in jobs]
    return SweepResult(params=p, entries=tuple(e for block in blocks for e in block))


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
