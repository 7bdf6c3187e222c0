"""Independent verification routes: PDE residuals and structure identities.

Everything here checks the integrated profiles and the closed-form inputs
against routes that do not share code with the integrator:

* the full nonlinear graph operator, evaluated by finite differences, which
  must equal 1 on a translating-soliton graph;
* the reduced profile ODE as a plain algebraic residual in (r, V', V'');
* the defining identities of the two concrete isoparametric families
  (a linear height and a signed coordinate-split quadric), both as spherical
  finite-difference checks and as exact ambient polynomial algebra.

Spherical derivatives are computed on the degree-0 homogeneous extension
u~(y) = u(y/|y|).  On the unit sphere the extension's radial derivative
vanishes identically, so the ambient gradient of u~ is automatically
tangential, the trace of its ambient Hessian is the spherical Laplacian, and
grad(|grad u~|^2) . grad u~ needs no curvature correction (the radial part of
the outer gradient is orthogonal to the tangential inner one).  One code path
therefore serves both the flat and the spherical residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import BPoly

from .catalog import SolitonParams, alpha, beta
from .integrator import Trace
from .phase import vprime_rhs

AMBIENT_EUCLIDEAN = "euclidean"
AMBIENT_SPHERE = "sphere"

ISO_K1 = "K1"
ISO_K2 = "K2"


@dataclass(frozen=True)
class IsoparametricFn:
    """One of the two concrete isoparametric families on the unit n-sphere.

    K1: r(x) = x_{n+1}, the linear height; one curvature of multiplicity
        n - 1, so k = 1 and m1 = m2 = n - 1.
    K2: r(x) = sum_{i <= l} x_i^2 - sum_{i > l} x_i^2 with 1 <= l <= n;
        k = 2 with (m1, m2) = (n - l, l - 1).

    The ambient polynomial h extends r off the sphere; it is homogeneous of
    degree k and satisfies |grad h|^2 = k^2 |x|^(2k-2) and
    Lap h = ((m2-m1)/2) k^2 |x|^(k-2) exactly.
    """

    kind: str
    n: int
    l: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (ISO_K1, ISO_K2):
            raise ValueError(f"kind must be {ISO_K1!r} or {ISO_K2!r}, got {self.kind!r}")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.kind == ISO_K2:
            if self.l is None or not 1 <= self.l <= self.n:
                raise ValueError(f"K2 needs 1 <= l <= n, got l={self.l}")
        elif self.l is not None:
            raise ValueError("K1 takes no split index l")

    @property
    def k(self) -> int:
        return 1 if self.kind == ISO_K1 else 2

    @property
    def multiplicities(self) -> tuple[int, int]:
        if self.kind == ISO_K1:
            return (self.n - 1, self.n - 1)
        return (self.n - self.l, self.l - 1)


def iso_poly(f: IsoparametricFn, x: np.ndarray) -> float:
    """Ambient polynomial h at a point of R^{n+1} (any radius); on the unit
    sphere this is the isoparametric level r."""
    if f.kind == ISO_K1:
        return float(x[-1])
    s = float(np.dot(x[: f.l], x[: f.l]))
    return s - float(np.dot(x[f.l :], x[f.l :]))


def iso_poly_grad(f: IsoparametricFn, x: np.ndarray) -> np.ndarray:
    """Exact ambient gradient of h."""
    if f.kind == ISO_K1:
        g = np.zeros_like(x)
        g[-1] = 1.0
        return g
    g = 2.0 * x.copy()
    g[f.l :] *= -1.0
    return g


def iso_poly_lap(f: IsoparametricFn, x: np.ndarray) -> float:
    """Exact ambient Laplacian of h (constant for both families)."""
    if f.kind == ISO_K1:
        return 0.0
    return 4.0 * f.l - 2.0 * (f.n + 1)


def theta_of_level(t: float) -> float:
    """Geodesic colatitude of the K2 level set r = t: arccos sqrt((1+t)/2)."""
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"level must be in [-1, 1], got {t}")
    return math.acos(math.sqrt(0.5 * (1.0 + t)))


def level_of_theta(theta: float) -> float:
    """Inverse of :func:`theta_of_level`: t = cos(2 theta)."""
    if not 0.0 <= theta <= 0.5 * math.pi:
        raise ValueError(f"colatitude must be in [0, pi/2], got {theta}")
    return math.cos(2.0 * theta)


@dataclass(frozen=True)
class GraphSample:
    """A graph u over sample points, differentiated by finite differences.

    ambient is "euclidean" (points in R^n) or "sphere" (unit points in
    R^{n+1}, checked to 1e-12).  u is a callable on single points; on the
    sphere it is only ever evaluated at unit vectors (the FD wrapper
    renormalizes its probes).  Callers must keep the points at least a few
    fd_step away from any singularity of u.
    """

    ambient: str
    points: np.ndarray
    u: Callable[[np.ndarray], float]
    fd_step: float = 1e-4

    def __post_init__(self) -> None:
        if self.ambient not in (AMBIENT_EUCLIDEAN, AMBIENT_SPHERE):
            raise ValueError(f"unknown ambient {self.ambient!r}")
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (N, d) array")
        object.__setattr__(self, "points", pts)
        if not self.fd_step > 0.0:
            raise ValueError(f"fd_step must be positive, got {self.fd_step}")
        if self.ambient == AMBIENT_SPHERE:
            norms = np.linalg.norm(pts, axis=1)
            worst = float(np.max(np.abs(norms - 1.0)))
            if worst > 1e-12:
                raise ValueError(f"sphere points must be unit vectors, worst |.|-1 = {worst:.3e}")


@dataclass(frozen=True)
class ResidualReport:
    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def max_deviation_from(self, target: float) -> float:
        return float(np.max(np.abs(self.values - target)))

    def mean_deviation_from(self, target: float) -> float:
        return float(np.mean(np.abs(self.values - target)))


def _fd_gradient(u: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    d = len(x)
    g = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        g[i] = (u(x + e) - u(x - e)) / (2.0 * h)
    return g


def _fd_hessian(u: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    d = len(x)
    H = np.empty((d, d))
    u0 = u(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        H[i, i] = (u(x + ei) - 2.0 * u0 + u(x - ei)) / (h * h)
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            H[i, j] = H[j, i] = (
                u(x + ei + ej) - u(x + ei - ej) - u(x - ei + ej) + u(x - ei - ej)
            ) / (4.0 * h * h)
    return H


def _fd_gradient4(u: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    d = len(x)
    g = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        g[i] = (-u(x + 2 * e) + 8 * u(x + e) - 8 * u(x - e) + u(x - 2 * e)) / (12.0 * h)
    return g


def _fd_laplacian4(u: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> float:
    d = len(x)
    u0 = u(x)
    total = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        total += (
            -u(x + 2 * e) + 16 * u(x + e) - 30.0 * u0 + 16 * u(x - e) - u(x - 2 * e)
        ) / (12.0 * h * h)
    return total


def _graph_operator(u: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> float:
    """Mean-curvature graph operator sqrt(1+|Du|^2) div(Du/sqrt(1+|Du|^2)),
    expanded as Lap u - (Du . Hess u . Du) / (1 + |Du|^2)."""
    g = _fd_gradient(u, x, h)
    H = _fd_hessian(u, x, h)
    return float(np.trace(H) - g @ H @ g / (1.0 + g @ g))


def soliton_residual(sample: GraphSample) -> ResidualReport:
    """Pointwise residual of the graph operator; equals 1 on soliton graphs.

    On the sphere the operator is applied to the degree-0 homogeneous
    extension (see module docstring), so probes never leave the callable's
    domain and no projection or correction terms appear.
    """
    if sample.ambient == AMBIENT_SPHERE:
        base = sample.u
        u = lambda y: base(y / np.linalg.norm(y))
    else:
        u = sample.u
    vals = np.array([_graph_operator(u, x, sample.fd_step) for x in sample.points])
    if not np.all(np.isfinite(vals)):
        raise RuntimeError(
            "non-finite residuals: points too close to a singularity of u, "
            "or fd_step incompatible with the sample"
        )
    return ResidualReport(values=vals)


def ode_residual_at(p: SolitonParams, r: float, vprime: float, vsecond: float | None = None) -> float:
    """Residual 2 a V'' - a (a' - 2 b) V'^3 - 2 a V'^2 + 2 b V' - 2 of the
    reduced profile equation, with a = alpha(r), b = beta(r), a' = -2 k^2 r.

    With V'' supplied by the evolution law (the default), this vanishes
    identically in exact arithmetic; the float residual measures pure
    cancellation noise.
    """
    if vsecond is None:
        vsecond = vprime_rhs(p, r, vprime)
    a = alpha(p, r)
    b = beta(p, r)
    aprime = -2.0 * p.k * p.k * r
    return (
        2.0 * a * vsecond
        - a * (aprime - 2.0 * b) * vprime**3
        - 2.0 * a * vprime * vprime
        + 2.0 * b * vprime
        - 2.0
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


@dataclass(frozen=True)
class IdentityReport:
    grad_sphere_max_err: float
    lap_sphere_max_err: float
    grad_ambient_max_err: float
    lap_ambient_max_err: float
    n_points: int


def isoparametric_identities(
    f: IsoparametricFn,
    n_points: int = 1000,
    seed: int = 0,
    fd_step: float = 1e-3,
) -> IdentityReport:
    """Check the defining identities of the family at random points.

    Spherical route (4th-order finite differences on the degree-0 extension,
    at random unit vectors):

        |grad_S r|^2 = k^2 (1 - r^2),     Lap_S r = ((m2-m1)/2) k^2 - k(n+k-1) r.

    Ambient route (exact polynomial algebra, at random points with radii in
    [0.5, 2]):

        |grad h|^2 = k^2 |x|^(2k-2),      Lap h = ((m2-m1)/2) k^2 |x|^(k-2).
    """
    rng = np.random.default_rng(seed)
    d = f.n + 1
    k = f.k
    m1, m2 = f.multiplicities
    half_gap = 0.5 * (m2 - m1)

    pts = rng.normal(size=(n_points, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)

    ext = lambda y: iso_poly(f, y / np.linalg.norm(y))
    grad_err = 0.0
    lap_err = 0.0
    for x in pts:
        t = iso_poly(f, x)
        g = _fd_gradient4(ext, x, fd_step)
        grad_err = max(grad_err, abs(float(g @ g) - k * k * (1.0 - t * t)))
        lap = _fd_laplacian4(ext, x, fd_step)
        lap_ref = half_gap * k * k - k * (f.n + k - 1) * t
        lap_err = max(lap_err, abs(lap - lap_ref))

    radii = rng.uniform(0.5, 2.0, size=n_points)
    amb = pts * radii[:, None]
    agrad_err = 0.0
    alap_err = 0.0
    for x in amb:
        rho2 = float(x @ x)
        g = iso_poly_grad(f, x)
        agrad_err = max(agrad_err, abs(float(g @ g) - k * k * rho2 ** (k - 1)))
        alap_err = max(
            alap_err,
            abs(iso_poly_lap(f, x) - half_gap * k * k * rho2 ** ((k - 2) / 2.0)),
        )
    return IdentityReport(
        grad_sphere_max_err=grad_err,
        lap_sphere_max_err=lap_err,
        grad_ambient_max_err=agrad_err,
        lap_ambient_max_err=alap_err,
        n_points=n_points,
    )


def grim_reaper(x: np.ndarray) -> float:
    """The planar soliton graph u = -log cos(x_d) on |x_d| < pi/2."""
    return -math.log(math.cos(float(x[-1])))


def graph_from_trace(p: SolitonParams, trace: Trace, f: IsoparametricFn) -> Callable[[np.ndarray], float]:
    """Graph function u = V o r on the sphere from an integrated profile.

    V is interpolated as a C^2 piecewise quintic matching (v, V', V'') at
    every sample: the derivative columns are exact (V' definitionally from
    psi, V'' from the slope derivative), so the finite-difference probes in
    :func:`soliton_residual` see no curvature kinks at sample boundaries.
    f must have the parameter set's k.
    """
    if f.k != p.k:
        raise ValueError(f"family has k={f.k} but parameters have k={p.k}")
    sq = np.sqrt(1.0 - trace.r**2)
    dvprime = trace.dpsi / (p.k * sq) + trace.psi * trace.r / (p.k * sq**3)
    spline = BPoly.from_derivatives(
        trace.r, np.column_stack([trace.v, trace.vprime, dvprime])
    )
    lo, hi = float(trace.r[0]), float(trace.r[-1])

    def u(x: np.ndarray) -> float:
        t = iso_poly(f, x)
        if not lo <= t <= hi:
            raise ValueError(f"level r={t} outside integrated span [{lo}, {hi}]")
        return float(spline(t))

    return u


def sphere_points_in_band(
    f: IsoparametricFn,
    t_lo: float,
    t_hi: float,
    n_points: int,
    seed: int = 0,
) -> np.ndarray:
    """Random unit vectors whose isoparametric level lies in [t_lo, t_hi].

    Rejection sampling from the uniform sphere measure; raises if the band is
    so thin that acceptance stalls.
    """
    if not -1.0 <= t_lo < t_hi <= 1.0:
        raise ValueError(f"need -1 <= t_lo < t_hi <= 1, got [{t_lo}, {t_hi}]")
    rng = np.random.default_rng(seed)
    out = np.empty((n_points, f.n + 1))
    have = 0
    for _ in range(1000):
        batch = rng.normal(size=(max(4 * n_points, 256), f.n + 1))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        levels = np.array([iso_poly(f, x) for x in batch])
        good = batch[(levels >= t_lo) & (levels <= t_hi)]
        take = min(len(good), n_points - have)
        out[have : have + take] = good[:take]
        have += take
        if have == n_points:
            return out
    raise RuntimeError(f"band [{t_lo}, {t_hi}] too thin: rejection sampling stalled")
