"""Independent verification routes: PDE residuals and structure identities.

Everything here checks the integrated profiles and the closed-form inputs
against routes that do not share code with the integrator:

* the full nonlinear graph operator, evaluated by finite differences, which
  must equal 1 on a translating-soliton graph;
* the reduced profile ODE as a plain algebraic residual in (r, V', V'');
* the defining identities of the two concrete isoparametric families
  (a linear height and a signed coordinate-split quadric), both as spherical
  finite-difference checks (step ``IDENTITY_FD_STEP``) and as exact ambient
  polynomial algebra.

Spherical derivatives are computed on the degree-0 homogeneous extension
u~(y) = u(y/|y|).  On the unit sphere the extension's radial derivative
vanishes identically, so the ambient gradient of u~ is automatically
tangential, the trace of its ambient Hessian is the spherical Laplacian, and
grad(|grad u~|^2) . grad u~ needs no curvature correction (the radial part of
the outer gradient is orthogonal to the tangential inner one).  One code path
therefore serves both the flat and the spherical residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import SolitonParams, alpha, beta
from .integrator import Trace, _profile_slopes
from .phase import vprime_rhs

AMBIENT_EUCLIDEAN = "euclidean"
AMBIENT_SPHERE = "sphere"

ISO_K1 = "K1"
ISO_K2 = "K2"

# Step of the spherical finite differences in isoparametric_identities.
IDENTITY_FD_STEP = 1e-3


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
        # type(...) is int, as in SolitonParams: 2.0, 1.5 or True passes the
        # range checks, then fails as a numpy shape or index, or sets m2 = 0
        if type(self.n) is not int or self.n < 2:
            raise ValueError(f"n must be an int >= 2, got {self.n!r}")
        if self.l is not None and type(self.l) is not int:
            raise ValueError(f"l must be an int, got {self.l!r}")
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


def iso_poly(f: IsoparametricFn, x: np.ndarray) -> float | np.ndarray:
    """Ambient polynomial h at points of R^{n+1} (any radius); on the unit
    sphere this is the isoparametric level r.

    Coordinates run along axis 0: a point is a (d,) array and a batch of M
    points a (d, M) array, for which the M levels come back as an (M,) array.
    """
    x = np.asarray(x, dtype=float)
    if f.kind == ISO_K1:
        return x[-1]
    head, tail = x[: f.l], x[f.l :]
    return np.sum(head * head, axis=0) - np.sum(tail * tail, axis=0)


def iso_poly_grad(f: IsoparametricFn, x: np.ndarray) -> np.ndarray:
    """Exact ambient gradient of h, with the layout of x (coordinates on
    axis 0)."""
    if f.kind == ISO_K1:
        g = np.zeros_like(x)
        g[-1] = 1.0
        return g
    g = 2.0 * x
    g[f.l :] *= -1.0
    return g


def iso_poly_lap(f: IsoparametricFn, x: np.ndarray) -> float:
    """Exact ambient Laplacian of h (constant for both families)."""
    if f.kind == ISO_K1:
        return 0.0
    return 4.0 * f.l - 2.0 * (f.n + 1)


@dataclass(frozen=True)
class GraphSample:
    """A graph u over sample points, differentiated by finite differences.

    ambient is "euclidean" (points in R^n) or "sphere" (unit points in
    R^{n+1}, checked to 1e-12); points is an (N, d) array, one point a row.
    u is evaluated on whole batches: it takes a (d, M) array with the
    coordinates on axis 0 and returns the M values as an (M,) array, or one
    scalar when u is constant.  On a single (d,) point the same code gives a
    scalar.  On the sphere u only ever sees unit vectors (the stencil
    renormalizes its probes).  Callers must keep the points at least a few
    fd_step away from any singularity of u.
    """

    ambient: str
    points: np.ndarray
    u: Callable[[np.ndarray], float | np.ndarray]
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


def _probe(
    u: Callable[[np.ndarray], float | np.ndarray], X: np.ndarray, h: float, sphere: bool
) -> Callable[..., np.ndarray]:
    """Evaluator of u on shifted copies of the (d, N) point array X.

    ``at((i, s), (j, t), ...)`` is u at X + s h e_i + t h e_j + ..., as an
    (N,) array, from one call of u on the whole batch.  With ``sphere`` the
    probes are first scaled back to the unit sphere, which evaluates the
    degree-0 extension u(y / |y|) of the module docstring.
    """
    N = X.shape[1]

    def at(*steps: tuple[int, float]) -> np.ndarray:
        Y = X.copy()
        for i, s in steps:
            Y[i] += s * h
        if sphere:
            Y /= np.linalg.norm(Y, axis=0)
        return np.broadcast_to(u(Y), (N,))

    return at


def _graph_operator(at: Callable[..., np.ndarray], d: int, h: float) -> np.ndarray:
    """Mean-curvature graph operator sqrt(1+|Du|^2) div(Du/sqrt(1+|Du|^2)),
    expanded as Lap u - (Du . Hess u . Du) / (1 + |Du|^2), at every point of
    the probe evaluator ``at`` by second-order central differences."""
    u0 = at()
    up = [at((i, 1.0)) for i in range(d)]
    um = [at((i, -1.0)) for i in range(d)]
    g = np.array([(up[i] - um[i]) / (2.0 * h) for i in range(d)])
    H = np.empty((d, d, len(u0)))
    for i in range(d):
        H[i, i] = (up[i] - 2.0 * u0 + um[i]) / (h * h)
        for j in range(i + 1, d):
            H[i, j] = H[j, i] = (
                at((i, 1.0), (j, 1.0)) - at((i, 1.0), (j, -1.0))
                - at((i, -1.0), (j, 1.0)) + at((i, -1.0), (j, -1.0))
            ) / (4.0 * h * h)
    lap = np.trace(H)
    gHg = np.einsum("in,ijn,jn->n", g, H, g)
    return lap - gHg / (1.0 + np.sum(g * g, axis=0))


def soliton_residual(sample: GraphSample) -> ResidualReport:
    """Pointwise residual of the graph operator; equals 1 on soliton graphs.

    On the sphere the operator is applied to the degree-0 homogeneous
    extension (see module docstring), so probes never leave the callable's
    domain and no projection or correction terms appear.
    """
    X = np.ascontiguousarray(sample.points.T)
    at = _probe(sample.u, X, sample.fd_step, sample.ambient == AMBIENT_SPHERE)
    vals = _graph_operator(at, X.shape[0], sample.fd_step)
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
) -> IdentityReport:
    """Check the defining identities of the family at random points.

    Spherical route (4th-order finite differences of step
    ``IDENTITY_FD_STEP`` on the degree-0 extension, at random unit vectors):

        |grad_S r|^2 = k^2 (1 - r^2),     Lap_S r = ((m2-m1)/2) k^2 - k(n+k-1) r.

    Ambient route (exact polynomial algebra, at random points with radii in
    [0.5, 2]):

        |grad h|^2 = k^2 |x|^(2k-2),      Lap h = ((m2-m1)/2) k^2 |x|^(k-2).
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    rng = np.random.default_rng(seed)
    d = f.n + 1
    k = f.k
    m1, m2 = f.multiplicities
    half_gap = 0.5 * (m2 - m1)
    h = IDENTITY_FD_STEP

    pts = rng.normal(size=(n_points, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    X = np.ascontiguousarray(pts.T)

    at = _probe(lambda Y: iso_poly(f, Y), X, h, sphere=True)
    t = iso_poly(f, X)
    u0 = at()
    grad_sq = np.zeros(n_points)
    lap = np.zeros(n_points)
    for i in range(d):
        up2, up1, um1, um2 = at((i, 2.0)), at((i, 1.0)), at((i, -1.0)), at((i, -2.0))
        gi = (-up2 + 8 * up1 - 8 * um1 + um2) / (12.0 * h)
        grad_sq += gi * gi
        lap += (-up2 + 16 * up1 - 30.0 * u0 + 16 * um1 - um2) / (12.0 * h * h)
    lap_ref = half_gap * k * k - k * (f.n + k - 1) * t

    radii = rng.uniform(0.5, 2.0, size=n_points)
    amb = X * radii
    rho2 = np.sum(amb * amb, axis=0)
    g = iso_poly_grad(f, amb)
    alap_ref = half_gap * k * k * rho2 ** ((k - 2) / 2.0)

    def worst(err: np.ndarray) -> float:
        return float(np.max(np.abs(err), initial=0.0))

    return IdentityReport(
        grad_sphere_max_err=worst(grad_sq - k * k * (1.0 - t * t)),
        lap_sphere_max_err=worst(lap - lap_ref),
        grad_ambient_max_err=worst(np.sum(g * g, axis=0) - k * k * rho2 ** (k - 1)),
        lap_ambient_max_err=worst(iso_poly_lap(f, amb) - alap_ref),
        n_points=n_points,
    )


def grim_reaper(x: np.ndarray) -> float | np.ndarray:
    """The planar soliton graph u = -log cos(x_d) on |x_d| < pi/2, at a (d,)
    point or at each column of a (d, M) batch."""
    return -np.log(np.cos(x[-1]))


def _quintic_hermite(x: np.ndarray, y: np.ndarray, dy: np.ndarray, d2y: np.ndarray) -> np.ndarray:
    """Bernstein coefficients, as a (6, N-1) array, of the C^2 piecewise
    quintic through (y, y', y'') at every knot of x.

    The same coefficients as ``BPoly.from_derivatives(x, column_stack([y,
    dy, d2y])).c``, operation for operation, but computed for all intervals
    at once instead of in a Python loop over them.
    """
    dx = np.diff(x)
    dx2 = dx**2
    c0 = y[:-1]
    c1 = dy[:-1] / 5.0 * dx + c0
    c2 = d2y[:-1] / 20.0 * dx2 - c0 + 2.0 * c1
    c5 = y[1:]
    c4 = -(dy[1:] / 5.0) * dx + c5
    c3 = d2y[1:] / 20.0 * dx2 + 2.0 * c4 - c5
    return np.array([c0, c1, c2, c3, c4, c5])


def _eval_quintic(c: np.ndarray, x: np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """Value at t of the piecewise quintic with Bernstein coefficients c on
    the knots x, as ``BPoly(c, x)(t)`` gives it up to rounding.

    Interval i holds x[i] <= t < x[i+1], and t == x[-1] falls in the last
    one.  At s = 0 only the c0 term survives and at s = 1 only the c5 term,
    so the value at every knot is the knot's y exactly.  A 0-d t gives a
    scalar.
    """
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    s = (t - x[i]) / (x[i + 1] - x[i])
    r = 1.0 - s
    s2, r2 = s * s, r * r
    cc = c[:, i]
    return (
        cc[0] * (r2 * r2 * r)
        + 5.0 * cc[1] * (s * r2 * r2)
        + 10.0 * cc[2] * (s2 * r2 * r)
        + 10.0 * cc[3] * (s2 * s * r2)
        + 5.0 * cc[4] * (s2 * s2 * r)
        + cc[5] * (s2 * s2 * s)
    )[()]


def graph_from_trace(
    p: SolitonParams, trace: Trace, f: IsoparametricFn
) -> Callable[[np.ndarray], float | np.ndarray]:
    """Graph function u = V o r on the sphere from an integrated profile.

    V is interpolated as a C^2 piecewise quintic matching (v, V', V'') at
    every sample: the derivative columns are exact (V' definitionally from
    psi, V'' from the slope derivative), so the finite-difference probes in
    :func:`soliton_residual` see no curvature kinks at sample boundaries.
    The returned u takes points with coordinates on axis 0, like
    :func:`iso_poly`, and raises ValueError if any point's level is outside
    the integrated span (or NaN).  The trace must be a run of p, and f must
    realize p: the same k, n and multiplicities (m1, m2).
    """
    if trace.params != p:
        raise ValueError("the trace was integrated for other parameters than p")
    if (f.k, f.n, f.multiplicities) != (p.k, p.n, (p.m1, p.m2)):
        raise ValueError(f"family {f} does not realize the parameters {p}")
    if len(trace.r) < 2:
        raise ValueError("a graph needs at least two samples")
    _, dvprime = _profile_slopes(p.k, trace.r, trace.psi, trace.dpsi)
    c = _quintic_hermite(trace.r, trace.v, trace.vprime, dvprime)
    lo, hi = float(trace.r[0]), float(trace.r[-1])

    def u(x: np.ndarray) -> float | np.ndarray:
        t = iso_poly(f, x)
        outside = ~((lo <= t) & (t <= hi))
        if np.any(outside):
            off = np.atleast_1d(t)[np.atleast_1d(outside)]
            worst = off[np.argmax(np.maximum(lo - off, off - hi))]
            raise ValueError(
                f"level r={worst} outside integrated span [{lo}, {hi}] "
                f"({off.size} of {np.size(t)} points)"
            )
        return _eval_quintic(c, trace.r, t)

    return u


def sphere_points_in_band(
    f: IsoparametricFn,
    t_lo: float,
    t_hi: float,
    n_points: int,
    seed: int = 0,
) -> np.ndarray:
    """Random unit vectors whose isoparametric level lies in [t_lo, t_hi],
    as the rows of an (n_points, n+1) array.

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
        levels = iso_poly(f, batch.T)
        good = batch[(levels >= t_lo) & (levels <= t_hi)]
        take = min(len(good), n_points - have)
        out[have : have + take] = good[:take]
        have += take
        if have == n_points:
            return out
    raise RuntimeError(f"band [{t_lo}, {t_hi}] too thin: rejection sampling stalled")
