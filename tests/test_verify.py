"""Ground-truth checks: foliation identities, PDE residuals, end-to-end graphs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import BPoly

from isosoliton import (
    AMBIENT_EUCLIDEAN,
    AMBIENT_SPHERE,
    ISO_K1,
    ISO_K2,
    GraphSample,
    IntegratorConfig,
    IsoparametricFn,
    PhasePoint,
    endpoint_seed,
    graph_from_trace,
    grim_reaper,
    iso_poly,
    iso_poly_grad,
    iso_poly_lap,
    isoparametric_identities,
    make_params,
    maximal_trace,
    ode_residual_at,
    soliton_residual,
    sphere_points_in_band,
    theta_of_level,
    vprime_rhs,
)
from isosoliton.integrator import _profile_slopes
from isosoliton.verify import _eval_quintic, _quintic_hermite
from oracles import general_ode_residual

K1N2 = make_params(1, 2, 1, 1)
K2N3 = make_params(2, 3, 1, 1)
SPHERE_CFG = IntegratorConfig(tol=1e-12, max_step=2e-3)


def _criterion8_family(p, f):
    """Criterion 8's graph: the profile regular at r = -1, and its band's top."""
    tr = maximal_trace(p, endpoint_seed(p, -1, 1e-6), SPHERE_CFG)
    return tr, tr.right_event.location - 0.1


# The per-point finite differences that soliton_residual used before it was
# batched, kept as the oracle for the stencil.

def _scalar_fd_gradient(u, x, h):
    d = len(x)
    g = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        g[i] = (u(x + e) - u(x - e)) / (2.0 * h)
    return g


def _scalar_fd_hessian(u, x, h):
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


def _scalar_graph_operator(u, x, h):
    g = _scalar_fd_gradient(u, x, h)
    H = _scalar_fd_hessian(u, x, h)
    return float(np.trace(H) - g @ H @ g / (1.0 + g @ g))


def _scalar_residual(sample):
    u = sample.u
    if sample.ambient == AMBIENT_SPHERE:
        u = lambda y: sample.u(y / np.linalg.norm(y))
    return np.array([_scalar_graph_operator(u, x, sample.fd_step) for x in sample.points])


def _scalar_band(f, t_lo, t_hi, n_points, seed):
    """The band sampler's former per-row level selection."""
    def level(x):
        if f.kind == ISO_K1:
            return float(x[-1])
        return float(np.dot(x[: f.l], x[: f.l])) - float(np.dot(x[f.l :], x[f.l :]))

    rng = np.random.default_rng(seed)
    out = np.empty((n_points, f.n + 1))
    have = 0
    while have < n_points:
        batch = rng.normal(size=(max(4 * n_points, 256), f.n + 1))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        levels = np.array([level(x) for x in batch])
        good = batch[(levels >= t_lo) & (levels <= t_hi)]
        take = min(len(good), n_points - have)
        out[have : have + take] = good[:take]
        have += take
    return out


class TestFamilies:
    def test_k1_values(self):
        f = IsoparametricFn(ISO_K1, 3)
        x = np.array([0.0, 0.0, 0.6, 0.8])
        assert iso_poly(f, x) == pytest.approx(0.8)
        assert f.k == 1
        assert f.multiplicities == (2, 2)

    def test_k2_values(self):
        f = IsoparametricFn(ISO_K2, 3, l=2)
        x = np.array([0.6, 0.0, 0.8, 0.0])
        assert iso_poly(f, x) == pytest.approx(0.36 - 0.64)
        assert f.k == 2
        assert f.multiplicities == (1, 1)

    def test_k2_needs_split(self):
        with pytest.raises(ValueError):
            IsoparametricFn(ISO_K2, 3)
        with pytest.raises(ValueError):
            IsoparametricFn(ISO_K2, 3, l=4)
        with pytest.raises(ValueError):
            IsoparametricFn(ISO_K1, 3, l=1)

    def test_ambient_gradient_exact(self):
        f = IsoparametricFn(ISO_K2, 4, l=2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=5)
            g = iso_poly_grad(f, x)
            # |grad h|^2 = k^2 |x|^(2k-2)
            assert np.dot(g, g) == pytest.approx(
                4.0 * np.dot(x, x), rel=1e-14)
            assert iso_poly_lap(f, x) == pytest.approx(8.0 - 10.0, abs=0)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_level_colatitude_roundtrip(self, t):
        theta = theta_of_level(t)
        assert 0.0 <= theta <= 0.5 * math.pi
        assert math.cos(2.0 * theta) == pytest.approx(t, abs=1e-12)


class TestIdentities:
    def test_k1_passes_tolerances(self):
        rep = isoparametric_identities(IsoparametricFn(ISO_K1, 2), n_points=200)
        assert rep.grad_sphere_max_err < 1e-8
        assert rep.lap_sphere_max_err < 1e-8
        assert rep.grad_ambient_max_err < 1e-12
        assert rep.lap_ambient_max_err < 1e-12

    def test_k2_passes_tolerances(self):
        rep = isoparametric_identities(IsoparametricFn(ISO_K2, 4, l=2), n_points=200)
        assert rep.grad_sphere_max_err < 1e-8
        assert rep.lap_sphere_max_err < 1e-8
        assert rep.grad_ambient_max_err < 1e-12
        assert rep.lap_ambient_max_err < 1e-12


class TestGraphOperator:
    def test_grim_reaper_residual(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.2, 1.2, size=(300, 2))
        rep = soliton_residual(GraphSample(AMBIENT_EUCLIDEAN, pts, grim_reaper))
        assert rep.max_deviation_from(1.0) < 1e-6

    def test_flat_graph_has_zero_operator(self):
        pts = np.random.default_rng(1).uniform(-1.0, 1.0, size=(50, 3))
        rep = soliton_residual(GraphSample(AMBIENT_EUCLIDEAN, pts, lambda x: 0.0))
        assert rep.max_abs == 0.0

    def test_affine_graph_has_zero_operator(self):
        pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(50, 2))
        u = lambda x: 3.0 * x[0] - 2.0 * x[1] + 1.0
        rep = soliton_residual(GraphSample(AMBIENT_EUCLIDEAN, pts, u))
        assert rep.max_abs < 1e-7

    def test_sphere_points_must_be_unit(self):
        bad = np.array([[0.0, 0.0, 1.1]])
        with pytest.raises(ValueError, match="unit"):
            GraphSample(AMBIENT_SPHERE, bad, lambda x: 0.0)

    def test_constant_on_sphere_is_harmonic(self):
        """Degree-0 extension of a constant: every derivative vanishes."""
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(20, 4))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        rep = soliton_residual(GraphSample(AMBIENT_SPHERE, pts, lambda x: 7.5))
        assert rep.max_abs < 1e-9


class TestProfileResidual:
    P24 = make_params(2, 4, 1, 2)

    def test_consistent_second_derivative_gives_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = float(rng.uniform(-0.95, 0.95))
            vp = float(rng.uniform(-5.0, 5.0))
            assert abs(ode_residual_at(self.P24, r, vp)) < 1e-10

    def test_residual_linear_in_second_derivative_error(self):
        p = self.P24
        r, vp = 0.3, 1.2
        vs = vprime_rhs(p, r, vp)
        delta = 1e-3
        got = ode_residual_at(p, r, vp, vsecond=vs + delta)
        a = p.k * p.k * (1.0 - r * r)
        assert got == pytest.approx(2.0 * a * delta, rel=1e-9)

    def test_trace_residual_small(self):
        p = make_params(1, 2, 1, 1)
        tr = maximal_trace(p, PhasePoint(0.0, 0.0), IntegratorConfig())
        rep = general_ode_residual(p, tr)
        assert rep.max_abs < 1e-9
        assert rep.n > 100


class TestEndToEnd:
    def test_band_sampler_respects_band(self):
        f = IsoparametricFn(ISO_K1, 2)
        rng = np.random.default_rng(6)
        pts = sphere_points_in_band(f, -0.5, 0.5, 200, rng)
        assert pts.shape == (200, 3)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        levels = pts[:, -1]
        assert np.all(levels >= -0.5) and np.all(levels <= 0.5)

    def test_band_sampler_deterministic(self):
        f = IsoparametricFn(ISO_K1, 2)
        a = sphere_points_in_band(f, -0.5, 0.5, 50, np.random.default_rng(9))
        b = sphere_points_in_band(f, -0.5, 0.5, 50, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_integrated_profile_solves_the_sphere_pde(self):
        p = make_params(1, 2, 1, 1)
        cfg = IntegratorConfig(tol=1e-12, max_step=2e-3)
        tr = maximal_trace(p, endpoint_seed(p, -1, 1e-6), cfg)
        f = IsoparametricFn(ISO_K1, 2)
        u = graph_from_trace(p, tr, f)
        rng = np.random.default_rng(7)
        blow = tr.right_event.location
        pts = sphere_points_in_band(f, -0.95, blow - 0.1, 150, rng)
        rep = soliton_residual(GraphSample(AMBIENT_SPHERE, pts, u))
        assert rep.max_deviation_from(1.0) < 1e-3

    def test_graph_rejects_points_outside_profile_domain(self):
        p = make_params(1, 2, 1, 1)
        tr = maximal_trace(p, PhasePoint(0.0, 0.0), IntegratorConfig())
        f = IsoparametricFn(ISO_K1, 2)
        u = graph_from_trace(p, tr, f)
        north = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            u(north)


def _grim_reaper_sample():
    pts = np.random.default_rng(10).uniform(-1.2, 1.2, size=(200, 2))
    return GraphSample(AMBIENT_EUCLIDEAN, pts, grim_reaper)


def _trace_sample(p, f):
    tr, band_hi = _criterion8_family(p, f)
    pts = sphere_points_in_band(f, -0.95, band_hi, 200, seed=11)
    return GraphSample(AMBIENT_SPHERE, pts, graph_from_trace(p, tr, f))


def _smooth_sphere_sample(d):
    rng = np.random.default_rng(d)
    a, b, c = rng.normal(size=(3, d))
    a, b, c = (w / np.linalg.norm(w) for w in (a, b, c))
    pts = rng.normal(size=(100, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    u = lambda x: np.sin(a @ x) + (b @ x) ** 2 * np.cos(c @ x)
    return GraphSample(AMBIENT_SPHERE, pts, u)


class TestBatchedStencil:
    """The batched residual, graph spline and band sampler against the
    per-point code they replaced."""

    @pytest.mark.parametrize("make", [
        _grim_reaper_sample,
        lambda: _trace_sample(K1N2, IsoparametricFn(ISO_K1, 2)),
        lambda: _trace_sample(K2N3, IsoparametricFn(ISO_K2, 3, l=2)),
        lambda: _smooth_sphere_sample(4),
        lambda: _smooth_sphere_sample(5),
    ], ids=["grim-reaper", "K1n2", "K2n3", "S3", "S4"])
    def test_residual_matches_scalar_oracle(self, make):
        sample = make()
        got = soliton_residual(sample).values
        want = _scalar_residual(sample)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("p, f", [
        (K1N2, IsoparametricFn(ISO_K1, 2)),
        (K2N3, IsoparametricFn(ISO_K2, 3, l=2)),
    ], ids=["K1n2", "K2n3"])
    def test_spline_is_from_derivatives_bitwise(self, p, f):
        tr, _ = _criterion8_family(p, f)
        sq = np.sqrt(1.0 - tr.r**2)
        dvprime = tr.dpsi / (p.k * sq) + tr.psi * tr.r / (p.k * sq**3)
        vprime, shared = _profile_slopes(p.k, tr.r, tr.psi, tr.dpsi)
        assert shared.tobytes() == dvprime.tobytes()
        assert vprime.tobytes() == tr.vprime.tobytes()
        ref = BPoly.from_derivatives(tr.r, np.column_stack([tr.v, tr.vprime, dvprime]))
        got = _quintic_hermite(tr.r, tr.v, tr.vprime, dvprime)
        assert got.shape == ref.c.shape
        assert got.tobytes() == ref.c.tobytes()
        assert tr.r.tobytes() == ref.x.tobytes()

    @pytest.mark.parametrize("p, f", [
        (K1N2, IsoparametricFn(ISO_K1, 2)),
        (K2N3, IsoparametricFn(ISO_K2, 3, l=2)),
    ], ids=["K1n2", "K2n3"])
    def test_quintic_matches_bpoly(self, p, f):
        tr, _ = _criterion8_family(p, f)
        _, dvprime = _profile_slopes(p.k, tr.r, tr.psi, tr.dpsi)
        c = _quintic_hermite(tr.r, tr.v, tr.vprime, dvprime)
        t = np.random.default_rng(8).uniform(tr.r[0], tr.r[-1], 10_000)
        got = _eval_quintic(c, tr.r, t)
        assert got.shape == t.shape
        tol = 4.0 * np.finfo(float).eps * np.max(np.abs(tr.v))
        np.testing.assert_allclose(got, BPoly(c, tr.r)(t), rtol=0.0, atol=tol)
        # Only c0 survives at s = 0, and only c5 at the last knot's s = 1.
        assert _eval_quintic(c, tr.r, tr.r).tobytes() == tr.v.tobytes()
        for end in (0, -1):
            assert _eval_quintic(c, tr.r, tr.r[end]) == tr.v[end]
        level = _eval_quintic(c, tr.r, float(t[0]))
        assert np.ndim(level) == 0 and not isinstance(level, np.ndarray)
        assert level == got[0]

    @pytest.mark.parametrize("f, t_hi", [
        (IsoparametricFn(ISO_K1, 2), 0.6),
        (IsoparametricFn(ISO_K2, 3, l=2), 0.3),
    ], ids=["K1n2", "K2n3"])
    def test_band_sampler_matches_row_selection(self, f, t_hi):
        for seed in range(51):
            np.testing.assert_array_equal(
                sphere_points_in_band(f, -0.95, t_hi, 100, seed=seed),
                _scalar_band(f, -0.95, t_hi, 100, seed))

    def test_single_point_and_batch_agree(self):
        tr, band_hi = _criterion8_family(K2N3, IsoparametricFn(ISO_K2, 3, l=2))
        u = graph_from_trace(K2N3, tr, IsoparametricFn(ISO_K2, 3, l=2))
        pts = sphere_points_in_band(IsoparametricFn(ISO_K2, 3, l=2), -0.95, band_hi, 20, seed=3)
        batch = u(pts.T)
        assert batch.shape == (20,)
        assert [float(u(x)) for x in pts] == batch.tolist()


class TestGraphSpan:
    """graph_from_trace's u rejects a batch with any level outside the span."""

    F = IsoparametricFn(ISO_K1, 2)

    def _u_and_span(self):
        tr = maximal_trace(K1N2, PhasePoint(0.0, 0.0), IntegratorConfig())
        return graph_from_trace(K1N2, tr, self.F), float(tr.r[0]), float(tr.r[-1])

    def test_batch_with_one_point_outside(self):
        u, lo, hi = self._u_and_span()
        pts = sphere_points_in_band(self.F, lo + 0.01, hi - 0.01, 30, seed=4)
        assert u(pts.T).shape == (30,)
        pts[17] = [0.0, 0.0, 1.0]
        with pytest.raises(ValueError, match=r"level r=1\.0 outside .*\(1 of 30 points\)"):
            u(pts.T)

    def test_one_sample_trace_rejected(self):
        # A seed with |psi| >= ~1e13 stops at once and leaves one sample.
        tr = maximal_trace(K1N2, PhasePoint(0.0, 1e14))
        assert len(tr.r) == 1
        with pytest.raises(ValueError, match="at least two samples"):
            graph_from_trace(K1N2, tr, self.F)

    def test_nan_point_rejected(self):
        u, lo, hi = self._u_and_span()
        pts = sphere_points_in_band(self.F, lo + 0.01, hi - 0.01, 30, seed=5)
        pts[4] = np.nan
        with pytest.raises(ValueError, match=r"level r=nan outside"):
            u(pts.T)
        with pytest.raises(ValueError, match=r"level r=nan outside"):
            u(pts[4])
