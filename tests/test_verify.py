"""Ground-truth checks: foliation identities, PDE residuals, end-to-end graphs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    general_ode_residual,
    graph_from_trace,
    grim_reaper,
    iso_poly,
    iso_poly_grad,
    iso_poly_lap,
    isoparametric_identities,
    level_of_theta,
    make_params,
    maximal_trace,
    ode_residual_at,
    soliton_residual,
    sphere_points_in_band,
    theta_of_level,
    vprime_rhs,
)


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
        assert level_of_theta(theta) == pytest.approx(t, abs=1e-12)


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
