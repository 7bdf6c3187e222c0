"""Phase-plane structure: RHS, guide curves, trichotomy, comparison bounds.

The closed-form comparison functions are checked against direct numerical
quadrature of their defining integrands (test-only oracles), and the
blow-up root finder against the sign structure it promises.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from isosoliton import (
    PhasePoint,
    blowup_bound,
    bound_h1,
    bound_h2,
    bound_h2hat,
    bound_h3,
    eta,
    make_params,
    mirror_params,
    psi_rhs,
    sign_region,
    vprime_rhs,
    zeta,
)
from isosoliton.phase import ETA_POLE_GAP, _eta_samples, _zeta_samples, s_rhs

P12 = make_params(1, 2, 1, 1)
P23 = make_params(2, 3, 1, 1)
P24 = make_params(2, 4, 1, 2)  # R = 1/3


class TestRightHandSides:
    @given(
        st.floats(min_value=-0.99, max_value=0.99),
        st.floats(min_value=1.0, max_value=1e6),
        st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    @example(r=0.4138154053769165, mag=1.1, sign=-1.0)  # near psi = eta on P23
    @example(r=0.0, mag=1.0000000000000002, sign=1.0)  # on psi = eta on P24
    def test_s_rhs_is_the_reciprocal_chain_rule(self, r, mag, sign):
        # s = 1/psi gives ds/dr = -psi' / psi^2, and dr/ds is its reciprocal.
        # Near the guide curve psi = eta the two drift terms cancel, so ds/dr
        # is compared, keeping only the rounding error of the summands: the
        # absolute bound is 1e-12 of them.
        psi = sign * mag
        s = 1.0 / psi
        one_minus_r2 = 1.0 - r * r
        for p in (P12, P23, P24):
            if (p.n - 1) * (r - p.R) + math.sqrt(one_minus_r2) * s == 0.0:
                # psi on the guide curve to the last bit: ds/dr = 0
                with pytest.raises(ValueError, match="singular"):
                    s_rhs(p, s, r)
                continue
            want = -psi_rhs(p, r, psi) / (psi * psi)
            summands = (1.0 + s * s) * (abs((p.n - 1) * (r - p.R))
                                        + math.sqrt(one_minus_r2) * abs(s)) \
                / (p.k * one_minus_r2 * abs(s))
            assert 1.0 / s_rhs(p, s, r) == pytest.approx(want, rel=1e-12, abs=1e-12 * summands)

    def test_s_rhs_at_and_off_the_pole(self):
        # k=1, n=2, R=0 at r=0.6, s=0.5: -0.64 * 0.5 / (1.25 * (0.6 + 0.4))
        assert s_rhs(P12, 0.5, 0.6) == pytest.approx(-0.256, rel=1e-15)
        # dr/ds vanishes at the pole s = 0, r = b != R
        assert s_rhs(P23, 0.0, 0.5) == 0.0

    @pytest.mark.parametrize("s, r", [(0.1, 1.0), (0.1, -1.5), (0.0, 0.0)])
    def test_s_rhs_singular_points(self, s, r):
        # |r| >= 1, and (n-1)(r - R) + sqrt(1 - r^2) s = 0 (P12: r = 0, s = 0)
        with pytest.raises(ValueError, match="singular"):
            s_rhs(P12, s, r)

    def test_known_value(self):
        # k=1, n=2, R=0 at the origin: psi' = (0+1)(0+1)/1
        assert psi_rhs(P12, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_known_value_off_origin(self):
        # hand-evaluated: k=1, n=2 at r=0.5, psi=1
        got = psi_rhs(P12, 0.5, 1.0)
        want = (1.0 + 1.0) * (0.5 + math.sqrt(0.75)) / 0.75
        assert got == pytest.approx(want, rel=1e-15)

    def test_vprime_known_value(self):
        # k=1, n=2 at r=0, V'=1: V'' = 0 + 1 + 0 + 1
        assert vprime_rhs(P12, 0.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_singular_at_focal_levels(self):
        with pytest.raises(ValueError):
            psi_rhs(P12, 1.0, 0.0)
        with pytest.raises(ValueError):
            vprime_rhs(P12, -1.0, 0.0)

    @given(
        st.floats(min_value=-0.99, max_value=0.99),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_chain_rule_links_the_two_equations(self, r, vp):
        """d/dr of psi = k sqrt(1-r^2) V' must reproduce the slope RHS."""
        p = P24
        sq = math.sqrt(1.0 - r * r)
        psi = p.k * sq * vp
        lhs = psi_rhs(p, r, psi)
        rhs = p.k * (sq * vprime_rhs(p, r, vp) - r * vp / sq)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


class TestGuideCurves:
    def test_eta_value(self):
        # k=1, n=2, R=0 at r=0.5
        assert eta(P12, 0.5) == pytest.approx(-math.sqrt(0.75) / 0.5, rel=1e-15)

    def test_zeta_value(self):
        assert zeta(P12, 0.5) == pytest.approx(-2.0, rel=1e-15)

    def test_relation_eta_equals_scaled_zeta(self):
        for p in (P12, P23, P24):
            for r in np.linspace(-0.95, 0.95, 41):
                if r == p.R:
                    continue
                lhs = eta(p, r)
                rhs = p.k * math.sqrt(1.0 - r * r) * zeta(p, r)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_one_sided_limits_at_singular_level(self):
        assert eta(P12, 0.0) == -math.inf
        assert zeta(P24, P24.R) == -math.inf

    def test_vanishes_at_focal_levels(self):
        assert eta(P12, 1.0) == 0.0
        assert eta(P12, -1.0) == 0.0

    def test_rhs_vanishes_on_guide_curve(self):
        """eta is exactly the nullcline of the slope equation."""
        for p in (P12, P24):
            for r in (-0.8, -0.3, 0.55, 0.9):
                if abs(r - p.R) < 1e-3:
                    continue
                assert psi_rhs(p, r, eta(p, r)) == pytest.approx(0.0, abs=1e-12)


GUIDE_SETS = [P12, P23, P24, make_params(3, 7, 2, 2), make_params(4, 9, 2, 3),
              make_params(6, 13, 2, 2), make_params(2, 10, 8, 1)]


class TestSampledGuideCurves:
    """The array samplers the figures and the crossing scan share."""

    @pytest.mark.parametrize("p", GUIDE_SETS, ids=lambda p: f"k{p.k}n{p.n}m{p.m1}-{p.m2}")
    @pytest.mark.parametrize("sampled, pointwise",
                             [(_eta_samples, eta), (_zeta_samples, zeta)],
                             ids=["eta", "zeta"])
    def test_equal_to_pointwise_bit_for_bit(self, p, sampled, pointwise):
        rng = np.random.default_rng(p.n)
        r = np.concatenate([np.linspace(-1.0, 1.0, 1001), rng.uniform(-1.0, 1.0, 1000),
                            np.nextafter(p.R, [-1.0, 1.0]), [p.R]])
        want = np.array([pointwise(p, x) for x in r.tolist()])
        assert sampled(p, r).tobytes() == want.tobytes()

    @pytest.mark.parametrize("sampled", [_eta_samples, _zeta_samples], ids=["eta", "zeta"])
    def test_one_sided_limits_near_pole(self, sampled):
        """Within ETA_POLE_GAP of R the quotient would overflow; the limit
        from each side stands in, and -inf at R itself, like the pointwise
        curves."""
        gap = ETA_POLE_GAP
        near = np.array([-gap, -5e-324, 0.0, 5e-324, gap])
        assert sampled(P12, near).tolist() == [math.inf, math.inf, -math.inf,
                                                -math.inf, -math.inf]
        assert np.isfinite(sampled(P12, np.array([-2.0 * gap, 2.0 * gap]))).all()
        assert sampled(P24, np.array([P24.R])).tolist() == [-math.inf]


class TestSignTrichotomy:
    @given(
        st.floats(min_value=-0.999, max_value=0.999),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_predicted_sign_matches_rhs(self, r, psi):
        p = P24
        region = sign_region(p, r, psi)
        if region == "0":
            return  # tie band, no claim
        value = psi_rhs(p, r, psi)
        if region == "+":
            assert value > 0.0, f"predicted + but rhs={value} at ({r}, {psi})"
        else:
            assert value < 0.0, f"predicted - but rhs={value} at ({r}, {psi})"

    def test_axis_is_positive(self):
        assert sign_region(P12, 0.5, 0.0) == "+"

    def test_singular_level_is_positive(self):
        assert sign_region(P24, P24.R, -3.0) == "+"


def _h1_oracle(p, r0, psi0, r):
    f = lambda s: -2.0 * (p.n - 1) * (s - p.R) / (p.k * (1.0 - s * s))
    val, err = quad(f, r0, r, limit=200)
    assert err < 1e-6
    return 1.0 / (psi0 * psi0) + val, err


def _h3_oracle(p, r0, psi0, r):
    f = lambda s: (
        -(p.n - 1) * psi0 * (s - p.R) / (p.k * (1.0 - s * s))
        - 1.0 / (p.k * math.sqrt(1.0 - s * s))
    )
    val, err = quad(f, r0, r, limit=200)
    assert err < 1e-6
    return 1.0 / psi0 + val, err


def _h2_oracle(p, r0, psi0, r, rate):
    # quad's default epsabs (1.49e-8) would let its error estimate exceed
    # the asserted 1e-8; asking for 1e-13 keeps the oracle that tight
    val, err = quad(lambda s: rate / math.sqrt(1.0 - s * s), r0, r, limit=200,
                    epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-8
    return math.atan(psi0) + val


class TestComparisonBounds:
    """Closed forms vs direct quadrature of the defining integrands."""

    @given(
        st.floats(min_value=0.4, max_value=0.9),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_h1_matches_quadrature(self, r0, psi0, frac):
        p = P24
        r = r0 + frac * (0.98 - r0)
        want, err = _h1_oracle(p, r0, psi0, r)
        got = bound_h1(p, r0, psi0, r)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-9 + 10.0 * err)

    @given(
        st.floats(min_value=-0.9, max_value=-0.3),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_h3_matches_quadrature(self, r0, frac):
        p = P12
        psi0 = eta(p, r0) * 1.5 + 0.5  # safely above the guide curve
        r = r0 - frac * (r0 - (-0.98))
        want, err = _h3_oracle(p, r0, psi0, r)
        got = bound_h3(p, r0, psi0, r)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-9 + 10.0 * err)

    @given(
        st.floats(min_value=-0.9, max_value=-0.1),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    @example(r0=-0.9, level=0.5, frac=0.65625)  # default epsabs gave err 1.19e-8
    def test_h2_matches_quadrature(self, r0, level, frac):
        p = P12
        psi0 = level * eta(p, r0)
        assume(psi0 > 0.0)
        r = r0 + frac * (p.R - r0)
        want = _h2_oracle(p, r0, psi0, r, 1.0)
        got = bound_h2(p, r0, psi0, r)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_h2hat_is_half_rate(self):
        p = P23
        r0, psi0 = -0.6, 0.4
        assert 0.0 < psi0 < eta(p, r0)
        got = bound_h2hat(p, r0, psi0, 0.0)
        want = _h2_oracle(p, r0, psi0, 0.0, 0.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_h1_initial_value(self):
        assert bound_h1(P12, 0.5, 2.0, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_h3_initial_value(self):
        p = P12
        assert bound_h3(p, -0.5, 3.0, -0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_preconditions_enforced(self):
        with pytest.raises(ValueError):
            bound_h1(P12, -0.5, 1.0, 0.0)  # r0 below R
        with pytest.raises(ValueError):
            bound_h1(P12, 0.5, -1.0, 0.6)  # psi0 negative
        with pytest.raises(ValueError):
            bound_h3(P12, 0.5, 3.0, 0.4)  # r0 above R
        with pytest.raises(ValueError):
            bound_h2(P23, -0.5, 0.1, 0.0)  # wrong degree
        with pytest.raises(ValueError):
            bound_h2hat(P12, -0.5, 0.1, 0.0)


class TestBlowupBound:
    def test_h1_root_brackets(self):
        p = P12
        r0, psi0 = 0.5, 2.0
        b = blowup_bound(p, r0, psi0, +1)
        assert r0 < b < 1.0
        assert bound_h1(p, r0, psi0, b) == pytest.approx(0.0, abs=1e-9)

    def test_h3_root_brackets(self):
        p = P12
        r0 = -0.5
        psi0 = eta(p, r0) + 2.0
        b = blowup_bound(p, r0, psi0, -1)
        assert -1.0 < b < r0
        assert bound_h3(p, r0, psi0, b) == pytest.approx(0.0, abs=1e-9)

    def test_mirror_quadrants_reflect(self):
        """Negative-slope bounds are the reflections of positive-slope ones."""
        p = P24
        q = mirror_params(p)
        r0, psi0 = -0.5, -2.0
        left = blowup_bound(p, r0, psi0, -1)
        right_mirrored = blowup_bound(q, -r0, -psi0, +1)
        assert left == pytest.approx(-right_mirrored, abs=1e-12)

    def test_mirror_swaps_multiplicities(self):
        q = mirror_params(P24)
        assert (q.m1, q.m2) == (P24.m2, P24.m1)
        assert q.R == pytest.approx(-P24.R, abs=1e-15)

    def test_rejects_zero_slope(self):
        for psi0 in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                blowup_bound(P12, 0.5, psi0, +1)

    def test_root_hugging_focal_level(self):
        """Tiny psi0 pushes the h1 root within one ulp of the focal level;
        the bound must degrade to the innermost float, not raise."""
        b = blowup_bound(P23, 0.2887544995935477, 0.1269991245958163, +1)
        assert b == math.nextafter(1.0, 0.0)
        left = blowup_bound(P23, -0.2887544995935477, -0.1269991245958163, -1)
        assert left == math.nextafter(-1.0, 0.0)


class TestPhasePoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhasePoint(1.0, 0.0)
        with pytest.raises(ValueError):
            PhasePoint(0.0, math.inf)

    @pytest.mark.parametrize("r, psi", [(np.float32(0.1), np.float32(0.2)), (False, True),
                                        (0, -3), (np.float64(-0.5), np.int64(7))])
    def test_coordinates_are_python_floats(self, r, psi):
        pt = PhasePoint(r, psi)
        assert (type(pt.r), type(pt.psi)) == (float, float)
        assert (pt.r, pt.psi) == (float(r), float(psi))

    def test_frozen(self):
        pt = PhasePoint(0.1, 0.2)
        with pytest.raises(AttributeError):
            pt.r = 0.5
