"""Adaptive integration: events, traces, oracles, endpoint measurements."""

import dataclasses
import io
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

from isosoliton import (
    BLOWUP_MINUS,
    BLOWUP_PLUS,
    BUDGET_EXHAUSTED,
    CROSSING_ETA,
    CROSSING_ZERO,
    REGULAR_ENDPOINT,
    IntegratorConfig,
    PhasePoint,
    endpoint_seed,
    endpoint_vprime_extrapolated,
    endpoint_vprime_limit,
    eta,
    grid_seeds,
    integrate_from,
    make_params,
    maximal_trace,
    psi_at,
    psi_rhs,
    trace_to_csv,
    trace_to_json,
)
from isosoliton.integrator import (
    S_LAND,
    TAIL_ENTER,
    TAIL_LEAVE,
    _dp5,
    _dp5_s,
    _integrate_lanes,
    _tail_guard,
)
from isosoliton.phase import s_rhs
from oracles import euler_walk, rk4_walk, self_convergence, trace_deviation

P12 = make_params(1, 2, 1, 1)
P23 = make_params(2, 3, 1, 1)
CFG = IntegratorConfig()
K2N3_SUBGRID = grid_seeds((-0.9, 0.9), (-5.0, 5.0), 5, 5)


class TestEndpointLaw:
    def test_limit_values(self):
        # 1/(k(k + (n-1)(1+R))) at -1 and the sign-flipped form at +1
        assert endpoint_vprime_limit(P12, -1) == pytest.approx(0.5, abs=1e-15)
        assert endpoint_vprime_limit(P12, +1) == pytest.approx(-0.5, abs=1e-15)
        p = make_params(2, 4, 1, 2)  # R = 1/3
        want = 1.0 / (2.0 * (2.0 + 3.0 * (1.0 + 1.0 / 3.0)))
        assert endpoint_vprime_limit(p, -1) == pytest.approx(want, rel=1e-15)

    def test_seed_placement(self):
        s = endpoint_seed(P12, -1, 1e-5)
        assert s.r == -(1.0 - 1e-5)
        vp = endpoint_vprime_limit(P12, -1)
        assert s.psi == pytest.approx(math.sqrt(1.0 - s.r * s.r) * vp, rel=1e-12)

    def test_seed_offset_validated(self):
        with pytest.raises(ValueError):
            endpoint_seed(P12, -1, 0.0)
        with pytest.raises(ValueError):
            endpoint_seed(P12, -1, 1e-3)

    def test_extrapolated_measurement_converges(self):
        for which in (-1, +1):
            est = endpoint_vprime_extrapolated(P23, which)
            assert est == pytest.approx(endpoint_vprime_limit(P23, which), abs=1e-6)


class TestDirectedRuns:
    def test_rightward_blowup(self):
        half = integrate_from(P12, PhasePoint(0.0, 0.0), +1, CFG)
        assert half.event.kind == BLOWUP_PLUS
        assert 0.0 < half.event.location < 1.0
        assert half.stats.accepted > 0
        # monotone sample locations
        assert np.all(np.diff(half.r) > 0)

    def test_leftward_blowdown_is_mirror(self):
        right = integrate_from(P12, PhasePoint(0.0, 0.0), +1, CFG)
        left = integrate_from(P12, PhasePoint(0.0, 0.0), -1, CFG)
        assert left.event.kind == BLOWUP_MINUS
        # R = 0 flow is odd-symmetric through this seed
        assert left.event.location == pytest.approx(-right.event.location, abs=1e-9)

    def test_regular_endpoint_run(self):
        seed = endpoint_seed(P12, -1, 1e-6)
        half = integrate_from(P12, seed, -1, IntegratorConfig(tol=1e-12))
        assert half.event.kind == REGULAR_ENDPOINT
        assert half.event.location == -1.0
        assert half.event.endpoint_vprime == pytest.approx(0.5, abs=1e-4)

    def test_budget_exhaustion_reported(self):
        tiny = dataclasses.replace(CFG, max_steps=5)
        half = integrate_from(P12, PhasePoint(0.0, 0.0), +1, tiny)
        assert half.event.kind == BUDGET_EXHAUSTED

    def test_blowup_near_focal_level_still_detected(self):
        """Pole jammed against r = -1, where the step is capped by half the
        gap to the focal level: the run must still call it a blow-up."""
        half = integrate_from(P12, PhasePoint(-0.63, 0.5), -1, CFG)
        assert half.event.kind == BLOWUP_MINUS
        assert -1.0 < half.event.location < -0.99

    def test_derivative_column_matches_rhs(self):
        # samples of the tail, carried as r(s), s = 1/psi, are stored as
        # (r, psi, psi') too
        half = integrate_from(P12, PhasePoint(0.1, 0.3), +1, CFG)
        assert np.abs(half.psi).max() > TAIL_ENTER
        for i in range(len(half.r)):
            want = psi_rhs(P12, float(half.r[i]), float(half.psi[i]))
            assert half.dpsi[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestBlowupTail:
    """Once |psi| is large the walk carries r as a function of s = 1/psi and
    lands on the pole s = 0."""

    def test_tail_is_short(self):
        """A run that ends at a pole stores few samples at |psi| > 100, and
        its last one where the tail landed, at |s| = S_LAND."""
        for seed in K2N3_SUBGRID:
            for direction in (-1, 1):
                half = integrate_from(P23, seed, direction, CFG)
                if half.event.kind.startswith("BlowUp"):
                    assert int((np.abs(half.psi[1:]) > 100.0).sum()) <= 50, (seed, direction)
                    assert half.psi[-1] == 1.0 / math.copysign(S_LAND, half.psi[-1])

    def test_pole_converges_in_tol(self):
        loose = dataclasses.replace(CFG, tol=1e-10)
        tight = dataclasses.replace(CFG, tol=1e-12)
        checked = 0
        for seed in K2N3_SUBGRID:
            for direction in (-1, 1):
                a = integrate_from(P23, seed, direction, loose).event
                b = integrate_from(P23, seed, direction, tight).event
                assert a.kind == b.kind
                if a.kind.startswith("BlowUp"):
                    assert abs(a.location - b.location) < 1e-8, (seed, direction)
                    checked += 1
        assert checked > 25

    @pytest.mark.parametrize("p", [P12, P23], ids=["k1n2", "k2n3"])
    def test_poles_match_a_tight_tolerance_run(self, p):
        """Every located pole at the default tol lies within 1e-9 of the same
        run at tol 1e-14, and that run, whose error norm on r is 1e-14 * (1 +
        |r|), lands on its pole too."""
        tight = dataclasses.replace(CFG, tol=1e-14)
        checked = 0
        for seed in K2N3_SUBGRID:
            for direction in (-1, 1):
                a = integrate_from(p, seed, direction, CFG)
                # a located pole lies beyond the last sample; a fallback exit on it
                if not (a.event.kind.startswith("BlowUp")
                        and (a.event.location - a.r[-1]) * direction > 0.0):
                    continue
                b = integrate_from(p, seed, direction, tight)
                assert b.event.kind == a.event.kind, (seed, direction)
                assert (b.event.location - b.r[-1]) * direction > 0.0, (seed, direction)
                assert abs(a.event.location - b.event.location) <= 1e-9, (seed, direction)
                checked += 1
        assert checked > 25

    def test_pole_lies_beyond_last_sample(self):
        half = integrate_from(P12, PhasePoint(0.0, 0.0), +1, CFG)
        assert half.r[-1] < half.event.location < 1.0
        assert abs(half.psi[-1]) > TAIL_ENTER
        # psi ~ 1/sqrt(2 a (r* - r)) with a = (n-1)(r-R)/(k(1-r^2)) at the pole
        r = half.event.location
        a = (P12.n - 1) * (r - P12.R) / (P12.k * (1.0 - r * r))
        gap = half.event.location - half.r[-1]
        assert half.psi[-1] ** -2 == pytest.approx(2.0 * a * gap, rel=0.05)

    def test_pole_near_focal_level(self):
        """k=2, n=10, m=(8,1): leftward runs from the +1 endpoint seed and
        from a seed next to it meet their pole at r ~ -0.979, close to the
        focal level -1."""
        p = make_params(2, 10, 8, 1)
        for seed in (endpoint_seed(p, +1, 1e-6), PhasePoint(0.9657888993418962, -11.0414)):
            half = integrate_from(p, seed, -1, CFG)
            assert half.event.kind == BLOWUP_MINUS
            assert -1.0 < half.event.location < -0.97

    def test_fallback_exits_report_last_sample(self):
        # |psi| threshold far short of the pole: fires in the tail
        cfg = dataclasses.replace(CFG, blowup_threshold=50.0)
        half = integrate_from(P12, PhasePoint(0.0, 0.0), +1, cfg)
        assert half.event.kind == BLOWUP_PLUS
        assert half.event.location == half.r[-1]
        assert abs(half.psi[-1]) >= 50.0
        # step collapse at a large graph slope while psi is still moderate:
        # a pole jammed against r = +1, reached about 2e-11 short of it
        p = make_params(4, 8, 4, 3)
        seed = PhasePoint(-0.35456322457985834, -7.011799937538605)
        half = integrate_from(p, seed, +1, CFG)
        assert half.event.kind == BLOWUP_PLUS
        assert half.event.location == half.r[-1]
        assert abs(half.psi[-1]) < TAIL_ENTER
        assert 0.0 < 1.0 - half.r[-1] < 1e-10

    @pytest.mark.parametrize("p", [P12, P23], ids=["k1n2", "k2n3"])
    def test_v_at_the_ends_converges(self, p):
        """v at both end samples (where a tail landed on |s| = S_LAND, or at
        a stop radius) lies within 1e-4 of the same trace at tol 1e-13 and
        max_step 2e-4: the sparse tail segments are integrated in s."""
        ref = IntegratorConfig(tol=1e-13, max_step=2e-4)
        for seed in grid_seeds(nr=9, npsi=9):
            a, b = maximal_trace(p, seed, CFG), maximal_trace(p, seed, ref)
            assert abs(a.v[0] - b.v[0]) <= 1e-4, seed
            assert abs(a.v[-1] - b.v[-1]) <= 1e-4, seed

    def test_guard_keeps_crossings_out_of_the_tail(self):
        """Where the tail guard holds, |psi| >= 2 |eta|: psi has neither a
        zero nor a guide-curve crossing on a segment whose ends meet it."""
        for p in (P12, P23):
            for seed in K2N3_SUBGRID:
                tr = maximal_trace(p, seed, CFG)
                g = _tail_guard(float(p.n - 1), p.R, tr.r, tr.psi)
                tail = g[:-1] & g[1:]
                assert tail.any(), seed
                for c in tr.crossings:
                    i = int(np.searchsorted(tr.r, c.r)) - 1
                    assert not (0 <= i < len(tail) and tail[i]), (seed, c)


def _crossings_by_loop(p, r, psi, dpsi):
    """Reference scan: one segment at a time, scalar eta, brentq on the
    segment's cubic Hermite model; a zero then takes up to three Newton
    steps on the tableau step from the segment's left sample."""
    out = []
    for i in range(len(r)):
        if psi[i] == 0.0:
            out.append((CROSSING_ZERO, float(r[i])))
    for i in range(len(r) - 1):
        spline = CubicHermiteSpline(r[i:i + 2], psi[i:i + 2], dpsi[i:i + 2])
        if psi[i] != 0.0 and psi[i + 1] != 0.0 and (psi[i] > 0) != (psi[i + 1] > 0):
            x = brentq(spline, r[i], r[i + 1], xtol=1e-15)
            for _ in range(3):
                y, _err, dy = _ref_dp5_step(lambda t, v: psi_rhs(p, t, v),
                                            r[i], psi[i], dpsi[i], x - r[i])
                x = min(r[i + 1], max(r[i], x - y / dy))
            out.append((CROSSING_ZERO, x))
        if r[i] <= p.R <= r[i + 1]:
            continue
        s0 = psi[i] - eta(p, float(r[i]))
        s1 = psi[i + 1] - eta(p, float(r[i + 1]))
        if s0 == 0.0:
            out.append((CROSSING_ETA, float(r[i])))
        elif s1 != 0.0 and (s0 > 0) != (s1 > 0):
            g = lambda x: float(spline(x)) - eta(p, x)
            out.append((CROSSING_ETA, brentq(g, r[i], r[i + 1], xtol=1e-15)))
    return sorted(out, key=lambda c: c[1])


class TestCrossingScan:
    @pytest.mark.parametrize("p, seed", [
        (P12, PhasePoint(0.0, 0.0)),
        (P12, PhasePoint(-0.5, 3.0)),
        (P12, PhasePoint(0.3, -2.0)),
        (P23, PhasePoint(-0.45, 2.5)),
        (P23, PhasePoint(0.45, -1.25)),
        (make_params(2, 10, 8, 1), PhasePoint(-0.7308317466068817, -0.2363704139606826)),
    ])
    def test_matches_segment_loop(self, p, seed):
        tr = maximal_trace(p, seed, CFG)
        want = _crossings_by_loop(p, tr.r, tr.psi, tr.dpsi)
        assert [c.kind for c in tr.crossings] == [k for k, _ in want]
        for c, (_, x) in zip(tr.crossings, want):
            assert c.r == pytest.approx(x, abs=1e-12)

    @pytest.mark.parametrize("p", [P12, P23], ids=["k1n2", "k2n3"])
    def test_zero_crossings_match_a_tight_tolerance_run(self, p):
        """Polished on the integration step, every zero crossing lies within
        1e-9 of the same run at tol 1e-14; on the Hermite model alone it was
        good to about 5e-7 (k2n3 (-0.45, -1.0): 0.9308196472 against
        0.9308190841)."""
        tight = dataclasses.replace(CFG, tol=1e-14)
        checked = 0
        for seed in K2N3_SUBGRID + [PhasePoint(-0.45, -1.0)]:
            got = [c.r for c in maximal_trace(p, seed, CFG).crossings if c.kind == CROSSING_ZERO]
            want = [c.r for c in maximal_trace(p, seed, tight).crossings
                    if c.kind == CROSSING_ZERO]
            assert len(got) == len(want), seed
            for x, y in zip(got, want):
                assert abs(x - y) <= 1e-9, (seed, x, y)
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("r0", [5e-324, 1e-310, 1e-300])
    def test_sample_ulps_from_R(self, r0):
        # P12 has R = 0: the seed sample sits a subnormal distance from R,
        # where the quotient in eta would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tr = maximal_trace(P12, PhasePoint(r0, 1.0), CFG)
        assert [c.kind for c in tr.crossings] == [CROSSING_ZERO]


class TestMaximalTrace:
    def test_events_and_gauge(self):
        tr = maximal_trace(P12, PhasePoint(0.0, 0.0), CFG)
        assert tr.left_event.kind == BLOWUP_MINUS
        assert tr.right_event.kind == BLOWUP_PLUS
        i = int(np.argmin(np.abs(tr.r - 0.0)))
        assert tr.v[i] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(tr.r) > 0)

    def test_vprime_relation(self):
        tr = maximal_trace(P23, PhasePoint(0.2, 1.0), CFG)
        sq = np.sqrt(1.0 - tr.r**2)
        np.testing.assert_allclose(tr.vprime, tr.psi / (P23.k * sq), rtol=1e-12)

    def test_zero_crossing_found(self):
        tr = maximal_trace(P12, PhasePoint(0.0, 0.0), CFG)
        zeros = [c for c in tr.crossings if c.kind == CROSSING_ZERO]
        assert len(zeros) == 1
        assert zeros[0].r == pytest.approx(0.0, abs=1e-9)

    def test_eta_crossing_found(self):
        # all-positive trace crossing the guide curve once
        tr = maximal_trace(P12, PhasePoint(-0.5, 3.0), CFG)
        etas = [c for c in tr.crossings if c.kind == CROSSING_ETA]
        assert len(etas) >= 1
        for c in etas:
            want = eta(P12, c.r)
            assert psi_at(tr, c.r) == pytest.approx(want, abs=1e-6)

    def test_psi_at_matches_whole_trace_spline(self):
        tr = maximal_trace(P23, PhasePoint(0.1, 0.5), CFG)
        spline = CubicHermiteSpline(tr.r, tr.psi, tr.dpsi)
        mids = 0.5 * (tr.r[1:] + tr.r[:-1])
        for x in (tr.r, mids):
            np.testing.assert_allclose(psi_at(tr, x), spline(x), rtol=1e-12, atol=1e-12)
        assert psi_at(tr, float(mids[3])) == pytest.approx(float(spline(mids[3])), rel=1e-12)
        assert psi_at(tr, tr.r[-1]) == tr.psi[-1]
        with pytest.raises(ValueError):
            psi_at(tr, tr.r[-1] + 1e-9)

    def test_psi_at_one_sample(self):
        one = SimpleNamespace(r=np.array([0.2]), psi=np.array([1.5]), dpsi=np.array([3.0]))
        assert psi_at(one, 0.2) == 1.5

    @pytest.mark.parametrize("p, seed, cfg", [
        *((P23, s, CFG) for s in K2N3_SUBGRID),
        # 5,401 samples: a tight tolerance must not cost resolution
        (P12, PhasePoint(0.0, 0.0), IntegratorConfig(tol=1e-15)),
    ])
    def test_keeps_every_accepted_sample(self, p, seed, cfg):
        tr = maximal_trace(p, seed, cfg)
        left = integrate_from(p, seed, -1, cfg)
        right = integrate_from(p, seed, +1, cfg)
        assert len(tr.r) == len(left.r) + len(right.r) - 1
        np.testing.assert_array_equal(tr.r, np.concatenate([left.r[::-1], right.r[1:]]))

    def test_seed_must_be_interior(self):
        with pytest.raises(ValueError):
            PhasePoint(1.2, 0.0)

    @pytest.mark.parametrize("run", [
        lambda: maximal_trace(P12, PhasePoint(0.1, 0.2), CFG),
        lambda: integrate_from(P12, PhasePoint(0.1, 0.2), +1, CFG),
    ], ids=["Trace", "HalfTrace"])
    def test_compares_by_identity(self, run):
        a, b = run(), run()
        np.testing.assert_array_equal(a.psi, b.psi)
        assert (a == b) is False
        assert a == a
        assert {a: 1, b: 2}[a] == 1

    @given(
        st.floats(min_value=-0.85, max_value=0.85),
        st.floats(min_value=-4.0, max_value=4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_interior_seed_terminates(self, r, psi):
        cfg = dataclasses.replace(CFG, tol=1e-8)
        tr = maximal_trace(P12, PhasePoint(r, psi), cfg)
        for ev in (tr.left_event, tr.right_event):
            assert ev.kind in (REGULAR_ENDPOINT, BLOWUP_PLUS, BLOWUP_MINUS)
            assert -1.0 <= ev.location <= 1.0


class TestOracles:
    def test_euler_walk_against_adaptive(self):
        rep = self_convergence(
            P12, PhasePoint(0.0, 0.0), window=(-0.3, 0.3),
            euler_h=1e-5, rk4_h=1e-3,
        )
        assert rep.max_dev_euler < 1e-3
        assert rep.max_dev_rk4 < 1e-6

    def test_rk4_beats_euler(self):
        rep = self_convergence(
            P23, PhasePoint(0.1, 0.5), window=(-0.2, 0.4),
            euler_h=1e-4, rk4_h=1e-4,
        )
        assert rep.max_dev_rk4 < rep.max_dev_euler

    def test_walks_are_pure_functions(self):
        a = euler_walk(P12, PhasePoint(0.0, 0.0), 0.3, 1e-4)
        b = euler_walk(P12, PhasePoint(0.0, 0.0), 0.3, 1e-4)
        np.testing.assert_array_equal(a[1], b[1])
        c = rk4_walk(P12, PhasePoint(0.0, 0.0), 0.3, 1e-3)
        d = rk4_walk(P12, PhasePoint(0.0, 0.0), 0.3, 1e-3)
        np.testing.assert_array_equal(c[1], d[1])

    def test_trace_deviation_self_is_zero(self):
        tr = maximal_trace(P12, PhasePoint(0.0, 0.0), CFG)
        assert trace_deviation(tr, tr, (-0.3, 0.3)) == 0.0

    def test_tolerance_refinement_shrinks_deviation(self):
        # window reaches into the blow-up approach, where steps are
        # error-limited rather than capped, so tol actually bites
        win = (-0.75, 0.75)
        loose = maximal_trace(P12, PhasePoint(0.0, 0.0), dataclasses.replace(CFG, tol=1e-4))
        tight = maximal_trace(P12, PhasePoint(0.0, 0.0), dataclasses.replace(CFG, tol=1e-12))
        mid = maximal_trace(P12, PhasePoint(0.0, 0.0), dataclasses.replace(CFG, tol=1e-8))
        dev_loose = trace_deviation(loose, tight, win)
        dev_mid = trace_deviation(mid, tight, win)
        assert dev_mid < 0.01 * dev_loose


class TestSerialization:
    def test_csv_shape(self):
        tr = maximal_trace(P12, PhasePoint(0.0, 0.0), CFG)
        buf = io.StringIO()
        trace_to_csv(tr, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "r,psi,vprime,v"
        assert len(lines) == len(tr.r) + 1
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == tr.r[0]

    def test_json_envelope(self):
        tr = maximal_trace(P12, PhasePoint(0.0, 0.0), CFG)
        d = trace_to_json(tr)
        assert d["params"]["k"] == 1
        assert d["seed"] == {"r": 0.0, "psi": 0.0}
        assert d["events"]["left"]["kind"] == BLOWUP_MINUS
        assert d["events"]["right"]["kind"] == BLOWUP_PLUS
        assert d["n_samples"] == len(tr.r)
        kinds = {c["kind"] for c in d["crossings"]}
        assert CROSSING_ZERO in kinds

    def test_float32_seed_runs_in_float64(self):
        """A numpy float32 seed walks as its float value would, not in
        float32, and its envelope is JSON."""
        r, psi = np.float32(0.1), np.float32(0.2)
        tr = maximal_trace(P12, PhasePoint(r, psi), CFG)
        ref = maximal_trace(P12, PhasePoint(float(r), float(psi)), CFG)
        assert tr.r.dtype == np.float64 and tr.psi.tobytes() == ref.psi.tobytes()
        assert json.dumps(trace_to_json(tr)) == json.dumps(trace_to_json(ref))

    @pytest.mark.parametrize("name", ["tol", "blowup_threshold", "epsilon", "max_step"])
    def test_float32_config_runs_in_float64(self, name):
        """A numpy float32 config value is stored as its float value: the walk
        runs as with that float, and the envelope is JSON."""
        value = np.float32(getattr(CFG, name))
        cfg = dataclasses.replace(CFG, **{name: value})
        ref = dataclasses.replace(CFG, **{name: float(value)})
        assert type(getattr(cfg, name)) is float
        tr = maximal_trace(P12, PhasePoint(0.1, 0.2), cfg)
        expect = maximal_trace(P12, PhasePoint(0.1, 0.2), ref)
        assert tr.step_stats == expect.step_stats and type(tr.step_stats.min_step) is float
        assert tr.psi.tobytes() == expect.psi.tobytes()
        assert json.dumps(trace_to_json(tr)) == json.dumps(trace_to_json(expect))

    def test_bool_seed_is_written_as_floats(self):
        tr = maximal_trace(P12, PhasePoint(False, True), CFG)
        assert json.dumps(trace_to_json(tr)["seed"]) == '{"r": 0.0, "psi": 1.0}'

    def test_json_cfg_is_the_settable_config(self):
        cfg = IntegratorConfig(tol=1e-9, max_step=0.02)
        tr = maximal_trace(P12, PhasePoint(0.0, 0.0), cfg)
        block = json.loads(json.dumps(trace_to_json(tr)))["cfg"]
        assert IntegratorConfig(**block) == tr.cfg


class TestConfigValidation:
    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError):
            IntegratorConfig(tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(blowup_threshold=-1.0)
        for steps in (0, 2.5, True):
            with pytest.raises(ValueError):
                IntegratorConfig(max_steps=steps)

    @pytest.mark.parametrize("name", ["tol", "blowup_threshold", "epsilon", "max_step"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            IntegratorConfig(**{name: value})


# Dormand-Prince 5(4) walked as a tableau over the reference right-hand
# sides of phase.py: the fused kernels must reproduce it bit for bit.
_REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _ref_dp5_step(rhs, r, y, k1, h):
    ks = [k1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    for i in range(1, 7):
        yi = y
        a = _REF_A[i]
        for j in range(i):
            yi += h * a[j] * ks[j]
        if not math.isfinite(yi):
            return math.nan, math.inf, math.nan
        ks[i] = rhs(r + _REF_C[i] * h, yi)
    err = 0.0
    for j in range(7):
        err += _REF_E[j] * ks[j]
    return yi, err * h, ks[6]


class _Rejected(Exception):
    pass


def _ref_tail_step(p, s, r, sigma):
    """The tableau step of r over ``phase.s_rhs``, where a stage at which
    s_rhs raises is a rejection, as it is for the tail kernel."""
    def rhs(x, v):
        try:
            return s_rhs(p, x, v)
        except ValueError:
            raise _Rejected from None
    try:
        return _ref_dp5_step(rhs, s, r, s_rhs(p, s, r), sigma)
    except _Rejected:
        return math.nan, math.inf, math.nan


def _bits(values):
    """Floats as hex, which tells NaN, infinities and the sign of zero apart."""
    return [float(v).hex() for v in values]


KERNEL_SETS = [P12, P23, make_params(2, 10, 8, 1), make_params(4, 8, 4, 3),
               make_params(1, 11, 10, 10)]
_params = st.sampled_from(KERNEL_SETS)
_r = st.floats(min_value=-0.999, max_value=0.999)
_h = st.floats(min_value=-0.01, max_value=0.01).filter(lambda h: h != 0.0)
_sign = st.sampled_from([-1.0, 1.0])


def _kernel_pair(p, r, y, h):
    """(kernel, reference) outcome of one psi step: the values, or the
    error."""
    out = []
    for step in (lambda: _dp5(float(p.n - 1), p.R, float(p.k), r, y, psi_rhs(p, r, y), h),
                 lambda: _ref_dp5_step(lambda x, v: psi_rhs(p, x, v), r, y, psi_rhs(p, r, y), h)):
        try:
            out.append(_bits(step()))
        except ValueError as exc:
            out.append(str(exc))
    return out


def _tail_pair(p, s, r, sigma):
    """(kernel, reference) outcome of one tail step of r in s = 1/psi."""
    k1 = s_rhs(p, s, r)
    return (_bits(_dp5_s(float(p.n - 1), p.R, float(p.k), s, r, k1, sigma)),
            _bits(_ref_tail_step(p, s, r, sigma)))


_s = st.floats(min_value=-0.25, max_value=0.25).filter(lambda s: s != 0.0)


class TestFusedKernels:
    """``_dp5`` and ``_dp5_s`` inline the right-hand sides of phase.py into
    the Dormand-Prince stages; every output must equal the tableau walk."""

    @given(_params, _r, st.floats(min_value=-1e3, max_value=1e3), _h)
    @settings(max_examples=400, deadline=None)
    def test_psi_kernel_is_the_tableau_walk(self, p, r, psi, h):
        fused, ref = _kernel_pair(p, r, psi, h)
        assert fused == ref

    @given(_params, _s, _r, st.floats(min_value=-0.3, max_value=0.3))
    @settings(max_examples=400, deadline=None)
    def test_s_kernel_is_the_tableau_walk(self, p, s, r, sigma):
        """Any step of the tail, from anywhere in its range of s and on to
        the other side of the pole, some of them with stages outside
        |r| < 1."""
        assume(_tail_guard(float(p.n - 1), p.R, r, 1.0 / s))
        fused, ref = _tail_pair(p, s, r, sigma)
        assert fused == ref

    @given(_params, _s, _r)
    @settings(max_examples=400, deadline=None)
    def test_s_step_onto_the_pole_is_the_tableau_walk(self, p, s, r):
        """The landing step sigma = -s, whose last node is s = 0 exactly."""
        assume(_tail_guard(float(p.n - 1), p.R, r, 1.0 / s))
        fused, ref = _tail_pair(p, s, r, -s)
        assert fused == ref
        # dr/ds vanishes at the pole, unless a stage left the domain
        assert float.fromhex(fused[2]) == 0.0 or fused[0] == "nan"

    @given(_params, _r, st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=1e-6, max_value=0.01), _sign)
    @settings(max_examples=400, deadline=None)
    def test_euler_step_is_psi_rhs(self, p, r, psi, h, sign):
        """``euler_walk`` inlines ``psi_rhs``: one step is y + step * psi_rhs."""
        step = sign * h
        rs, ys = euler_walk(p, PhasePoint(r, psi), r + 1.5 * step, h)
        assert _bits((rs[1], ys[1])) == _bits((r + step, psi + step * psi_rhs(p, r, psi)))

    @pytest.mark.parametrize("psi", [1e200, -1e200, 1e155])
    def test_stage_overflow_exits_with_nan(self, psi):
        fused, ref = _kernel_pair(P23, 0.5, psi, 1e-3)
        assert fused == ref
        assert fused == _bits((math.nan, math.inf, math.nan))

    @pytest.mark.parametrize("s, r, sigma", [(0.01, 0.5, 1e6), (0.1, 0.9, 50.0)])
    def test_s_stage_outside_the_domain_rejects(self, s, r, sigma):
        fused, ref = _tail_pair(P23, s, r, sigma)
        assert fused == ref
        assert fused == _bits((math.nan, math.inf, math.nan))

    @pytest.mark.parametrize("r, h", [(0.999, 0.01), (-0.999, -0.01), (0.995, 0.005)])
    def test_stage_past_focal_level_raises(self, r, h):
        fused, ref = _kernel_pair(P23, r, 1.0, h)
        assert fused == ref
        assert fused.startswith("slope equation singular at |r| >= 1")

    @pytest.mark.parametrize("p, seed, want", [
        (P23, K2N3_SUBGRID[7], (
            "TerminationEvent(kind='BlowUpMinus', location=-0.9699070804698392, "
            "endpoint_vprime=None)",
            "TerminationEvent(kind='BlowUpPlus', location=0.8263371693768793, "
            "endpoint_vprime=None)",
            "StepStats(accepted=311, rejected=8, min_step=3.0557203545278355e-08, "
            "max_step=0.01)")),
        (make_params(1, 11, 10, 10), endpoint_seed(make_params(1, 11, 10, 10), -1, 1e-6), (
            "TerminationEvent(kind='BlowUpMinus', location=-0.99999998951418, "
            "endpoint_vprime=None)",
            "TerminationEvent(kind='BlowUpPlus', location=0.3184487966998246, "
            "endpoint_vprime=None)",
            "StepStats(accepted=587, rejected=35, min_step=9.992007221626409e-16, "
            "max_step=0.01)")),
        (make_params(4, 8, 4, 3), PhasePoint(-0.35456322457985834, -7.011799937538605), (
            "TerminationEvent(kind='BlowUpMinus', location=-0.35919523085365523, "
            "endpoint_vprime=None)",
            "TerminationEvent(kind='BlowUpPlus', location=0.9999999999796455, "
            "endpoint_vprime=None)",
            "StepStats(accepted=693, rejected=387, min_step=1.03793709388821e-14, "
            "max_step=0.01)")),
    ])
    def test_pinned_runs(self, p, seed, want):
        """Events and step counts of a k2n3 grid seed, the k=1 n=11 endpoint
        seed (whose left pole sits 1e-8 from the focal level) and the k=4 n=8
        collapse-exit seed, as the tableau walk gave."""
        tr = maximal_trace(p, seed, CFG)
        assert (repr(tr.left_event), repr(tr.right_event), repr(tr.step_stats)) == want


def _half_fields(half):
    """Everything a HalfTrace holds: sample bytes, and the event and stats
    fields with their types (a numpy scalar would show in the repr too)."""
    return (half.seed, half.direction,
            half.r.dtype, half.r.tobytes(), half.psi.tobytes(), half.dpsi.tobytes(),
            [(v, type(v)) for v in dataclasses.astuple(half.event)],
            [(v, type(v)) for v in dataclasses.astuple(half.stats)])


def _leaves_tail(half):
    """Whether the run fell below TAIL_LEAVE after passing TAIL_ENTER."""
    apsi = np.abs(half.psi)
    entered = np.flatnonzero(apsi > TAIL_ENTER)
    return bool(len(entered)) and bool((apsi[entered[0]:] < TAIL_LEAVE).any())


def _lockstep_matches(p, seeds, cfg):
    """Assert the lockstep equals integrate_from lane by lane; the scalar
    halves, for checks of what the inputs reach."""
    lanes = [(s, d) for s in seeds for d in (-1, 1)]
    want = [integrate_from(p, s, d, cfg) for s, d in lanes]
    got = _integrate_lanes(p, lanes, cfg)
    assert len(got) == len(want)
    for lane, g, w in zip(lanes, got, want):
        assert _half_fields(g) == _half_fields(w), lane
    return want


# seeds above TAIL_ENTER that fall back below TAIL_LEAVE in one direction, so
# the walk leaves the tail, on k1n2 and on k2n3
TAIL_LEAVING = [PhasePoint(-0.6, -200.0), PhasePoint(0.6, 200.0), PhasePoint(-0.8, -1e4)]
# within ENDPOINT_TOL of +1 and of -1: the run toward it ends before its
# first step
AT_FOCAL = PhasePoint(1.0 - 2.0**-44, 0.5)
AT_FOCAL_LEFT = PhasePoint(-1.0 + 2.0**-44, -0.5)
K4N8 = make_params(4, 8, 4, 3)


class TestLockstep:
    """``_integrate_lanes`` is ``integrate_from`` for many lanes at once, bit
    for bit, whatever exit each lane takes."""

    @pytest.mark.parametrize("p", [P12, P23], ids=["k1n2", "k2n3"])
    def test_criterion_6_grids(self, p):
        seeds = grid_seeds() + [endpoint_seed(p, -1, CFG.epsilon),
                                endpoint_seed(p, +1, CFG.epsilon)] + TAIL_LEAVING \
            + [AT_FOCAL, AT_FOCAL_LEFT]
        halves = _lockstep_matches(p, seeds, CFG)
        kinds = {h.event.kind for h in halves}
        assert kinds == {BLOWUP_MINUS, BLOWUP_PLUS, REGULAR_ENDPOINT}
        assert sum(map(_leaves_tail, halves[-10:-4])) == len(TAIL_LEAVING)
        # AT_FOCAL rightward, AT_FOCAL_LEFT leftward
        for half in (halves[-3], halves[-2]):
            assert half.stats.accepted == 0 and half.event.kind == REGULAR_ENDPOINT

    def test_budget_exits(self):
        """Some of the lanes run out of steps in the lockstep, and some in the
        tail, which the scalar walk finishes."""
        cfg = IntegratorConfig(max_steps=15)
        halves = _lockstep_matches(P12, grid_seeds() + TAIL_LEAVING, cfg)
        budget = [h for h in halves if h.event.kind == BUDGET_EXHAUSTED]
        assert len(budget) > 800
        assert sum(abs(h.psi[-1]) > TAIL_ENTER for h in budget) > 100

    def test_threshold_exits(self):
        cfg = IntegratorConfig(blowup_threshold=50.0)
        halves = _lockstep_matches(P23, grid_seeds(), cfg)
        blowups = [h for h in halves if h.event.kind != REGULAR_ENDPOINT]
        # far short of any pole every blow-up is the threshold exit, at the
        # last sample
        assert blowups and all(h.event.location == h.r[-1] for h in blowups)

    def test_step_collapse_exits(self):
        """A k=1 n=11 endpoint seed 1e-9 from its focal level and a k=4 n=8
        seed (see TestFusedKernels.test_pinned_runs) end by step collapse,
        among grid lanes."""
        p11 = make_params(1, 11, 10, 10)
        for p, seed in ((p11, endpoint_seed(p11, -1, 1e-9)),
                        (K4N8, PhasePoint(-0.35456322457985834, -7.011799937538605))):
            halves = _lockstep_matches(p, [seed] + K2N3_SUBGRID, CFG)
            assert min(halves[0].stats.min_step, halves[1].stats.min_step) < 1e-13

    def test_lanes_that_accept_no_step(self):
        """Every attempt rejected: the budget exit sits at the seed, a float
        (and the samples float64) for an int seed too."""
        cfg = IntegratorConfig(tol=1e-300, max_steps=3)
        seeds = [PhasePoint(0.0, 0.0), PhasePoint(0.5, 1.0), PhasePoint(0, 2)]
        halves = _lockstep_matches(P12, seeds, cfg)
        assert all(h.stats.accepted == 0 and h.event.kind == BUDGET_EXHAUSTED for h in halves)

    def test_bad_direction_raises(self):
        with pytest.raises(ValueError, match="direction"):
            _integrate_lanes(P12, [(PhasePoint(0.0, 0.0), 1), (PhasePoint(0.0, 0.0), 0)], CFG)
