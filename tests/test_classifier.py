"""Shape taxonomy: the seven listed types, the fallback, domain statements."""

import dataclasses
import math

import numpy as np
import pytest

from isosoliton import classifier
from isosoliton import (
    BLOWUP_MINUS,
    BLOWUP_PLUS,
    CROSSING_ZERO,
    Crossing,
    IntegratorConfig,
    PhasePoint,
    ROMANS,
    StepStats,
    TerminationEvent,
    Trace,
    UNLISTED,
    classification_report,
    classify,
    domain_report,
    endpoint_seed,
    grid_seeds,
    make_params,
    maximal_trace,
    sweep,
    sweep_to_dict,
    theta_of_level,
    type_correspondence,
)
from isosoliton.classifier import shape_to_dict

P12 = make_params(1, 2, 1, 1)
P23 = make_params(2, 3, 1, 1)
CFG = IntegratorConfig()


def _classify_seed(p, r, psi, cfg=CFG):
    return classify(maximal_trace(p, PhasePoint(r, psi), cfg))


class TestSevenTypes:
    def test_type_i_symmetric_seed(self):
        shape = _classify_seed(P12, 0.0, 0.0)
        assert shape.v_type == "I"
        assert shape.psi_type == "I''"
        assert shape.vprime_type == "I'"
        assert shape.zero_crossing == pytest.approx(0.0, abs=1e-9)

    def test_type_ii_crossing_left_of_singular_level(self):
        shape = _classify_seed(P12, -0.63, 0.5)
        assert shape.v_type == "II"
        assert shape.zero_crossing < P12.R - 1e-3

    def test_type_iii_crossing_right(self):
        shape = _classify_seed(P12, 0.63, -0.5)
        assert shape.v_type == "III"
        assert shape.zero_crossing > P12.R + 1e-3

    def test_type_iv_positive_slope_everywhere(self):
        shape = _classify_seed(P12, -0.5, 3.0)
        assert shape.v_type == "IV"
        assert shape.zero_crossing is None

    def test_type_v_negative_slope_everywhere(self):
        shape = _classify_seed(P12, 0.5, -3.0)
        assert shape.v_type == "V"

    def test_type_vi_regular_at_minus_one(self):
        tr = maximal_trace(P12, endpoint_seed(P12, -1, 1e-6), CFG)
        shape = classify(tr)
        assert shape.v_type == "VI"
        assert tr.left_event.kind == "RegularEndpoint"
        assert tr.right_event.kind == BLOWUP_PLUS

    @pytest.mark.xfail(strict=True, reason=(
        "the run from the endpoint seed toward its own focal level amplifies "
        "the seeding error by ~100^5 and ends at the step-collapse exit"))
    def test_type_vi_endpoint_seed_k1_n11(self):
        p = make_params(1, 11, 10, 10)
        tr = maximal_trace(p, endpoint_seed(p, -1, CFG.epsilon), CFG)
        assert tr.left_event.kind == "RegularEndpoint"
        assert classify(tr).v_type == "VI"

    def test_type_vii_regular_at_plus_one(self):
        shape = classify(maximal_trace(P12, endpoint_seed(P12, +1, 1e-6), CFG))
        assert shape.v_type == "VII"

    def test_mirror_symmetry_of_assignments(self):
        """R = 0 flows: reflecting the seed swaps II with III and IV with V."""
        pairs = [((-0.4, 1.0), (0.4, -1.0)), ((-0.2, 2.5), (0.2, -2.5))]
        swap = {"II": "III", "III": "II", "IV": "V", "V": "IV", "I": "I"}
        for (r1, s1), (r2, s2) in pairs:
            a = _classify_seed(P12, r1, s1)
            b = _classify_seed(P12, r2, s2)
            assert swap[a.v_type] == b.v_type

    def test_at_most_one_zero_crossing(self):
        for r, psi in [(0.0, 0.0), (-0.63, 0.5), (0.3, -1.2), (-0.5, 3.0)]:
            tr = maximal_trace(P12, PhasePoint(r, psi), CFG)
            zeros = [c for c in tr.crossings if c.kind == CROSSING_ZERO]
            assert len(zeros) <= 1


class TestNamesAndTable:
    def test_level_names_are_consistent(self):
        for v_name in ROMANS:
            vp_name, got_v = type_correspondence(v_name + "''")
            assert vp_name == v_name + "'"
            assert got_v == v_name

    def test_correspondence_rejects_unknown(self):
        with pytest.raises(ValueError):
            type_correspondence("VIII''")
        assert type_correspondence(UNLISTED) == (UNLISTED, UNLISTED)

    def test_shape_to_dict(self):
        shape = _classify_seed(P12, 0.0, 0.0)
        d = shape_to_dict(shape)
        assert d["psi"] == "I''" and d["vprime"] == "I'" and d["v"] == "I"
        assert "zero_crossing" in d


def _synthetic_trace(left_kind, right_kind, psi_values):
    """Hand-built trace for feature combinations the flow cannot produce."""
    r = np.linspace(-0.4, 0.4, len(psi_values))
    psi = np.asarray(psi_values, dtype=float)
    sq = np.sqrt(1.0 - r * r)
    return Trace(
        params=P12,
        seed=PhasePoint(0.0, float(psi[len(psi) // 2])),
        cfg=CFG,
        r=r,
        psi=psi,
        dpsi=np.zeros_like(r),
        vprime=psi / sq,
        v=np.zeros_like(r),
        left_event=TerminationEvent(kind=left_kind, location=-0.5),
        right_event=TerminationEvent(kind=right_kind, location=0.5),
        crossings=(),
        step_stats=StepStats(accepted=len(psi_values), rejected=0,
                             min_step=0.1, max_step=0.1),
    )


class TestFallback:
    def test_impossible_combination_is_unlisted(self):
        tr = _synthetic_trace(BLOWUP_PLUS, BLOWUP_MINUS, [5.0, 3.0, 2.0, 1.5, 1.0])
        shape = classify(tr)
        assert shape.is_unlisted
        assert shape.v_type == UNLISTED

    def test_incomplete_trace_rejected(self):
        tiny = dataclasses.replace(CFG, max_steps=4)
        tr = maximal_trace(P12, PhasePoint(0.0, 0.0), tiny)
        with pytest.raises(ValueError, match="incomplete"):
            classify(tr)

    def test_unlisted_has_no_domain_statement(self):
        tr = _synthetic_trace(BLOWUP_PLUS, BLOWUP_MINUS, [5.0, 3.0, 2.0, 1.5, 1.0])
        with pytest.raises(ValueError):
            domain_report(P12, classify(tr))


class TestDomainStatements:
    def test_k1_pole_membership(self):
        shape = classify(maximal_trace(P12, endpoint_seed(P12, -1, 1e-6), CFG))
        dom = domain_report(P12, shape)
        assert dom.contains_focal_minus and not dom.contains_focal_plus
        assert dom.description["q_in_domain"] is True
        assert dom.description["p_in_domain"] is False

    def test_k1_interior_types_miss_both_poles(self):
        dom = domain_report(P12, _classify_seed(P12, 0.0, 0.0))
        assert not dom.contains_focal_minus and not dom.contains_focal_plus

    def test_k2_colatitude_interval_type_vii(self):
        tr = maximal_trace(P23, endpoint_seed(P23, +1, 1e-6), CFG)
        shape = classify(tr)
        dom = domain_report(P23, shape)
        d = dom.description
        assert d["theta_lo"] == 0.0 and d["closed_lo"] is True
        assert d["closed_hi"] is False
        assert d["theta_hi"] == pytest.approx(
            theta_of_level(tr.left_event.location), rel=1e-12)
        assert 0.0 < d["theta_hi"] < 0.5 * math.pi

    def test_k2_interior_interval_is_open_and_ordered(self):
        dom = domain_report(P23, _classify_seed(P23, 0.0, 0.0))
        d = dom.description
        assert d["closed_lo"] is False and d["closed_hi"] is False
        assert 0.0 < d["theta_lo"] < d["theta_hi"] < 0.5 * math.pi

    def test_k3_orbit_statement(self):
        p = make_params(3, 5, 1, 1)
        shape = _classify_seed(p, 0.0, 0.0, dataclasses.replace(CFG, tol=1e-9))
        dom = domain_report(p, shape)
        assert dom.description["principal_orbits_only"] is True

    def test_large_degree_rejected(self):
        p = make_params(4, 10, 4, 2)
        shape = _classify_seed(p, 0.0, 0.1)
        with pytest.raises(ValueError, match="k in"):
            domain_report(p, shape)

    def test_report_is_json_ready(self):
        import json
        tr = maximal_trace(P12, PhasePoint(0.0, 0.0), CFG)
        shape = classify(tr)
        rep = classification_report(tr, shape, domain_report(P12, shape))
        text = json.dumps(rep)
        assert "zero_crossing" in text


class TestCrossingTol:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_bad_tol_rejected(self, tol):
        tr = maximal_trace(P12, PhasePoint(0.0, 0.0), CFG)
        with pytest.raises(ValueError, match="crossing tol"):
            classify(tr, tol=tol)

    def test_zero_tol_accepted(self):
        # the k=1 n=2 zero crossing from (0, 0) sits at r = 0 = R exactly
        tr = maximal_trace(P12, PhasePoint(0.0, 0.0), CFG)
        assert classify(tr, tol=0.0).v_type == "I"


class TestSweep:
    def test_grid_order_and_count(self):
        seeds = grid_seeds((-0.5, 0.5), (-1.0, 1.0), 3, 5)
        assert len(seeds) == 15
        assert seeds[0] == PhasePoint(-0.5, -1.0)
        assert seeds[4] == PhasePoint(-0.5, 1.0)   # psi varies fastest
        assert seeds[5] == PhasePoint(0.0, -1.0)

    def test_small_sweep_histogram(self):
        seeds = grid_seeds((-0.6, 0.6), (-3.0, 3.0), 3, 3)
        res = sweep(P12, seeds, cfg=CFG)
        assert sum(res.histogram.values()) == len(seeds)
        assert not res.errors
        assert not res.unlisted

    def test_parallel_matches_serial(self):
        seeds = grid_seeds((-0.6, 0.6), (-3.0, 3.0), 3, 3)
        serial = sweep(P12, seeds, cfg=CFG, workers=1)
        parallel = sweep(P12, seeds, cfg=CFG, workers=2)
        assert serial.histogram == parallel.histogram
        for a, b in zip(serial.entries, parallel.entries):
            assert a.seed == b.seed
            assert shape_to_dict(a.shape) == shape_to_dict(b.shape)

    def test_numeric_failure_is_per_seed_data(self, monkeypatch):
        def fail(p, seed, cfg):
            raise ValueError("no trace")

        monkeypatch.setattr(classifier, "maximal_trace", fail)
        res = sweep(P12, [PhasePoint(0.0, 0.0)], cfg=CFG, workers=1)
        assert res.errors == ((PhasePoint(0.0, 0.0), "ValueError: no trace"),)
        assert res.entries[0].shape is None

    def test_programming_error_propagates(self, monkeypatch):
        def broken(p, seed, cfg):
            raise TypeError("bad call")

        monkeypatch.setattr(classifier, "maximal_trace", broken)
        with pytest.raises(TypeError, match="bad call"):
            sweep(P12, [PhasePoint(0.0, 0.0)], cfg=CFG, workers=1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_crossing_tol_raises_before_any_seed(self, monkeypatch, tol):
        def never(p, seed, cfg):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(classifier, "maximal_trace", never)
        with pytest.raises(ValueError, match="crossing tol"):
            sweep(P12, [PhasePoint(0.0, 0.0)], cfg=CFG, tol=tol, workers=1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_workers_raise_before_any_seed(self, monkeypatch, workers):
        def never(p, seed, cfg):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(classifier, "maximal_trace", never)
        with pytest.raises(ValueError, match="workers"):
            sweep(P12, [PhasePoint(0.0, 0.0)], cfg=CFG, workers=workers)

    # (workers asked, seeds, usable CPUs, pool size or None for serial);
    # a chunk is 8 seeds
    @pytest.mark.parametrize("workers, n_seeds, cpus, pool", [
        (64, 17, 2, 2),      # clamped to the CPUs
        (64, 9, 8, 2),       # clamped to one worker per chunk
        (3, 25, 8, 3),       # as asked
        (4, 8, 8, None),     # one chunk runs serially
        (64, 17, 1, None),   # one CPU runs serially
        (1, 17, 8, None),
    ])
    def test_pool_size_is_clamped(self, monkeypatch, fake_pool, workers, n_seeds, cpus, pool):
        monkeypatch.setattr(classifier.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        seeds = grid_seeds((-0.6, 0.6), (-3.0, 3.0), n_seeds, 1)
        res = sweep(P12, seeds, cfg=CFG, workers=workers)
        assert fake_pool == ([] if pool is None else [pool])
        assert [e.seed for e in res.entries] == seeds
        assert sum(res.histogram.values()) == n_seeds

    def test_sweep_to_dict_structure(self):
        seeds = grid_seeds((-0.3, 0.3), (-1.0, 1.0), 2, 2)
        d = sweep_to_dict(sweep(P12, seeds, cfg=CFG))
        assert d["n_seeds"] == 4
        assert set(d) == {"params", "n_seeds", "histogram", "unlisted", "errors", "types"}
        assert len(d["types"]) == 4
