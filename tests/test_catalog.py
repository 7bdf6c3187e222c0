"""Parameter catalog: validation rules, derived constants, serialization."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from isosoliton import (
    alpha,
    beta,
    make_params,
    params_from_dict,
    params_to_dict,
)
from isosoliton.catalog import ADMISSIBLE_K


class TestValidation:
    def test_admissible_degrees(self):
        for k in (1, 2, 3, 4, 6):
            assert k in ADMISSIBLE_K

    def test_rejects_other_degrees(self):
        for k in (0, 5, 7, -1):
            with pytest.raises(ValueError):
                make_params(k, 4, 1, 1)

    @pytest.mark.parametrize("fields", [(2.0, 3, 1, 1), (True, 2, True, True),
                                        (2, 3, True, True)])
    def test_non_int_fields_rejected(self, fields):
        with pytest.raises(ValueError):
            make_params(*fields)

    def test_dict_with_integral_floats_loads(self):
        k = params_to_dict(params_from_dict({"k": 2.0, "n": 3.0, "m1": 1.0, "m2": 1.0}))["k"]
        assert (k, type(k)) == (2, int)

    def test_equal_multiplicity_enforced(self):
        for k in (1, 3, 6):
            with pytest.raises(ValueError, match="equal multiplicities"):
                make_params(k, 8, 1, 2)

    def test_k2_dimension_relation(self):
        with pytest.raises(ValueError, match="m1 \\+ m2"):
            make_params(2, 3, 2, 1)
        p = make_params(2, 4, 2, 1)
        assert (p.m1, p.m2) == (2, 1)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_params(1, 1, 1, 1)

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            make_params(2, 4, 0, 3)

    def test_derived_level_must_be_interior(self):
        # k=4, m2 large enough to push R past +1
        with pytest.raises(ValueError, match="outside"):
            make_params(4, 3, 1, 1)


class TestDerivedConstants:
    def test_equal_multiplicity_level_is_zero(self):
        assert make_params(1, 2, 1, 1).R == 0.0
        assert make_params(3, 5, 1, 1).R == 0.0
        assert make_params(6, 7, 1, 1).R == 0.0

    def test_k2_level(self):
        p = make_params(2, 4, 1, 2)
        assert p.R == pytest.approx(-1.0 + 2.0 * 2.0 / 3.0, abs=1e-15)
        q = make_params(2, 4, 2, 1)
        assert q.R == pytest.approx(-1.0 + 2.0 * 1.0 / 3.0, abs=1e-15)

    def test_gradient_modulus_examples(self):
        p = make_params(2, 4, 2, 1)
        assert alpha(p, 0.0) == 4.0
        assert alpha(p, 1.0) == 0.0
        assert alpha(p, 0.5) == pytest.approx(3.0, abs=1e-15)

    def test_laplacian_examples(self):
        p = make_params(2, 4, 2, 1)
        # ((m2-m1)/2) k^2 - k (n+k-1) r at r=0 and r=1
        assert beta(p, 0.0) == pytest.approx(-2.0, abs=1e-15)
        assert beta(p, 1.0) == pytest.approx(-2.0 - 10.0, abs=1e-15)

    def test_domain_guard(self):
        p = make_params(1, 2, 1, 1)
        with pytest.raises(ValueError):
            alpha(p, 1.5)
        with pytest.raises(ValueError):
            beta(p, -1.0001)


valid_k2 = st.integers(min_value=1, max_value=8).flatmap(
    lambda m1: st.integers(min_value=1, max_value=8).map(lambda m2: (m1, m2))
)


class TestProperties:
    @given(valid_k2)
    @settings(max_examples=100, deadline=None)
    def test_k2_level_interior(self, ms):
        m1, m2 = ms
        p = make_params(2, m1 + m2 + 1, m1, m2)
        assert -1.0 < p.R < 1.0

    @given(valid_k2, st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_gradient_modulus_nonnegative(self, ms, r):
        m1, m2 = ms
        p = make_params(2, m1 + m2 + 1, m1, m2)
        assert alpha(p, r) >= 0.0

    @given(valid_k2)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_dict(self, ms):
        m1, m2 = ms
        p = make_params(2, m1 + m2 + 1, m1, m2)
        assert params_from_dict(params_to_dict(p)) == p

    def test_dict_keys_exact(self):
        d = params_to_dict(make_params(1, 3, 2, 2))
        assert set(d) == {"k", "n", "m1", "m2", "R"}

    def test_tampered_level_rejected(self):
        d = params_to_dict(make_params(2, 4, 1, 2))
        for edit in ({"R": d["R"] + 1e-6}, {"R": math.nan}, {"k": 2.9, "n": 3.7},
                     {"m1": 1.5}, {"n": math.inf}):
            with pytest.raises(ValueError):
                params_from_dict({**d, **edit})
