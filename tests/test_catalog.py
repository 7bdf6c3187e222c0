"""Parameter catalog: validation rules, derived constants, serialization."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from isosoliton import (
    SolitonParams,
    alpha,
    beta,
    make_params,
    params_from_dict,
    params_to_dict,
)
from isosoliton.catalog import ADMISSIBLE_K

# SolitonParams validates itself; make_params makes the same call
SPELLINGS = (make_params, SolitonParams)

# every rejection message, worded as make_params worded it when it held the
# checks itself
REJECTIONS = [
    ((0, 4, 1, 1), "k must be one of (1, 2, 3, 4, 6), got 0"),
    ((5, 4, 1, 1), "k must be one of (1, 2, 3, 4, 6), got 5"),
    ((2.0, 3, 1, 1), "k must be one of (1, 2, 3, 4, 6), got 2.0"),
    ((True, 2, True, True), "k must be one of (1, 2, 3, 4, 6), got True"),
    ((2, 3, True, True), "multiplicities must be integers, got m1=True, m2=True"),
    ((1, 1, 1, 1), "ambient sphere dimension n must be an integer >= 2, got 1"),
    ((2, 3.0, 1, 1), "ambient sphere dimension n must be an integer >= 2, got 3.0"),
    ((2, 4, 0, 3), "multiplicities must be >= 1, got m1=0, m2=3"),
    ((1, 8, 1, 2), "k=1 forces equal multiplicities, got m1=1, m2=2"),
    ((6, 8, 2, 3), "k=6 forces equal multiplicities, got m1=2, m2=3"),
    ((2, 3, 2, 1), "k=2 requires m1 + m2 == n - 1, got m1=2, m2=1, n=3"),
    ((2, 3, 1, 2), "k=2 requires m1 + m2 == n - 1, got m1=1, m2=2, n=3"),
    ((4, 3, 1, 1), "derived level R=1.0 outside (-1, 1) for k=4, n=3, m2=1"),
]


class TestValidation:
    def test_admissible_degrees(self):
        for k in (1, 2, 3, 4, 6):
            assert k in ADMISSIBLE_K

    def test_rejects_other_degrees(self):
        for build in SPELLINGS:
            for k in (0, 5, 7, -1):
                with pytest.raises(ValueError):
                    build(k, 4, 1, 1)

    @pytest.mark.parametrize("fields", [(2.0, 3, 1, 1), (True, 2, True, True),
                                        (2, 3, True, True)])
    def test_non_int_fields_rejected(self, fields):
        for build in SPELLINGS:
            with pytest.raises(ValueError):
                build(*fields)

    def test_dict_with_integral_floats_loads(self):
        k = params_to_dict(params_from_dict({"k": 2.0, "n": 3.0, "m1": 1.0, "m2": 1.0}))["k"]
        assert (k, type(k)) == (2, int)

    @pytest.mark.parametrize("d", [{"k": True, "n": 2, "m1": 1, "m2": 1},
                                   {"k": "2", "n": "3", "m1": "1", "m2": "1"}])
    def test_dict_with_non_number_fields_rejected(self, d):
        with pytest.raises(ValueError):
            params_from_dict(d)

    def test_dict_with_large_int_loads_exactly(self):
        big = 2**53 + 1
        assert params_from_dict({"k": 1, "n": big, "m1": big - 1, "m2": big - 1}).n == big

    def test_equal_multiplicity_enforced(self):
        for build in SPELLINGS:
            for k in (1, 3, 6):
                with pytest.raises(ValueError, match="equal multiplicities"):
                    build(k, 8, 1, 2)

    def test_k2_dimension_relation(self):
        for build in SPELLINGS:
            with pytest.raises(ValueError, match="m1 \\+ m2"):
                build(2, 3, 2, 1)
            p = build(2, 4, 2, 1)
            assert (p.m1, p.m2) == (2, 1)

    def test_small_dimension_rejected(self):
        for build in SPELLINGS:
            with pytest.raises(ValueError):
                build(1, 1, 1, 1)

    def test_nonpositive_multiplicity_rejected(self):
        for build in SPELLINGS:
            with pytest.raises(ValueError):
                build(2, 4, 0, 3)

    def test_derived_level_must_be_interior(self):
        # k=4, m2 large enough to push R past +1
        for build in SPELLINGS:
            with pytest.raises(ValueError, match="outside"):
                build(4, 3, 1, 1)

    @pytest.mark.parametrize("build", SPELLINGS, ids=["make_params", "SolitonParams"])
    @pytest.mark.parametrize("fields, message", REJECTIONS)
    def test_rejection_message(self, build, fields, message):
        with pytest.raises(ValueError) as e:
            build(*fields)
        assert str(e.value) == message

    def test_level_is_no_constructor_argument(self):
        with pytest.raises(TypeError):
            SolitonParams(2, 3, 1, 1, 0.7)
        with pytest.raises(TypeError):
            SolitonParams(2, 3, 1, 1, R=0.7)


class TestDerivedConstants:
    def test_level_matches_the_closed_form_bit_for_bit(self):
        """R = 0 for k in {1, 3, 6}, else -1 + k m2 / (n - 1), on every
        admissible tuple with n, m1, m2 <= 16."""
        checked = 0
        for k in ADMISSIBLE_K:
            for n in range(2, 17):
                for m1 in range(1, 17):
                    for m2 in range(1, 17):
                        try:
                            p = SolitonParams(k, n, m1, m2)
                        except ValueError:
                            continue
                        want = 0.0 if k in (1, 3, 6) else -1.0 + k * m2 / (n - 1)
                        assert p.R.hex() == want.hex(), (k, n, m1, m2)
                        assert make_params(k, n, m1, m2) == p
                        checked += 1
        assert checked == 1609

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
