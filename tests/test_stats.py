"""Significance machinery against textbook values and scipy."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from cspnet.errors import ParameterError
from cspnet.stats import (
    bh_adjust,
    betainc_regularized,
    paired_ttest,
    student_t_sf_two_sided,
)


def exact_t_sf_two_sided(t, df):
    """P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2), in 50-digit arithmetic."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        x = df / (df + t * t)
        return float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2,
                                    0, x, regularized=True))


class TestIncompleteBeta:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(0.5, 30.0),
        b=st.floats(0.5, 30.0),
        x=st.floats(0.0, 1.0),
    )
    def test_matches_scipy(self, a, b, x):
        assert abs(betainc_regularized(a, b, x) - special.betainc(a, b, x)) < 1e-10

    def test_endpoints(self):
        assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
        assert betainc_regularized(2.0, 3.0, 1.0) == 1.0


class TestPairedTtest:
    def test_identical_samples(self):
        t, p = paired_ttest([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert t == 0.0 and p == 1.0

    def test_textbook_example(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        t, p = paired_ttest(a + 10.0, np.full(5, 10.0))
        assert abs(t - 4.242640687) < 1e-8
        assert abs(p - 0.01324) < 1e-4

    def test_swap_negates_t(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=8)
        b = rng.uniform(size=8)
        t1, p1 = paired_ttest(a, b)
        t2, p2 = paired_ttest(b, a)
        assert abs(t1 + t2) < 1e-12
        assert abs(p1 - p2) < 1e-12

    def test_constant_nonzero_difference(self):
        t, p = paired_ttest([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert np.isinf(t) and t > 0
        assert p == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            paired_ttest([1.0, 2.0], [1.0])

    def test_single_pair_rejected(self):
        with pytest.raises(ParameterError):
            paired_ttest([1.0], [2.0])

    def test_hundred_random_instances_match_scipy(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            a = rng.standard_normal(n)
            b = a + rng.standard_normal(n) * rng.uniform(0.01, 2.0)
            t, p = paired_ttest(a, b)
            ref = stats.ttest_rel(a, b)
            assert abs(t - ref.statistic) < 1e-8
            assert abs(p - ref.pvalue) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(df=st.integers(1, 200), t=st.floats(-30, 30))
    @example(df=3, t=1.19e-7)
    def test_sf_matches_scipy_t(self, df, t):
        # 2 * scipy.stats.t.sf is off by up to 6.4e-10 near t = 0 at df=1,
        # so the reference is the exact tail evaluated at 50 digits
        mine = student_t_sf_two_sided(t, df)
        assert abs(mine - exact_t_sf_two_sided(t, df)) < 1e-10

    def test_sf_keeps_small_tails(self):
        mine = student_t_sf_two_sided(14.0, 200)
        ref = exact_t_sf_two_sided(14.0, 200)
        assert abs(mine - ref) <= 1e-12 * ref


class TestBhAdjust:
    def test_equal_ratio_block(self):
        np.testing.assert_allclose(
            bh_adjust([0.01, 0.02, 0.03]), [0.03, 0.03, 0.03]
        )

    def test_single_value_unchanged(self):
        np.testing.assert_allclose(bh_adjust([0.2]), [0.2])

    def test_hand_computed_four(self):
        got = bh_adjust([0.005, 0.011, 0.02, 0.04])
        np.testing.assert_allclose(got, [0.02, 0.022, 0.02 * 4 / 3, 0.04])

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            bh_adjust([0.5, 1.2])
        with pytest.raises(ParameterError):
            bh_adjust([-0.1])

    @settings(max_examples=40, deadline=None)
    @given(
        ps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)
    )
    def test_dominates_input_and_matches_scipy(self, ps):
        got = bh_adjust(ps)
        assert np.all(got >= np.asarray(ps) - 1e-15)
        assert np.all(got <= 1.0 + 1e-15)
        ref = stats.false_discovery_control(ps, method="bh")
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_monotone_in_sorted_order(self):
        rng = np.random.default_rng(7)
        ps = rng.uniform(size=20)
        got = bh_adjust(ps)
        order = np.argsort(ps)
        assert np.all(np.diff(got[order]) >= -1e-15)
