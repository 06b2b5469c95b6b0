"""Closed-form cdfs, moments and race probabilities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import beta

from exporder.convergence import _zn_cdf_array
from exporder.distributions import (
    GammaParams,
    orderstat_cdf,
    orderstat_mean,
    orderstat_var,
    race_probability_exact,
)
from exporder.laplace import OrderStatParams

F = Fraction

ALL_PAIRS_N10 = [(n, k) for n in range(1, 11) for k in range(1, n + 1)]


class TestPdf:
    """The density's defining facts, read off orderstat_cdf, its integral from 0."""

    def test_minimum_density_at_zero(self):
        # the minimum of two has density 2 at 0, so F(h) = 2h - O(h^2)
        h = 1e-9
        assert orderstat_cdf(OrderStatParams(2, 1), h) / h == pytest.approx(2.0, rel=1e-8)

    def test_reduces_to_parent_density(self):
        p = OrderStatParams(1, 1)
        for t in (0.0, 0.3, 1.7, 5.0):
            assert orderstat_cdf(p, t) == pytest.approx(-math.expm1(-t), rel=1e-14)

    @pytest.mark.parametrize("n,k", ALL_PAIRS_N10)
    def test_integrates_to_one(self, n, k):
        # the mass above t = 30 is below n e^-30 < 1e-12; there w = 1 - e^-30
        # is still below 1.0, so every binomial term is summed
        p = OrderStatParams(n, k)
        assert orderstat_cdf(p, 0.0) == 0.0
        assert abs(orderstat_cdf(p, 30.0) - 1.0) < 1e-11

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            orderstat_cdf(OrderStatParams(2, 1), -0.1)


class TestCdf:
    def test_hand_value_at_log2(self):
        # minimum of two exponentials: 1 - e^(-2 ln 2) = 3/4
        assert orderstat_cdf(OrderStatParams(2, 1), math.log(2)) == pytest.approx(0.75)

    def test_zero_boundary(self):
        for n, k in [(1, 1), (5, 3), (10, 10)]:
            assert orderstat_cdf(OrderStatParams(n, k), 0.0) == 0.0

    def test_matches_integrated_pdf(self):
        # X_(k) <= t exactly when Beta(k, n-k+1) <= w = 1 - e^-t
        p = OrderStatParams(3, 2)
        assert abs(orderstat_cdf(p, 1.0) - beta.cdf(-math.expm1(-1.0), 2, 2)) < 1e-8

    @pytest.mark.parametrize("n,k", ALL_PAIRS_N10)
    def test_monotone_on_grid(self, n, k):
        p = OrderStatParams(n, k)
        grid = np.linspace(0.0, 10.0, 1000)
        vals = np.array([orderstat_cdf(p, t) for t in grid])
        # nondecreasing up to per-term float rounding: the w^m powers cost
        # ~m ulps each, so the plateau near 1 wobbles at the 1e-15 scale
        assert np.all(np.diff(vals) >= -5e-15)
        assert np.all(vals <= 1.0 + 5e-15)

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (6, 6)])
    def test_infinite_t(self, n, k):
        assert orderstat_cdf(OrderStatParams(n, k), math.inf) == 1.0

    @pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (6, 6), (10, 3)])
    def test_derivative_matches_pdf(self, n, k):
        # the density of X_(k) is that of Beta(k, n-k+1) at w = 1 - e^-t times dw/dt = e^-t
        p = OrderStatParams(n, k)
        h = 1e-5
        for t in np.linspace(0.1, 9.9, 99):
            fd = (orderstat_cdf(p, t + h) - orderstat_cdf(p, t - h)) / (2 * h)
            assert abs(fd - beta.pdf(-math.expm1(-t), k, n - k + 1) * math.exp(-t)) < 1e-6


class TestLargeSampleSizes:
    """n past ~1,030, where C(n, k) no longer fits in a float."""

    @pytest.mark.parametrize("n,k", [(1100, 550), (2000, 1000), (20000, 10000)])
    @pytest.mark.parametrize("t", [0.66, 0.7, 0.72])
    def test_matches_scipy_beta(self, n, k, t):
        # X_(k) <= t exactly when Beta(k, n-k+1) <= w = 1 - e^-t
        p = OrderStatParams(n, k)
        w = -math.expm1(-t)
        assert orderstat_cdf(p, t) == pytest.approx(beta.cdf(w, k, n - k + 1), rel=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        data=st.data(),
        t=st.floats(0.0, 50.0),
        gap=st.floats(0.0, 1.0),
    )
    def test_cdf_bounded_and_monotone(self, n, data, t, gap):
        p = OrderStatParams(n, data.draw(st.integers(1, n)))
        lo, hi = orderstat_cdf(p, t), orderstat_cdf(p, t + gap)
        assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
        # each term carries ~n ulps of rounding (2e-13 measured at n = 5,000)
        assert lo <= hi * (1.0 + 1e-11)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3000), data=st.data(), t=st.floats(0.0, allow_nan=False))
    def test_pdf_nonnegative_and_finite(self, n, data, t):
        # a finite, nonnegative density is a cdf in [0, 1] that never falls,
        # here over the whole float range of t, inf included
        p = OrderStatParams(n, data.draw(st.integers(1, n)))
        lo, hi = orderstat_cdf(p, t), orderstat_cdf(p, 2 * t)
        assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
        assert lo <= hi * (1.0 + 1e-11)


class TestMoments:
    def test_known_values(self):
        assert orderstat_mean(OrderStatParams(3, 3)) == F(11, 6)
        assert orderstat_mean(OrderStatParams(5, 1)) == F(1, 5)
        assert orderstat_mean(OrderStatParams(2, 2)) == F(3, 2)
        assert orderstat_var(OrderStatParams(3, 3)) == F(49, 36)
        assert orderstat_var(OrderStatParams(5, 1)) == F(1, 25)
        assert orderstat_var(OrderStatParams(2, 2)) == F(5, 4)

    def test_harmonic_difference_oracle(self):
        """Mean and variance equal differences of (squared) harmonic sums."""
        H = [F(0)]
        H2 = [F(0)]
        for j in range(1, 21):
            H.append(H[-1] + F(1, j))
            H2.append(H2[-1] + F(1, j * j))
        for n in range(1, 21):
            for k in range(1, n + 1):
                p = OrderStatParams(n, k)
                assert orderstat_mean(p) == H[n] - H[n - k]
                assert orderstat_var(p) == H2[n] - H2[n - k]

    def test_quadrature_spot_check(self):
        # E X = integral of P(X > t) over t >= 0
        p = OrderStatParams(4, 2)
        mean, _ = quad(lambda t: 1.0 - orderstat_cdf(p, t), 0, np.inf)
        assert abs(mean - float(orderstat_mean(p))) < 1e-9


class TestGammaParams:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            GammaParams(0, 1)
        with pytest.raises(ValueError):
            GammaParams(1.0, 0)
        with pytest.raises(ValueError):
            GammaParams(1, True)
        with pytest.raises(ValueError):
            GammaParams(True, 1)
        # an infinite rate is no gamma law, as a Python float or a numpy one
        for rate in (float("inf"), np.inf):
            with pytest.raises(ValueError):
                GammaParams(rate, 1)

    def test_huge_exact_rate_accepted(self):
        assert GammaParams(Fraction(10**400), 1).s == 10**400


class TestRaceProbability:
    def test_single_gamma_equals_transform(self):
        assert race_probability_exact(OrderStatParams(3, 2), GammaParams(1, 1)) == F(1, 2)

    def test_shape_two(self):
        assert race_probability_exact(OrderStatParams(1, 1), GammaParams(1, 2)) == F(3, 4)

    def test_min_order_closed_form(self):
        assert race_probability_exact(OrderStatParams(2, 1), GammaParams(1, 2)) == F(8, 9)

    def test_values_strictly_inside_unit_interval(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                for r in (1, 2, 3):
                    for s in (F(1, 3), F(1), F(5)):
                        v = race_probability_exact(OrderStatParams(n, k), GammaParams(s, r))
                        assert 0 < v < 1

    def test_float_rate_rejected(self):
        with pytest.raises(TypeError):
            race_probability_exact(OrderStatParams(2, 1), GammaParams(0.5, 1))


class TestZnCdf:
    """convergence._zn_cdf_array, the shifted-maximum cdf of the tail audit and the Gumbel table."""

    def test_support_boundary_n1(self):
        assert _zn_cdf_array(1, np.array(0.0)) == 0.0

    def test_substitution_value(self):
        assert _zn_cdf_array(2, np.array(math.log(2))) == pytest.approx(9 / 16, rel=1e-14)

    def test_below_support_is_zero(self):
        assert _zn_cdf_array(5, np.array([-math.log(5) - 0.01, -50.0])).tolist() == [0.0, 0.0]

    def test_close_to_gumbel_for_large_n(self):
        assert abs(_zn_cdf_array(10**6, np.array(1.0)) - math.exp(-math.exp(-1.0))) < 1e-6

    def test_monotone_and_bounded(self):
        vals = _zn_cdf_array(10, np.linspace(-2.0, 8.0, 200))
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= 0)
