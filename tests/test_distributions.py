"""Closed-form densities, cdfs, moments, survival and limit functions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc
from scipy.stats import beta

from exporder.distributions import (
    GammaParams,
    erlang_survival,
    gumbel_cdf,
    orderstat_cdf,
    orderstat_mean,
    orderstat_pdf,
    orderstat_var,
    race_probability_exact,
    zn_cdf,
)
from exporder.laplace import OrderStatParams

F = Fraction

ALL_PAIRS_N10 = [(n, k) for n in range(1, 11) for k in range(1, n + 1)]


class TestPdf:
    def test_minimum_density_at_zero(self):
        assert orderstat_pdf(OrderStatParams(2, 1), 0.0) == pytest.approx(2.0)

    def test_reduces_to_parent_density(self):
        p = OrderStatParams(1, 1)
        for t in (0.0, 0.3, 1.7, 5.0):
            assert orderstat_pdf(p, t) == pytest.approx(math.exp(-t), rel=1e-14)

    @pytest.mark.parametrize("n,k", ALL_PAIRS_N10)
    def test_integrates_to_one(self, n, k):
        p = OrderStatParams(n, k)
        total, _ = quad(lambda t: orderstat_pdf(p, t), 0, np.inf)
        assert abs(total - 1.0) < 1e-8

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            orderstat_pdf(OrderStatParams(2, 1), -0.1)


class TestCdf:
    def test_hand_value_at_log2(self):
        # minimum of two exponentials: 1 - e^(-2 ln 2) = 3/4
        assert orderstat_cdf(OrderStatParams(2, 1), math.log(2)) == pytest.approx(0.75)

    def test_zero_boundary(self):
        for n, k in [(1, 1), (5, 3), (10, 10)]:
            assert orderstat_cdf(OrderStatParams(n, k), 0.0) == 0.0

    def test_matches_integrated_pdf(self):
        p = OrderStatParams(3, 2)
        integral, _ = quad(lambda t: orderstat_pdf(p, t), 0, 1.0)
        assert abs(orderstat_cdf(p, 1.0) - integral) < 1e-8

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
        p = OrderStatParams(n, k)
        h = 1e-5
        for t in np.linspace(0.1, 9.9, 99):
            fd = (orderstat_cdf(p, t + h) - orderstat_cdf(p, t - h)) / (2 * h)
            assert abs(fd - orderstat_pdf(p, t)) < 1e-6


class TestLargeSampleSizes:
    """n past ~1,030, where C(n, k) no longer fits in a float."""

    @pytest.mark.parametrize("n,k", [(1100, 550), (2000, 1000), (20000, 10000)])
    @pytest.mark.parametrize("t", [0.66, 0.7, 0.72])
    def test_matches_scipy_beta(self, n, k, t):
        # X_(k) <= t exactly when Beta(k, n-k+1) <= w = 1 - e^-t
        p = OrderStatParams(n, k)
        w = -math.expm1(-t)
        assert orderstat_cdf(p, t) == pytest.approx(beta.cdf(w, k, n - k + 1), rel=1e-11)
        assert orderstat_pdf(p, t) == pytest.approx(
            beta.pdf(w, k, n - k + 1) * math.exp(-t), rel=1e-11
        )

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
        value = orderstat_pdf(OrderStatParams(n, data.draw(st.integers(1, n))), t)
        assert value >= 0.0 and math.isfinite(value)


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
        p = OrderStatParams(4, 2)
        mean, _ = quad(lambda t: t * orderstat_pdf(p, t), 0, np.inf)
        assert abs(mean - float(orderstat_mean(p))) < 1e-9


class TestErlangSurvival:
    def test_exponential_case(self):
        assert erlang_survival(GammaParams(2, 1), 1.0) == pytest.approx(math.exp(-2))

    def test_at_zero(self):
        for r in (1, 3, 7):
            assert erlang_survival(GammaParams(0.5, r), 0.0) == 1.0

    def test_shape_two(self):
        assert erlang_survival(GammaParams(1, 2), 1.0) == pytest.approx(2 * math.exp(-1))

    def test_decreasing_in_x(self):
        g = GammaParams(1.5, 3)
        xs = np.linspace(0, 8, 50)
        vals = [erlang_survival(g, x) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_telescoping(self, r):
        s = 1.25
        for x in (0.1, 1.0, 3.5):
            delta = erlang_survival(GammaParams(s, r), x) - erlang_survival(
                GammaParams(s, r - 1), x
            )
            expected = math.exp(-s * x) * (s * x) ** (r - 1) / math.factorial(r - 1)
            assert delta == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "s,r,x",
        [
            (1, 1000, 800.0),  # e^-sx underflows; the tail sum is ~1
            (1, 800, 760.0),
            (1, 3000, 3500.0),  # deep tail, far from 0 and 1
            (0.5, 50, 3.0),
            (1e-3, 3, 1e5),
            (2.5, 12, 4.0),
        ],
    )
    def test_matches_scipy(self, s, r, x):
        assert erlang_survival(GammaParams(s, r), x) == pytest.approx(gammaincc(r, s * x), rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        s=st.floats(1e-3, 1e3),
        r=st.integers(1, 2000),
        x=st.floats(1e-4, 1e4),
        gap=st.floats(0.0, 1e4),
    )
    def test_bounded_and_nonincreasing(self, s, r, x, gap):
        g = GammaParams(s, r)
        near, far = erlang_survival(g, x), erlang_survival(g, x + gap)
        assert 0.0 <= near <= 1.0 and 0.0 <= far <= 1.0
        # a value carries up to ~3e-12 relative rounding (its log-space terms
        # add parts as large as s*x), so it is monotone to that precision;
        # e.g. s=1, r=26 gives 1 - 2^-53 at x=1.75 and 1.0 at x=2.75
        assert far <= near * (1.0 + 1e-11)

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(1e-3, 1e3), r=st.integers(1, 2000), x=st.floats(1e-4, 1e4))
    def test_matches_scipy_over_wide_range(self, s, r, x):
        expected = gammaincc(r, s * x)
        if expected > 1e-280:
            assert erlang_survival(GammaParams(s, r), x) == pytest.approx(expected, rel=1e-10)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            GammaParams(0, 1)
        with pytest.raises(ValueError):
            GammaParams(1.0, 0)
        with pytest.raises(ValueError):
            GammaParams(1, True)
        with pytest.raises(ValueError):
            GammaParams(True, 1)
        # an infinite rate would make erlang_survival(g, 0.0) nan (inf * 0)
        for rate in (float("inf"), np.inf):
            with pytest.raises(ValueError):
                GammaParams(rate, 1)

    def test_huge_exact_rate_accepted(self):
        assert GammaParams(Fraction(10**400), 1).s == 10**400

    def test_huge_exact_rate_survival(self):
        """A rate beyond the float range acts as an infinite one, not an OverflowError."""
        for r in (1, 3):
            g = GammaParams(10**400, r)
            assert erlang_survival(g, 0.0) == 1.0
            assert erlang_survival(g, 1e-300) == 0.0
            assert erlang_survival(g, math.inf) == 0.0

    def test_tiny_exact_rate_survival_at_infinity(self):
        """A rate that rounds to 0.0 gives 0 at x = inf, not nan from 0 * inf."""
        g = GammaParams(Fraction(1, 10**400), 2)
        assert erlang_survival(g, math.inf) == 0.0
        assert erlang_survival(g, 1.0) == 1.0


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


class TestGumbel:
    def test_at_zero(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1))

    def test_upper_limit(self):
        assert gumbel_cdf(50.0) == pytest.approx(1.0)
        assert gumbel_cdf(1e6) == 1.0

    def test_lower_limit(self):
        assert gumbel_cdf(-800.0) == 0.0
        assert gumbel_cdf(-math.inf) == 0.0

    def test_median_inversion(self):
        assert gumbel_cdf(-math.log(math.log(2))) == pytest.approx(0.5, rel=1e-14)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            gumbel_cdf(math.nan)


class TestZnCdf:
    def test_support_boundary_n1(self):
        assert zn_cdf(1, 0.0) == 0.0

    def test_substitution_value(self):
        assert zn_cdf(2, math.log(2)) == pytest.approx(9 / 16, rel=1e-14)

    def test_below_support_is_zero(self):
        assert zn_cdf(5, -math.log(5) - 0.01) == 0.0
        assert zn_cdf(5, -50.0) == 0.0

    def test_close_to_gumbel_for_large_n(self):
        assert abs(zn_cdf(10**6, 1.0) - gumbel_cdf(1.0)) < 1e-6

    def test_monotone_and_bounded(self):
        xs = np.linspace(-2.0, 8.0, 200)
        vals = [zn_cdf(10, x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_bad_n(self):
        with pytest.raises(ValueError):
            zn_cdf(0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            zn_cdf(3, math.nan)

    def test_bool_n_rejected(self):
        with pytest.raises(ValueError):
            zn_cdf(True, 0.5)
