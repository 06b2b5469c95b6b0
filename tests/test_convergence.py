"""KS kernels against known answers, and the limit tables and audits."""

import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov

import exporder.cli as cli
import exporder.convergence as convergence
from exporder.convergence import (
    EULER_GAMMA,
    EXACT_SUM_LIMIT,
    PI_SQUARED_OVER_6,
    ConvergenceRow,
    TestResult as ResultRecord,
    _BLOCK,
    _kolmogorov_pvalue,
    _recip_power_sum_value,
    basel_table,
    euler_gamma_table,
    gumbel_approx_error,
    ks_one_sample,
    ks_two_sample,
    results_to_json_lines,
    rows_to_csv,
    rows_to_json,
    tail_bound_audit,
    variance_convergence_check,
)
from exporder.distributions import orderstat_var
from exporder.laplace import OrderStatParams
from exporder.sampling import SampleBatch, SeededStream, sample_exponential

POWERS_OF_TEN = (10, 100, 1_000, 10_000, 100_000, 1_000_000)


def as_batch(values):
    return SampleBatch(np.asarray(values, dtype=np.float64), 1, None, "exponential", SeededStream(0))


def searchsorted_statistic(xa, xb):
    """The two-binary-search D the merge replaced, kept as the reference."""
    xa = np.sort(xa)
    xb = np.sort(xb)
    pooled = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pooled, side="right") / xa.size
    fb = np.searchsorted(xb, pooled, side="right") / xb.size
    return float(np.max(np.abs(fa - fb)))


def is_degenerate(values):
    return len(values) > 1 and len(set(values)) == 1


# continuous values, a few tied values (-0.0 equals 0.0), and a side that is
# one value repeated, with or without one other point
continuous_side = st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=200)
tied_side = st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0, 2.5, 7.0]), min_size=1, max_size=200)
repeated_side = st.builds(
    lambda c, m, extra: [float(c)] * m + extra,
    st.integers(0, 7),
    st.integers(1, 200),
    st.lists(st.integers(0, 7).map(float), max_size=1),
)
any_side = st.one_of(continuous_side, tied_side, repeated_side)


def unit_exp_cdf(t):
    return -np.expm1(-np.asarray(t, dtype=np.float64))


class TestKolmogorovPvalue:
    def test_against_scipy_series(self):
        for lam in (0.3, 0.5, 1.0, 1.5, 1.9495, 2.5, 3.0):
            assert _kolmogorov_pvalue(lam * lam) == pytest.approx(
                float(kolmogorov(lam)), abs=1e-9
            )

    def test_zero_statistic(self):
        assert _kolmogorov_pvalue(0.0) == 1.0


class TestKsOneSample:
    def test_same_law_passes(self):
        batch = sample_exponential(SeededStream(2024, 1), 10**5)
        result = ks_one_sample(batch, unit_exp_cdf)
        assert result.passed
        assert result.n_effective == 10**5

    def test_wrong_law_fails(self):
        """Exp(2) data against the Exp(1) cdf: sup distance is 1/4 at ln 2."""
        batch = sample_exponential(SeededStream(2024, 2), 10**4)
        halved = SampleBatch(batch.values / 2.0, 1, None, "exponential", batch.seed_info)
        result = ks_one_sample(halved, unit_exp_cdf)
        assert not result.passed
        assert result.statistic == pytest.approx(0.25, abs=0.02)

    def test_single_point_statistic(self):
        v = 0.9
        batch = SampleBatch(np.array([v]), 1, None, "exponential", SeededStream(0))
        result = ks_one_sample(batch, unit_exp_cdf)
        c = float(unit_exp_cdf(v))
        assert result.statistic == pytest.approx(max(c, 1 - c))

    def test_degenerate_rejected(self):
        batch = SampleBatch(np.full(10, 1.3), 1, None, "exponential", SeededStream(0))
        with pytest.raises(ValueError):
            ks_one_sample(batch, unit_exp_cdf)

    def test_scalar_only_cdf_accepted(self):
        batch = sample_exponential(SeededStream(11, 3), 2000)
        result = ks_one_sample(batch, lambda t: -math.expm1(-t))
        reference = ks_one_sample(batch, unit_exp_cdf)
        assert result.statistic == reference.statistic


class TestKsTwoSample:
    def test_same_law_passes(self):
        a = sample_exponential(SeededStream(11, 0), 10**5)
        b = sample_exponential(SeededStream(12, 0), 10**5)
        result = ks_two_sample(a, b)
        assert result.passed
        assert result.n_effective == 50_000

    def test_different_rates_fail(self):
        a = sample_exponential(SeededStream(13, 0), 10**4)
        b = sample_exponential(SeededStream(14, 0), 10**4)
        third = SampleBatch(b.values / 3.0, 1, None, "exponential", b.seed_info)
        result = ks_two_sample(a, third)
        assert not result.passed
        assert result.statistic > 0.3

    def test_identical_samples_pass_with_zero_statistic(self):
        a = sample_exponential(SeededStream(15, 0), 5000)
        result = ks_two_sample(a, a)
        assert result.statistic == 0.0
        assert result.threshold_or_pvalue == 1.0
        assert result.passed

    @settings(max_examples=400, deadline=None)
    @given(xa=any_side, xb=any_side)
    def test_statistic_equals_binary_search_kernel(self, xa, xb):
        """Bit for bit, at sizes 1..200 on each side and under heavy ties."""
        if is_degenerate(xa) or is_degenerate(xb):
            with pytest.raises(ValueError, match="degenerate"):
                ks_two_sample(as_batch(xa), as_batch(xb))
            return
        d = ks_two_sample(as_batch(xa), as_batch(xb)).statistic
        assert d == searchsorted_statistic(np.array(xa), np.array(xb))

    def test_ties_across_samples_counted_at_run_end(self):
        """At a value both samples share, both cdfs count every point <= it."""
        result = ks_two_sample(as_batch([1.0, 2.0, 2.0, 3.0]), as_batch([2.0, 2.0, 2.0, 5.0]))
        # at 2: 3/4 - 3/4; at 1: 1/4 - 0; at 3: 1 - 3/4
        assert result.statistic == 0.25

    @pytest.mark.parametrize("seed", [cli.DEFAULT_SEED, 5])
    def test_default_simulate_cells_bit_identical(self, monkeypatch, seed):
        """D on every sampler-equivalence cell of a default simulate run."""
        pairs = []

        def recording(a, b, **kwargs):
            result = ks_two_sample(a, b, **kwargs)
            pairs.append((result.statistic, searchsorted_statistic(a.values, b.values)))
            return result

        monkeypatch.setattr(convergence, "ks_two_sample", recording)
        cli._simulate_results(cli.parse_args(["simulate", "--seed", str(seed)]))
        assert len(pairs) == 21
        for merged, reference in pairs:
            assert merged == reference

    def test_inputs_not_modified(self):
        a = sample_exponential(SeededStream(16, 0), 1000)
        b = sample_exponential(SeededStream(16, 1), 700)
        a_before, b_before = a.values.copy(), b.values.copy()
        ks_two_sample(a, b)
        assert np.array_equal(a.values, a_before)
        assert np.array_equal(b.values, b_before)


class TestReciprocalPowerSums:
    """The float path above EXACT_SUM_LIMIT: numpy-built blocks into one fsum."""

    @staticmethod
    def one_term_at_a_time(n, power):
        return math.fsum(1.0 / float(j) ** power for j in range(1, n + 1))

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("n", [EXACT_SUM_LIMIT + 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_bit_identical_to_scalar_terms(self, n, power):
        assert _recip_power_sum_value(n, power) == self.one_term_at_a_time(n, power)

    @pytest.mark.parametrize("n", [10_001, 10**5, 10**6])
    def test_correctly_rounded_against_mpmath(self, n):
        with mpmath.workdps(50):
            harmonic = float(mpmath.harmonic(n))
            basel = float(mpmath.zeta(2) - mpmath.zeta(2, n + 1))
        assert _recip_power_sum_value(n, 1) == harmonic
        assert _recip_power_sum_value(n, 2) == basel

    def test_memory_bounded_by_block(self):
        """A million terms never sit in memory at once (an unblocked list is ~38 MiB)."""
        tracemalloc.start()
        try:
            _recip_power_sum_value(10**6, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestEulerGammaTable:
    def test_first_row_is_one(self):
        row = euler_gamma_table([1])[0]
        assert row.value == 1.0
        assert row.abs_error == pytest.approx(1.0 - EULER_GAMMA, abs=1e-15)

    def test_million_terms_within_tolerance(self):
        row = euler_gamma_table([10**6])[0]
        assert row.abs_error < 1e-6

    def test_errors_strictly_decreasing(self):
        rows = euler_gamma_table(POWERS_OF_TEN)
        errs = [r.abs_error for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_half_over_n_envelope_every_row(self):
        """The approach is ~1/(2n): every row sits inside (1/(2n+2), 1/(2n))."""
        for row in euler_gamma_table(POWERS_OF_TEN):
            assert 1.0 / (2 * row.n + 2) < row.abs_error < 1.0 / (2 * row.n)

    def test_decreasing_n_list_rejected(self):
        with pytest.raises(ValueError):
            euler_gamma_table([100, 10])

    @pytest.mark.parametrize("n", [10.7, 10.0, True, np.float64(10.0)])
    def test_non_integer_size_rejected(self, n):
        # int() would have truncated these to a row for another n
        with pytest.raises(ValueError, match="must be integers"):
            euler_gamma_table([n])

    def test_numpy_integer_size_accepted(self):
        assert euler_gamma_table([np.int64(10)]) == euler_gamma_table([10])


class TestBaselTable:
    def test_first_row(self):
        row = basel_table([1])[0]
        assert row.value == 1.0
        assert row.abs_error == pytest.approx(PI_SQUARED_OVER_6 - 1.0, abs=1e-15)

    def test_million_terms_within_tolerance(self):
        row = basel_table([10**6])[0]
        assert row.abs_error < 1.000001e-6

    def test_analytic_bracket_every_row(self):
        for row in basel_table(POWERS_OF_TEN):
            assert 1.0 / (row.n + 1) < row.abs_error < 1.0 / row.n

    def test_exact_and_float_paths_agree(self):
        """Rows just below and above the exact-arithmetic cutoff must be consistent."""
        below = basel_table([EXACT_SUM_LIMIT])[0].value
        above = basel_table([EXACT_SUM_LIMIT + 1])[0].value
        assert above > below
        assert above - below == pytest.approx(1.0 / (EXACT_SUM_LIMIT + 1) ** 2, rel=1e-6)


class TestVarianceConvergence:
    def test_small_values(self):
        rows = variance_convergence_check([1, 3])
        assert rows[0].value == 1.0
        assert rows[1].value == pytest.approx(49 / 36, rel=1e-15)

    def test_identical_to_basel_at_every_n(self):
        mixed = (10, 100, 1_000, 10_000, 100_000)
        basel = basel_table(mixed)
        variance = variance_convergence_check(mixed)
        for b, v in zip(basel, variance):
            assert b.value == v.value  # bit-for-bit

    @pytest.mark.parametrize("n", [1, 2, 10, 100, 1_000, 10_000])
    def test_equals_variance_of_the_maximum(self, n):
        """The rows are Var X_(n:n), which the order-statistic formula gives exactly."""
        (row,) = variance_convergence_check([n])
        assert row.value == float(orderstat_var(OrderStatParams(n, n)))


class TestTailBoundAudit:
    def test_small_grid_passes(self):
        results = tail_bound_audit(range(1, 101), [1.0])
        assert all(r.passed for r in results)
        bound = [r for r in results if r.test_id.startswith("tail_bound")][0]
        assert bound.threshold_or_pvalue == pytest.approx(2 * math.exp(-1))
        env = [r for r in results if r.test_id.startswith("tail_envelope")][0]
        assert env.threshold_or_pvalue == pytest.approx(math.exp(-math.e) + math.exp(-1))
        assert env.statistic <= 0.434

    def test_large_x(self):
        results = tail_bound_audit(range(1, 51), [5.0])
        assert all(r.passed for r in results)

    def test_tiny_x_trivially_bounded(self):
        results = tail_bound_audit(range(1, 51), [0.01])
        bound = results[0]
        assert bound.threshold_or_pvalue > 1.9
        assert bound.passed

    def test_nonpositive_x_rejected(self):
        with pytest.raises(ValueError):
            tail_bound_audit([1, 2], [0.0])

    def test_nan_x_rejected(self):
        with pytest.raises(ValueError, match="positive x"):
            tail_bound_audit([10], [math.nan])

    def test_empty_n_list_rejected(self):
        with pytest.raises(ValueError, match="at least one sample size"):
            tail_bound_audit([], [0.5])

    @pytest.mark.parametrize("n", [2.5, True])
    def test_non_integer_size_rejected(self, n):
        with pytest.raises(ValueError, match="must be integers"):
            tail_bound_audit([n], [1.0])

    def test_numpy_integer_sizes_accepted(self):
        assert tail_bound_audit(np.arange(1, 11), [1.0]) == tail_bound_audit(range(1, 11), [1.0])

    @pytest.mark.parametrize("x", [710.0, 800.0])
    def test_x_beyond_float_range_rejected(self, x):
        with pytest.raises(ValueError, match="ln of the largest float"):
            tail_bound_audit([10], [x])

    def test_x_just_inside_float_range_passes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = tail_bound_audit([10], [709.0])
        assert all(r.passed for r in results)


class TestGumbelApproxError:
    def test_envelope_budget(self):
        for row in gumbel_approx_error((10, 1000)):
            assert row.abs_error < 0.3 / row.n

    def test_monotone_decreasing(self):
        rows = gumbel_approx_error((10, 100, 1000))
        errs = [r.abs_error for r in rows]
        assert errs == sorted(errs, reverse=True)


class TestSerialization:
    def test_csv_layout(self):
        rows = [ConvergenceRow(10, 1.5, 1.6, 0.1)]
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "n,value,target,abs_error"
        assert lines[1].startswith("10,1.5,1.6,")

    def test_csv_deterministic(self):
        rows = euler_gamma_table((10, 100))
        assert rows_to_csv(rows) == rows_to_csv(euler_gamma_table((10, 100)))

    def test_json_rows(self):
        payload = json.loads(rows_to_json(basel_table([10])))
        assert payload[0]["n"] == 10
        assert set(payload[0]) == {"n", "value", "target", "abs_error"}

    def test_results_json_lines(self):
        text = results_to_json_lines(
            [ResultRecord("demo", 0.1, 0.5, 100, "pass"), ResultRecord("demo2", 0.9, 0.0, 10, "fail")]
        )
        lines = text.strip().split("\n")
        assert [json.loads(l)["verdict"] for l in lines] == ["pass", "fail"]
