"""KS kernels against known answers, and the limit tables and audits."""

import json
import math
import random
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    _TILE,
    _kolmogorov_pvalue,
    _recip_power_sum_value,
    _recip_power_sums,
    basel_table,
    euler_gamma_table,
    gumbel_approx_error,
    ks_one_sample,
    ks_two_sample,
    results_to_json_lines,
    rows_to_csv,
    rows_to_json,
    tail_bound_audit,
    tail_bound_summary,
    variance_convergence_check,
)
from exporder.distributions import orderstat_var
from exporder.laplace import OrderStatParams
from exporder.sampling import SampleBatch, SeededStream

POWERS_OF_TEN = (10, 100, 1_000, 10_000, 100_000, 1_000_000)


def as_batch(values):
    return SampleBatch(np.asarray(values, dtype=np.float64), 1, None, "direct_sort", SeededStream(0))


def exponentials(stream, count):
    """count unit exponentials by the samplers' inverse transform of the stream's uniforms."""
    values = -np.log1p(-stream.generator().random(count))
    return SampleBatch(values, 1, None, "direct_sort", stream)


def searchsorted_statistic(xa, xb):
    """D by two binary searches at every pooled point, kept as the reference."""
    xa = np.sort(xa)
    xb = np.sort(xb)
    pooled = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pooled, side="right") / xa.size
    fb = np.searchsorted(xb, pooled, side="right") / xb.size
    return float(np.max(np.abs(fa - fb)))


def fresh_buffer_statistic(xa, xb):
    """D by the merge kernel as it was before it reused its spent buffers."""
    na, nb = xa.size, xb.size
    pooled = np.concatenate([xa, xb])
    pooled[:na].sort()
    pooled[na:].sort()
    order = np.argsort(pooled, kind="stable")
    merged = pooled[order]
    ca = (order < na).astype(np.intp)
    np.cumsum(ca, out=ca)
    cb = np.arange(1, pooled.size + 1)
    cb -= ca
    last = np.empty(pooled.size, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=last[:-1])
    last[-1] = True
    gap = ca / na
    gap -= cb / nb
    np.abs(gap, out=gap)
    return float(np.max(gap, where=last, initial=0.0))


def tied_samples(dtype, seed, na, nb):
    """Two samples of dtype with many ties within and across them, and both zeros for floats."""
    rng = np.random.default_rng(seed)
    if np.dtype(dtype).kind == "i":
        big = 2**62 + rng.integers(0, 40, na + nb)  # beyond 2^53, where float64 would merge values
        pooled = np.where(rng.random(na + nb) < 0.5, rng.integers(-30, 30, na + nb), big)
    else:
        pooled = np.round(rng.standard_normal(na + nb), 1)
        pooled += np.where(rng.random(na + nb) < 0.5, rng.random(na + nb) / 3, 0.0)
        pooled[rng.random(na + nb) < 0.1] = 0.0
        pooled[rng.random(na + nb) < 0.1] = -0.0
    pooled = pooled.astype(dtype)
    return pooled[:na], pooled[na:]


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

    @pytest.mark.parametrize("nd2", [11.6, 20.0])
    def test_far_tail_is_the_leading_term_not_zero(self, nd2):
        # every term of the series is below the 1e-10 cut here
        with mpmath.workdps(40):
            series = 2 * mpmath.nsum(lambda i: (-1) ** (i - 1) * mpmath.exp(-2 * i * i * nd2), [1, mpmath.inf])
        p = _kolmogorov_pvalue(nd2)
        assert p > 0
        assert p == pytest.approx(float(series), rel=1e-12)
        assert p == pytest.approx(float(kolmogorov(math.sqrt(nd2))), rel=1e-12)


class TestKsOneSample:
    def test_same_law_passes(self):
        batch = exponentials(SeededStream(2024, 1), 10**5)
        result = ks_one_sample(batch, unit_exp_cdf)
        assert result.passed
        assert result.n_effective == 10**5

    def test_wrong_law_fails(self):
        """Exp(2) data against the Exp(1) cdf: sup distance is 1/4 at ln 2."""
        batch = exponentials(SeededStream(2024, 2), 10**4)
        halved = SampleBatch(batch.values / 2.0, 1, None, "direct_sort", batch.seed_info)
        result = ks_one_sample(halved, unit_exp_cdf)
        assert not result.passed
        assert result.statistic == pytest.approx(0.25, abs=0.02)

    def test_single_point_statistic(self):
        v = 0.9
        batch = SampleBatch(np.array([v]), 1, None, "direct_sort", SeededStream(0))
        result = ks_one_sample(batch, unit_exp_cdf)
        c = float(unit_exp_cdf(v))
        assert result.statistic == pytest.approx(max(c, 1 - c))

    def test_degenerate_rejected(self):
        batch = SampleBatch(np.full(10, 1.3), 1, None, "direct_sort", SeededStream(0))
        with pytest.raises(ValueError):
            ks_one_sample(batch, unit_exp_cdf)

    def test_scalar_only_cdf_fails_with_its_own_error(self):
        """The cdf is called once on the sorted sample; there is no point-by-point retry."""
        batch = exponentials(SeededStream(11, 3), 2000)
        calls = []

        def scalar_cdf(t):
            calls.append(t)
            return -math.expm1(-t)

        with pytest.raises(TypeError):
            ks_one_sample(batch, scalar_cdf)
        assert len(calls) == 1
        assert calls[0].shape == (2000,)

    @pytest.mark.parametrize("shape_of", [lambda t: t[:-1], lambda t: t[:, None], lambda t: 0.5])
    def test_cdf_of_another_shape_rejected(self, shape_of):
        batch = exponentials(SeededStream(11, 4), 2000)
        with pytest.raises(ValueError, match=r"cdf returned shape .* sample of shape \(2000,\)"):
            ks_one_sample(batch, lambda t: shape_of(unit_exp_cdf(t)))


class TestKsTwoSample:
    def test_same_law_passes(self):
        a = exponentials(SeededStream(11, 0), 10**5)
        b = exponentials(SeededStream(12, 0), 10**5)
        result = ks_two_sample(a, b)
        assert result.passed
        assert result.n_effective == 50_000

    def test_different_rates_fail(self):
        a = exponentials(SeededStream(13, 0), 10**4)
        b = exponentials(SeededStream(14, 0), 10**4)
        third = SampleBatch(b.values / 3.0, 1, None, "direct_sort", b.seed_info)
        result = ks_two_sample(a, third)
        assert not result.passed
        assert result.statistic > 0.3

    def test_identical_samples_pass_with_zero_statistic(self):
        a = exponentials(SeededStream(15, 0), 5000)
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

    @pytest.mark.parametrize("tile", [1, 2, 3, 7])
    @settings(max_examples=100, deadline=None)
    @given(xa=any_side, xb=any_side)
    def test_statistic_equals_binary_search_kernel_over_small_tiles(self, tile, xa, xb):
        """Many windows, runs of ties across window cuts, unequal sizes: D bit for bit."""
        assume(not (is_degenerate(xa) or is_degenerate(xb)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convergence, "_TILE", tile)
            d = ks_two_sample(as_batch(xa), as_batch(xb)).statistic
        assert d == searchsorted_statistic(np.array(xa), np.array(xb))

    @pytest.mark.parametrize(
        "extra", [-1, 0, 1, _TILE + 1, 2 * _TILE - 1, 2 * _TILE, 2 * _TILE + 3, 16385]
    )
    @pytest.mark.parametrize("tied", [False, True])
    def test_statistic_at_pooled_sizes_around_the_tile(self, extra, tied):
        """At the real window size W, with and without ties.

        n_a + n_b in {W - 1, W, W + 1, 2W + 1}, and n_a = (n_a + n_b) // 3 in
        {W - 1, W, W + 1}: no cut in a, a cut at its last point, or one before.
        At n_a + n_b = W + 16385 the first sample spans over a hundred windows.
        """
        total = _TILE + extra
        na = total // 3
        rng = np.random.default_rng(total)
        pooled = rng.standard_normal(total)
        if tied:
            pooled = np.round(pooled, 1)
        xa, xb = pooled[:na], pooled[na:]
        d = ks_two_sample(as_batch(xa), as_batch(xb)).statistic
        assert d == searchsorted_statistic(xa, xb)

    def test_disjoint_samples_read_one(self):
        """All of a below all of b: the windows holding D have a bound of exactly max |G|."""
        a, b = np.arange(2 * _TILE), np.arange(2 * _TILE) + 100.0
        assert ks_two_sample(as_batch(a), as_batch(b)).statistic == 1.0
        assert ks_two_sample(as_batch(b), as_batch(a)).statistic == 1.0

    @pytest.mark.parametrize("swap", [False, True])
    def test_tied_maximum_takes_the_largest_float(self, swap):
        """|G| = 10 at six run ends whose floats differ: D is the largest, not the first.

        At 0, 1, 7, 8, 9 and 10 the counts differ by one, so every exact gap is
        1/10, but c_a/10 - c_b/10 rounds to 0.1 at the first and to
        0.10000000000000009 only at 8 (c_a = 8, c_b = 7).
        """
        a = [0, 1, 3, 4, 5, 6, 7, 8, 9, 10]
        b = [1, 2, 3, 4, 5, 6, 8, 9, 10, 11]
        if swap:
            a, b = b, a
        d = ks_two_sample(as_batch(a), as_batch(b)).statistic
        # the first run end, x = 0, reads 1/10 - 0/10; x = 8 reads more
        assert d == 8 / 10 - 7 / 10 == 0.10000000000000009 > 1 / 10 - 0 / 10
        assert d == searchsorted_statistic(np.array(a, float), np.array(b, float))

    @pytest.mark.parametrize("seed", [cli.DEFAULT_SEED, 5])
    def test_default_simulate_cells_search_a_few_points(self, monkeypatch, seed):
        """Each binary search on a default simulate cell takes under a quarter of the points.

        Evaluating every point would take all n_a + n_b keys in one call, so an
        edit that keeps every window fails here.
        """
        searchsorted = np.searchsorted
        keys = []

        def counting(a, v, *args, **kwargs):
            keys.append(np.size(v))
            return searchsorted(a, v, *args, **kwargs)

        shares = []

        def recording(a, b, **kwargs):
            keys.clear()
            result = ks_two_sample(a, b, **kwargs)
            assert keys, "ks_two_sample made no np.searchsorted call"
            shares.append(max(keys) / (a.values.size + b.values.size))
            return result

        monkeypatch.setattr(np, "searchsorted", counting)
        monkeypatch.setattr(convergence, "ks_two_sample", recording)
        cli._simulate_results(cli.parse_args(["simulate", "--seed", str(seed)]))
        assert len(shares) == 21
        assert max(shares) < 0.25

    @pytest.mark.parametrize("na, nb", [(2**32, 2**32), (2**31, 2**32), (1, 2**63)])
    def test_sizes_past_int64_gaps_rejected_before_sorting(self, na, nb):
        """n_a*n_b >= 2^63 would overflow G; the stand-ins hold no values to sort."""

        def stand_in(size):
            return SimpleNamespace(values=SimpleNamespace(size=size))

        with pytest.raises(ValueError, match=f"sample sizes {na} and {nb} are too large"):
            ks_two_sample(stand_in(na), stand_in(nb))

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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("seed, na, nb", [(1, 1000, 700), (2, 2000, 2000), (3, 37, 4000)])
    def test_statistic_equals_fresh_buffer_kernel(self, dtype, seed, na, nb):
        """D over the kept windows is the fresh-buffer kernel's float, bit for bit, for every dtype."""
        xa, xb = tied_samples(dtype, seed, na, nb)
        def batch(x):
            return SampleBatch(x.copy(), 1, None, "direct_sort", SeededStream(0))

        d = ks_two_sample(batch(xa), batch(xb)).statistic
        assert d == fresh_buffer_statistic(xa, xb)
        assert d.hex() == fresh_buffer_statistic(xa, xb).hex()

    def test_inputs_not_modified(self):
        a = exponentials(SeededStream(16, 0), 1000)
        b = exponentials(SeededStream(16, 1), 700)
        a_before, b_before = a.values.copy(), b.values.copy()
        ks_two_sample(a, b)
        assert np.array_equal(a.values, a_before)
        assert np.array_equal(b.values, b_before)


class TestReciprocalPowerSums:
    """The rows above EXACT_SUM_LIMIT: the float terms summed exactly, rounded once."""

    @staticmethod
    def one_term_at_a_time(n, power):
        return math.fsum(1.0 / float(j) ** power for j in range(1, n + 1))

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("n", [EXACT_SUM_LIMIT + 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_bit_identical_to_scalar_terms(self, n, power):
        assert _recip_power_sums([n], power) == [self.one_term_at_a_time(n, power)]

    @pytest.mark.parametrize("n", [10_001, 10**5, 10**6])
    def test_correctly_rounded_against_mpmath(self, n):
        with mpmath.workdps(50):
            harmonic = float(mpmath.harmonic(n))
            basel = float(mpmath.zeta(2) - mpmath.zeta(2, n + 1))
        assert _recip_power_sums([n], 1) == [harmonic]
        assert _recip_power_sums([n], 2) == [basel]

    def test_memory_bounded_by_block(self):
        """A million terms never sit in memory at once (an unblocked list is ~38 MiB)."""
        tracemalloc.start()
        try:
            _recip_power_sums([10**6], 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def numpy_term_fsums(ns, power):
    """math.fsum of the numpy-built float terms 1.0 / j**power, j <= n, for each n of ns."""
    terms = (1.0 / np.arange(1, max(ns) + 1, dtype=np.float64) ** power).tolist()
    return [math.fsum(terms[:n]) for n in ns]


class TestMantissaPass:
    """Every row above EXACT_SUM_LIMIT is math.fsum of the same float terms, bit for bit."""

    @pytest.mark.parametrize("power", [1, 2, 3])
    @pytest.mark.parametrize("seed", [29, 30])
    def test_equals_fsum_at_random_lists(self, power, seed):
        rng = random.Random(seed)
        ns = sorted(rng.randint(EXACT_SUM_LIMIT + 1, 3 * 10**5) for _ in range(6))
        assert _recip_power_sums(ns, power) == numpy_term_fsums(ns, power)

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_equals_fsum_around_block_edges(self, power):
        ns = [m * _BLOCK + d for m in (1, 2, 3) for d in (-1, 0, 1)]
        assert _recip_power_sums(ns, power) == numpy_term_fsums(ns, power)
        assert [_recip_power_sums([n], power)[0] for n in ns] == numpy_term_fsums(ns, power)

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_equals_fsum_across_the_limit_with_repeats(self, power):
        above = [EXACT_SUM_LIMIT + 1, EXACT_SUM_LIMIT + 1, _BLOCK + 1, 10**5, 10**5]
        ns = [1, 10, EXACT_SUM_LIMIT, EXACT_SUM_LIMIT, *above]
        values = _recip_power_sums(ns, power)
        assert values[4:] == numpy_term_fsums(above, power)
        assert values[:4] == [_recip_power_sum_value(n, power) for n in ns[:4]]

    def test_default_tables_never_call_fsum(self, monkeypatch):
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda terms: calls.append(1) or fsum(terms))
        euler_gamma_table(cli.DEFAULT_N_LIST)
        basel_table(cli.DEFAULT_N_LIST)
        assert calls == []


def block_terms(lo, hi, power):
    """The float terms 1.0 / j**power, lo <= j < hi, as Python floats (j**power may overflow to inf)."""
    with np.errstate(over="ignore"):
        return (1.0 / np.arange(lo, hi, dtype=np.float64) ** power).tolist()


def block_sum(lo, hi, power):
    """_mantissa_block_sum of the block at the scale _recip_power_sums would take for n = hi - 1."""
    scale = 55 + power * (hi - 1).bit_length()
    with np.errstate(over="ignore"):
        return convergence._mantissa_block_sum(lo, hi, power, scale), scale


def exact_scaled_sum(terms, scale):
    """2^scale times the exact sum of the float terms, from each one's integer ratio."""
    total = 0
    for t in terms:
        num, den = t.as_integer_ratio()
        scaled, rest = divmod(num << scale, den)
        assert rest == 0
        total += scaled
    return total


def field_starts(terms):
    """Offsets, in ascending term order, where a new exponent field starts."""
    fields = (np.array(terms[::-1]).view(np.uint64) >> 52).tolist()
    return [i for i in range(1, len(fields)) if fields[i] != fields[i - 1]]


class TestModularBlockSum:
    """One block of float terms, summed segment by segment in wrapping uint64, is exact."""

    SEGMENT = 1 << 11

    def check(self, lo, hi, power):
        terms = block_terms(lo, hi, power)
        total, scale = block_sum(lo, hi, power)
        assert total == exact_scaled_sum(terms, scale)
        assert total / (1 << scale) == math.fsum(terms)

    @pytest.mark.parametrize("power", [1, 2, 3])
    @pytest.mark.parametrize("lo, hi", [(3_000, 7_196), (1, 5_000), (40_000, 80_001)])
    def test_exponent_runs_starting_inside_a_segment(self, lo, hi, power):
        starts = field_starts(block_terms(lo, hi, power))
        assert any(i % self.SEGMENT for i in starts)
        self.check(lo, hi, power)

    @pytest.mark.parametrize("length", [SEGMENT - 1, SEGMENT, SEGMENT + 1, 2 * SEGMENT, 5 * SEGMENT + 1])
    def test_segment_edges_within_one_exponent_field(self, length):
        """1/j for 2^14 < j <= 2^15 share one exponent field, so only the segment cuts split them."""
        lo = (1 << 14) + 1
        assert field_starts(block_terms(lo, lo + length, 1)) == []
        self.check(lo, lo + length, 1)

    @pytest.mark.parametrize("power", [1, 2])
    def test_terms_a_few_units_below_a_power_of_two(self, power):
        """1/j**power for j just above 2^46 lies under 2^9 units below 2^(-46 power), where
        bits compared as float64 (whose units there are 2^10) would round onto the field's start."""
        j = 1 << 46
        terms = block_terms(j - 5, j + 3_000, power)
        edge = int(np.float64(2.0 ** (-46 * power)).view(np.uint64))
        assert any(0 < edge - b < 1 << 9 for b in np.array(terms).view(np.uint64).tolist())
        self.check(j - 5, j + 3_000, power)

    def test_subnormal_and_zero_terms(self):
        """At power 100, 1/j**100 turns subnormal near j = 1,193 and 0 once j**100 overflows."""
        lo, hi = 1_100, 1_300
        terms = block_terms(lo, hi, 100)
        assert any(0 < t < sys.float_info.min for t in terms)
        assert terms[-1] == 0.0
        self.check(lo, hi, 100)


def exact_prefix_sums(ns, power):
    """sum_{j<=n} 1/j^power for each n of the nondecreasing ns, rounded once from
    one running fraction over the denominator lcm(1..n)^power."""
    values, num, lcm, j = [], 0, 1, 0
    for n in ns:
        for j in range(j + 1, n + 1):
            grown = lcm * j // math.gcd(lcm, j)
            num = num * (grown // lcm) ** power + (grown // j) ** power
            lcm = grown
        values.append(num / lcm**power)
    return values


def counting_sum_pairs(monkeypatch):
    """Wrap convergence's exact fraction merge; the list returned counts its calls."""
    calls = []
    merge = convergence._sum_pairs

    def counted(items):
        calls.append(len(items))
        return merge(items)

    monkeypatch.setattr(convergence, "_sum_pairs", counted)
    return calls


class TestFixedPointPass:
    """The rows up to EXACT_SUM_LIMIT: one bracketing integer pass per table."""

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_equals_exact_sum_at_every_small_n(self, power):
        ns = list(range(1, 601))
        expected = [_recip_power_sum_value(n, power) for n in ns]
        assert _recip_power_sums(ns, power) == expected
        assert exact_prefix_sums(ns, power) == expected

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_equals_exact_sum_at_random_n(self, power):
        rng = random.Random(28)
        ns = sorted(rng.randint(1, EXACT_SUM_LIMIT) for _ in range(500))
        assert _recip_power_sums(ns, power) == exact_prefix_sums(ns, power)

    @pytest.mark.parametrize("power", [1, 2])
    def test_repeats_and_lists_across_the_limit(self, power):
        ns = [1, 1, 10, EXACT_SUM_LIMIT, EXACT_SUM_LIMIT + 1, 10**5]
        expected = [
            _recip_power_sum_value(n, power) if n <= EXACT_SUM_LIMIT else _recip_power_sums([n], power)[0]
            for n in ns
        ]
        assert _recip_power_sums(ns, power) == expected

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_narrow_width_falls_back_to_the_exact_sum(self, monkeypatch, power):
        """At 60 bits many brackets straddle a rounding boundary; those rows take the fraction sum."""
        ns = list(range(1, 400))
        expected = [_recip_power_sum_value(n, power) for n in ns]
        monkeypatch.setattr(convergence, "_FIXED_BITS", 60)
        calls = counting_sum_pairs(monkeypatch)
        assert _recip_power_sums(ns, power) == expected
        assert 0 < len(calls) < len(ns)

    def test_default_tables_never_merge_fractions(self, monkeypatch):
        calls = counting_sum_pairs(monkeypatch)
        euler_gamma_table(cli.DEFAULT_N_LIST)
        basel_table(cli.DEFAULT_N_LIST)
        assert calls == []


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


class TestShiftedMaximumSizes:
    """n beyond the largest float is a ValueError; up to it the results are finite."""

    @pytest.mark.parametrize("run", [
        lambda n: gumbel_approx_error([n]),
        lambda n: tail_bound_audit([n], [1.0]),
    ], ids=["gumbel", "tail"])
    def test_beyond_float_range_rejected(self, run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="largest float"):
                run(10**400)

    @pytest.mark.parametrize("n", [int(sys.float_info.max), 10**300], ids=["float_max", "1e300"])
    def test_within_float_range_returns(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = gumbel_approx_error([n])
            results = tail_bound_audit([n], [1.0])
        assert row.n == n and 0.0 <= row.abs_error < 1e-12
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

    def test_tail_bound_summary_reports_the_audit(self):
        ns, xs = range(1, 21), [0.5, 1.0, 2.0]
        results = tail_bound_audit(ns, xs)
        failed = [t.test_id for t in results if not t.passed]
        lines = results_to_json_lines(results)
        assert tail_bound_summary(ns, xs) == (len(results), failed, "")
        assert tail_bound_summary(ns, xs, json_lines=True) == (len(results), failed, lines)

    def test_tail_bound_summary_names_the_failed_checks(self, monkeypatch):
        results = [ResultRecord("a", 0.1, 0.5, 1, "pass"), ResultRecord("b", 0.9, 0.5, 1, "fail")]
        monkeypatch.setattr(convergence, "tail_bound_audit", lambda ns, xs: results)
        assert tail_bound_summary([1], [1.0], json_lines=True) == (
            2, ["b"], results_to_json_lines(results)
        )

    def test_results_json_lines_of_no_results_is_one_empty_line(self):
        assert results_to_json_lines([]) == "\n"

    @staticmethod
    def encoder_lines(results):
        encode = json.JSONEncoder(sort_keys=True).encode
        return "".join(encode(vars(t)) + "\n" for t in results)

    def test_results_json_lines_equal_the_encoder_on_default_simulate(self):
        results = cli._simulate_results(cli.parse_args(["simulate"]))
        assert results_to_json_lines(results) == self.encoder_lines(results)

    def test_results_json_lines_equal_the_encoder_on_default_tail_audit(self):
        results = tail_bound_audit(cli.TAIL_N_GRID, cli.TAIL_X_GRID)
        assert results_to_json_lines(results) == self.encoder_lines(results)

    def test_results_json_lines_equal_the_encoder_on_special_values(self):
        results = [
            ResultRecord("nan", math.nan, math.inf, 1, "fail"),
            ResultRecord("inf", -math.inf, -0.0, 2, "pass"),
            ResultRecord("tiny", 5e-324, np.float64(0.1), 3, "pass"),
            ResultRecord('quote " backslash \\ \u00e9\u2264\U0001d53c\n', 0.0, 1e300, 4, "p\u00e4ss"),
        ]
        text = results_to_json_lines(results)
        assert text == self.encoder_lines(results)
        assert "NaN" in text and "-Infinity" in text and "\\u00e9" in text
