"""Kolmogorov-Smirnov kernels and the limit experiments.

The KS tests use the sorted-sample statistic and the asymptotic Kolmogorov
p-value 2*sum_i (-1)^(i-1) exp(-2 i^2 N D^2); decisions default to
alpha = 0.001 so fixed-seed runs are stable.  The two-sample statistic is
evaluated only in the windows of the value axis whose exact count bounds
can reach the largest gap, and is the same float as over every point.

The tables reproduce two classical limits numerically: H_n - ln n -> the
Euler-Mascheroni constant, and sum 1/j^2 -> pi^2/6.  The variance table
repeats the Basel rows: the largest of n unit exponentials is a sum of
independent E_j/j, so its variance is that partial sum.  Every reported
partial sum is correctly rounded, and each table takes two ascending
integer passes over its n list.  Up to EXACT_SUM_LIMIT terms, the first
adds floor(2^_FIXED_BITS / j^p) into one integer; at each n that integer
and the integer plus n bracket the true sum, and where both ends round to
one float that float is the sum.  Where they round apart, the exact
big-integer fraction sum decides.  Beyond the limit a row is the sum of
the float terms 1/j^p (built by numpy in blocks of _BLOCK, the same IEEE
division and power as one Python float at a time), rounded once.  The
second pass reads each block's terms as their IEEE bits: in a run of
terms sharing one exponent field, at most _SEGMENT of them, one wrapping
uint64 sum of the bits gives the exact sum of their significands.  Each
such sum, shifted to one fixed binary scale, goes into one integer, and a
row divides it once.  That is the value math.fsum (Shewchuk's exact sum)
gives for the same terms, and the one long integer is Neal's
superaccumulator (arXiv:1505.05571).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exact import _sum_pairs
from .sampling import SampleBatch

__all__ = [
    "TestResult",
    "ConvergenceRow",
    "EULER_GAMMA",
    "PI_SQUARED_OVER_6",
    "EXACT_SUM_LIMIT",
    "ks_one_sample",
    "ks_two_sample",
    "euler_gamma_table",
    "basel_table",
    "variance_convergence_check",
    "tail_bound_audit",
    "tail_bound_summary",
    "gumbel_approx_error",
    "rows_to_csv",
    "rows_to_json",
    "results_to_json_lines",
]

EULER_GAMMA = 0.5772156649015329
PI_SQUARED_OVER_6 = 1.6449340668482264

# largest n for which reciprocal-power partial sums are of the exact terms
# 1/j^p; beyond this they are of the float terms 1.0 / j**p, summed exactly
# from their bits in blocks of _BLOCK.  A block is one 256 KiB buffer, which
# malloc serves from the heap once the first one is freed, so later blocks
# take no new page faults; of 2^12 to 2^16 terms, 2^15 was the fastest
EXACT_SUM_LIMIT = 10_000
_BLOCK = 1 << 15
# most terms of one exponent field that _mantissa_block_sum adds in one
# wrapping uint64 sum: 2^11 significands below 2^53 sum below 2^64
_SEGMENT = 1 << 11
_WORD = (1 << 64) - 1
# fraction bits of the fixed-point pass below the limit; its bracket, at most
# EXACT_SUM_LIMIT units of 2^-96 (1.3e-25) wide, spans a rounding boundary of
# a sum >= 1 (ulp >= 2.2e-16) with odds below 10^-9, so the exact fraction
# sum that decides such a row almost never runs
_FIXED_BITS = 96

DEFAULT_ALPHA = 0.001
# first-sample points per window of the two-sample KS statistic; of 8 to
# 128, 32 was fastest on simulate's 21 default cells
_TILE = 32

# largest x whose e^x is a finite float (the tail audit's upper limit)
_TAIL_X_MAX = math.log(sys.float_info.max)
# largest sample size the shifted-maximum cdf takes as a float
_ZN_N_MAX = sys.float_info.max
_GUMBEL_GRID_POINTS = 2000


@dataclass(frozen=True)
class TestResult:
    """One statistical or audit check: statistic, decision value, verdict."""

    test_id: str
    statistic: float
    threshold_or_pvalue: float
    n_effective: int
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class ConvergenceRow:
    """One table row: value at n, the limit target, and |value - target|."""

    n: int
    value: float
    target: float
    abs_error: float


def _kolmogorov_pvalue(nd2: float) -> float:
    """2*sum (-1)^(i-1) exp(-2 i^2 N D^2), truncated once terms drop below 1e-10.

    The first term is always kept: past N D^2 ~ 11.6 it is itself below the
    cut, and 2 exp(-2 N D^2) is then within a relative exp(-6 N D^2) of the
    series, where stopping before it would return 0.
    """
    if nd2 <= 0:
        return 1.0
    total = 0.0
    sign = 1.0
    for i in range(1, 100_000):
        term = math.exp(-2.0 * i * i * nd2)
        if term < 1e-10 and i > 1:
            break
        total += sign * term
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def _check_not_degenerate(values: np.ndarray, label: str) -> None:
    """Raise if the sorted, nan-free values are all equal, read off the two endpoints."""
    if values.size > 1 and values[0] == values[-1]:
        raise ValueError(f"degenerate {label}: all values equal")


def _ks_result(test_id: str, d: float, n_eff: float, alpha: float) -> TestResult:
    """The verdict on statistic d with effective sample size n_eff."""
    p = _kolmogorov_pvalue(n_eff * d * d)
    return TestResult(test_id, d, p, int(round(n_eff)), "pass" if p > alpha else "fail")


def ks_one_sample(
    batch: SampleBatch,
    cdf: Callable[[np.ndarray], np.ndarray],
    alpha: float = DEFAULT_ALPHA,
    test_id: str = "ks_one_sample",
) -> TestResult:
    """One-sample KS test of a batch against a reference cdf.

    cdf is called once, on the sorted sample as one float array, and must
    return an array of the same shape; any other shape raises ValueError,
    and a cdf that takes only scalars fails with its own error.

    D+ = max(i/n - F(x_i)) and D- = max(F(x_i) - (i-1)/n) over the sorted
    sample.  The grid i/n and one difference buffer are the only arrays
    built past the cdf values: the buffer takes i/n - F first, then the
    grid is shifted down by 1/n in place and F minus it goes into the
    buffer, so each value is the same float as from fresh arrays.  F may be
    the sample itself, or any array the cdf returned, so it is never
    written to.
    """
    xs = np.sort(batch.values)
    _check_not_degenerate(xs, "sample")
    n = xs.size
    f = np.asarray(cdf(xs), dtype=np.float64)
    if f.shape != xs.shape:
        raise ValueError(f"cdf returned shape {f.shape} for a sample of shape {xs.shape}")
    grid = np.arange(1, n + 1, dtype=np.float64)
    grid /= n
    diff = np.subtract(grid, f)
    d_plus = float(np.max(diff))
    grid -= 1.0 / n
    d_minus = float(np.max(np.subtract(f, grid, out=diff)))
    return _ks_result(test_id, max(d_plus, d_minus, 0.0), n, alpha)


def ks_two_sample(
    a: SampleBatch,
    b: SampleBatch,
    alpha: float = DEFAULT_ALPHA,
    test_id: str = "ks_two_sample",
) -> TestResult:
    """Two-sample KS test that a and b were drawn from one distribution.

    D is the largest |c_a/n_a - c_b/n_b| over the pooled points x, where c_a
    and c_b count each sample's points <= x, so ties are handled exactly.

    Each sample is sorted in its own copy, and the value axis is cut at every
    _TILE-th value of the first sample and at the largest pooled value (the
    counts there are n_a and n_b).  Binary searches give the exact counts at
    the cuts and the integer gap G = c_a*n_b - c_b*n_a.  In a window
    (cut_{j-1}, cut_j], each of its d_a points of a raises G by n_b and each
    of its d_b points of b lowers it by n_a, so G there lies between
    max(G_{j-1} - d_b*n_a, G_j - d_a*n_b) and
    min(G_{j-1} + d_a*n_b, G_j + d_b*n_a).  D is the float max of
    |c_a/n_a - c_b/n_b| over the points of the windows whose bound on |G|
    reaches max_j |G_j| - ((n_a*n_b) >> 51).

    That is the full merge's float, bit for bit: each float gap is within
    2^-52 of its exact value, and distinct |G| lie at least 1/(n_a*n_b)
    apart in D, so no pruned point's float exceeds a kept one's; the slack,
    0 below n_a*n_b = 2^51, keeps that true above it.  G is an int64, so
    n_a*n_b must be below 2^63.  Independent samples search a few percent of
    their points; samples whose cdfs never part, such as a sample against
    itself, keep every window and take about twice as long as a full merge.
    """
    na, nb = a.values.size, b.values.size
    if na * nb >= 1 << 63:
        raise ValueError(f"sample sizes {na} and {nb} are too large: n_a*n_b must be below 2^63")
    dtype = np.result_type(a.values, b.values)
    xa, xb = a.values.astype(dtype), b.values.astype(dtype)
    xa.sort()
    xb.sort()
    _check_not_degenerate(xa, "first sample")
    _check_not_degenerate(xb, "second sample")
    cuts = xa[_TILE - 1 :: _TILE]
    ca = np.append(np.searchsorted(xa, cuts, side="right"), na)
    cb = np.append(np.searchsorted(xb, cuts, side="right"), nb)
    gap = ca * nb - cb * na
    da, db = np.diff(ca, prepend=0), np.diff(cb, prepend=0)
    before = np.append(0, gap[:-1])
    upper = np.minimum(before + da * nb, gap + db * na)
    lower = np.maximum(before - db * na, gap - da * nb)
    keep = np.maximum(upper, -lower) >= np.max(np.abs(gap)) - ((na * nb) >> 51)
    points = np.concatenate([xa[np.repeat(keep, da)], xb[np.repeat(keep, db)]])
    fa = np.searchsorted(xa, points, side="right") / na
    fa -= np.searchsorted(xb, points, side="right") / nb
    d = float(np.max(np.abs(fa, out=fa)))
    return _ks_result(test_id, d, na * nb / (na + nb), alpha)


# -- reciprocal-power partial sums ------------------------------------------


def _recip_power_sum_value(n: int, power: int) -> float:
    """sum_{j<=n} 1/j^power, correctly rounded, from one exact fraction sum.

    _recip_power_sums takes it only for a row up to EXACT_SUM_LIMIT whose
    fixed-point bracket cannot decide the float; it is also that pass's
    reference.
    """
    num, den = _sum_pairs([(1, j**power) for j in range(1, n + 1)])
    return num / den


def _mantissa_block_sum(lo: int, hi: int, power: int, scale: int) -> int:
    """2^scale times the exact sum of the float terms 1.0 / j**power, lo <= j < hi.

    The terms are built in one buffer from j = hi - 1 down, so they ascend,
    and read as their uint64 bits (f << 52) + m, with f the exponent field
    and m the 52 fraction bits.  With g = max(f - 1, 0), a term is its
    significand (2^52 + m, or m when f = 0: a subnormal or 0) times
    2^(g - 1074), and its bits are that significand plus g << 52.  The bits
    ascend with the terms, so one searchsorted for each f << 52 finds where
    each exponent field starts; the block is cut there and every _SEGMENT
    terms.  One np.add.reduceat sums each segment's bits mod 2^64, and less
    c * (g << 52) for its c terms that is the sum of their significands,
    exact because c <= 2^11 significands below 2^53 sum below 2^64.  Each
    segment's sum is shifted by g - 1074 + scale, which the caller keeps
    >= 0.
    """
    count = hi - lo
    terms = np.arange(hi - 1, lo - 1, -1, dtype=np.float64)
    terms **= power
    bits = np.divide(1.0, terms, out=terms).view(np.uint64)
    first, last = int(bits[0]) >> 52, int(bits[-1]) >> 52
    # uint64 keys: Python ints would be compared with the bits as float64
    edges = np.arange(first + 1, last + 1, dtype=np.uint64) << 52
    runs = np.searchsorted(bits, edges).tolist()
    starts = sorted(set(runs).union(range(0, count, _SEGMENT)))
    sums = np.add.reduceat(bits, starts).tolist()
    fields = (bits[starts] >> 52).tolist()
    total = 0
    for start, end, s, f in zip(starts, starts[1:] + [count], sums, fields):
        g = max(f - 1, 0)
        total += ((s - (end - start) * (g << 52)) & _WORD) << (g - 1074 + scale)
    return total


def _recip_power_sums(ns: list[int], power: int) -> list[float]:
    """sum_{j<=n} 1/j^power, correctly rounded, for each n of the nondecreasing list ns.

    The rows up to EXACT_SUM_LIMIT come from one ascending pass that adds
    floor(2^_FIXED_BITS / j^power) into the integer acc.  Each floor loses
    less than one unit, so the true sum scaled by 2^_FIXED_BITS lies in
    [acc, acc + n).  Int true division rounds correctly and rounding is
    monotone, so where acc and acc + n round to the same float, that float
    is the rounded sum, the one the exact fraction sum of
    _recip_power_sum_value gives.  Where they round apart, that fraction
    sum is taken.

    The rows above the limit are the float terms 1.0 / j**power (numpy's,
    the same floats as one Python float at a time) summed exactly and
    rounded once, which is what math.fsum of them returns.  A second
    ascending pass adds the terms' exact values into the integer total at
    the fixed scale 2^scale, _BLOCK terms at a time, and a row is one int
    true division, total / 2^scale, rounded half to even as fsum rounds.
    A nonzero term is below 2^(g - 1074 + 53) and at least
    2^(-power * bit_length(n)) for the largest n, so each shift
    g - 1074 + scale in _mantissa_block_sum is >= 3, subnormal terms
    included.  A term is 0 only where j**power overflowed, and then
    power * bit_length(n) >= 1024, so its shift is >= 5.
    """
    one = 1 << _FIXED_BITS
    scale = 55 + power * max(ns, default=1).bit_length()
    acc = done = total = summed = 0
    values = []
    for n in ns:
        if n <= EXACT_SUM_LIMIT:
            acc += sum(one // j**power for j in range(done + 1, n + 1))
            done = n
            lo = acc / one
            values.append(lo if lo == (acc + n) / one else _recip_power_sum_value(n, power))
            continue
        for start in range(summed + 1, n + 1, _BLOCK):
            total += _mantissa_block_sum(start, min(start + _BLOCK, n + 1), power, scale)
        summed = n
        values.append(total / (1 << scale))
    return values


def _sizes(n_list: Sequence[int]) -> list[int]:
    # ints and numpy integers only; int() would turn 10.7 into 10 and True into 1
    ns = list(n_list)
    bad = [n for n in ns if isinstance(n, bool) or not isinstance(n, numbers.Integral)]
    if bad:
        raise ValueError(f"sample sizes must be integers, got {bad[0]!r}")
    return [int(n) for n in ns]


def _check_n_list(n_list: Sequence[int]) -> list[int]:
    ns = _sizes(n_list)
    if not ns:
        raise ValueError("empty n list")
    if any(n < 1 for n in ns):
        raise ValueError("table entries must be >= 1")
    if any(b < a for a, b in zip(ns, ns[1:])):
        raise ValueError("n list must be nondecreasing")
    return ns


def _rows(ns: list[int], values: list[float], target: float) -> list[ConvergenceRow]:
    return [ConvergenceRow(n, v, target, abs(v - target)) for n, v in zip(ns, values)]


def euler_gamma_table(n_list: Sequence[int]) -> list[ConvergenceRow]:
    """Rows of H_n - ln n against the Euler-Mascheroni constant."""
    ns = _check_n_list(n_list)
    sums = _recip_power_sums(ns, 1)
    return _rows(ns, [h - math.log(n) for n, h in zip(ns, sums)], EULER_GAMMA)


def basel_table(n_list: Sequence[int]) -> list[ConvergenceRow]:
    """Rows of the partial sums of 1/j^2 against pi^2/6."""
    ns = _check_n_list(n_list)
    return _rows(ns, _recip_power_sums(ns, 2), PI_SQUARED_OVER_6)


def variance_convergence_check(n_list: Sequence[int]) -> list[ConvergenceRow]:
    """Variance of the largest of n unit exponentials against pi^2/6.

    These are the Basel rows: the maximum is the sum of independent E_j/j
    for j = 1..n, so its variance is the partial sum of 1/j^2.
    """
    return basel_table(n_list)


def _zn_cdf_array(n: int, x: np.ndarray) -> np.ndarray:
    """cdf of (max of n unit exponentials) - ln n over a float array: (1 - e^-x / n)^n.

    Zero for x < -ln n (the formula's base would go negative there); the
    power is taken as exp(n*log1p(.)) for accuracy at large n.  Where that
    product overflows to -inf near the lower end, exp gives the right 0.  n
    above the largest float (~1.8e308) is rejected: it has no float value.
    """
    if n > _ZN_N_MAX:
        raise ValueError(
            f"sample size n must be <= {_ZN_N_MAX!r} (the largest float), "
            f"got one of {len(str(n))} digits"
        )
    ratio = np.exp(-x) / n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.where(ratio < 1.0, np.exp(n * np.log1p(-np.minimum(ratio, 1.0))), 0.0)
    return vals


def tail_bound_audit(
    n_list: Sequence[int], x_grid: Sequence[float]
) -> list[TestResult]:
    """Check G_n(-x) + 1 - G_n(x) < 2 e^-x over all n for every x.

    G_n is the cdf of the shifted maximum.  For each x two results are
    emitted: the bound itself (strict comparison; its margin is ~46% so
    float noise is irrelevant), and the sharper analytic envelope
    exp(-e^x) + e^-x.  The envelope's true margin over the statistic is
    exp(-e^x), which sinks below float resolution for x beyond ~3.7 (the
    n=1 term equals e^-x exactly), so that comparison carries a rounding
    allowance of one part in 10^12 plus a few ulps of 1.0 (the statistic
    is produced by subtractions of numbers near 1).  x above ln of the
    largest float (~709.78) is rejected: e^x overflows there, and the
    bound 2 e^-x is too close to 0 for the comparison to mean anything.
    """
    ns = _sizes(n_list)
    if not ns or any(n < 1 for n in ns):
        raise ValueError("audit needs at least one sample size, all >= 1")
    xs = np.asarray(list(x_grid), dtype=np.float64)
    # not all(> 0), so that nan is rejected too
    if xs.size == 0 or not np.all(xs > 0):
        raise ValueError("audit grid must contain positive x only")
    if np.any(xs > _TAIL_X_MAX):
        raise ValueError(
            f"audit grid x must be <= {_TAIL_X_MAX!r} (ln of the largest float), "
            f"got {float(xs.max())!r}"
        )
    stacked = np.empty((len(ns), xs.size))
    for i, n in enumerate(ns):
        stacked[i] = _zn_cdf_array(n, -xs) + 1.0 - _zn_cdf_array(n, xs)
    sup_over_n = stacked.max(axis=0)

    results = []
    for x, stat in zip(xs.tolist(), sup_over_n.tolist()):
        bound = 2.0 * math.exp(-x)
        envelope = math.exp(-math.exp(x)) + math.exp(-x)
        results.append(
            TestResult(
                f"tail_bound[x={x:.6g}]",
                stat,
                bound,
                len(ns),
                "pass" if stat < bound else "fail",
            )
        )
        results.append(
            TestResult(
                f"tail_envelope[x={x:.6g}]",
                stat,
                envelope,
                len(ns),
                "pass" if stat <= envelope * (1.0 + 1e-12) + 1e-15 else "fail",
            )
        )
    return results


def tail_bound_summary(
    n_list: Sequence[int], x_grid: Sequence[float], json_lines: bool = False
) -> tuple[int, list[str], str]:
    """tail_bound_audit as a report needs it: (checks, failed test ids, lines).

    lines is every result as results_to_json_lines writes it, or "" without
    json_lines.  The results are read and freed in this layer, so a caller
    that only reports them does no per-result work of its own.
    """
    results = tail_bound_audit(n_list, x_grid)
    failed = [t.test_id for t in results if t.verdict != "pass"]
    return len(results), failed, results_to_json_lines(results) if json_lines else ""


def gumbel_approx_error(n_list: Sequence[int]) -> list[ConvergenceRow]:
    """Sup distance between the shifted-maximum cdf and the Gumbel cdf.

    The sup is taken over 2,000 evenly spaced points covering the support
    from just above -ln n out to 10; it shrinks like ~0.27/n.
    """
    def sup_distance(n: int) -> float:
        xs = np.linspace(-math.log(n) + 1e-6, 10.0, _GUMBEL_GRID_POINTS)
        return float(np.max(np.abs(_zn_cdf_array(n, xs) - np.exp(-np.exp(-xs)))))

    ns = _check_n_list(n_list)
    # the sup is >= 0, so its distance from the target 0.0 is the sup itself
    return _rows(ns, [sup_distance(n) for n in ns], 0.0)


# -- serialization -----------------------------------------------------------


def rows_to_csv(rows: Sequence[ConvergenceRow]) -> str:
    """CSV with columns n,value,target,abs_error (repr floats, round-trip safe)."""
    lines = ["n,value,target,abs_error"]
    for r in rows:
        lines.append(f"{r.n},{r.value!r},{r.target!r},{r.abs_error!r}")
    return "\n".join(lines) + "\n"


_JSON = json.JSONEncoder(sort_keys=True).encode
# one TestResult as JSONEncoder(sort_keys=True) writes it, keys in sorted order
_RESULT_LINE = (
    '{{"n_effective": {}, "statistic": {}, "test_id": {}, '
    '"threshold_or_pvalue": {}, "verdict": {}}}\n'
).format
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    """x as JSONEncoder writes a float: its repr, or NaN, Infinity, -Infinity."""
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def rows_to_json(rows: Sequence[ConvergenceRow]) -> str:
    return _JSON([vars(r) for r in rows])


def results_to_json_lines(results: Sequence[TestResult]) -> str:
    """One JSON object per result and line, byte for byte what JSONEncoder writes.

    No results give one empty line, "\n".
    """
    string = json.encoder.encode_basestring_ascii
    return "".join([
        _RESULT_LINE(
            t.n_effective,
            _json_float(t.statistic),
            string(t.test_id),
            _json_float(t.threshold_or_pvalue),
            string(t.verdict),
        )
        for t in results
    ]) or "\n"
