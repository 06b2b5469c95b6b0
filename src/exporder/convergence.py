"""Kolmogorov-Smirnov kernels and the limit experiments.

The KS tests use the sorted-sample statistic and the asymptotic Kolmogorov
p-value 2*sum_i (-1)^(i-1) exp(-2 i^2 N D^2); decisions default to
alpha = 0.001 so fixed-seed runs are stable.

The tables reproduce two classical limits numerically: H_n - ln n -> the
Euler-Mascheroni constant, and sum 1/j^2 -> pi^2/6.  The variance table
repeats the Basel rows: the largest of n unit exponentials is a sum of
independent E_j/j, so its variance is that partial sum.  Partial sums are
exact big-integer arithmetic up to EXACT_SUM_LIMIT terms and
Shewchuk-compensated float summation (math.fsum) beyond, so every reported
value is correctly rounded.  The float terms 1/j^p are built by numpy in
blocks of _BLOCK (the same IEEE division and power as one Python float at a
time, so the same floats) and all blocks stream into one fsum; blocking
keeps the term lists at 2^15 floats rather than n.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import _zn_cdf_array
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
    "gumbel_approx_error",
    "rows_to_csv",
    "rows_to_json",
    "results_to_json_lines",
]

EULER_GAMMA = 0.5772156649015329
PI_SQUARED_OVER_6 = 1.6449340668482264

# largest n for which reciprocal-power partial sums are done in exact
# big-integer arithmetic; beyond this one math.fsum over numpy-built blocks
# of _BLOCK terms carries the (still correctly rounded) load
EXACT_SUM_LIMIT = 10_000
_BLOCK = 1 << 15

DEFAULT_ALPHA = 0.001

# largest x whose e^x is a finite float (the tail audit's upper limit)
_TAIL_X_MAX = math.log(sys.float_info.max)
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
    """2*sum (-1)^(i-1) exp(-2 i^2 N D^2), truncated once terms drop below 1e-10."""
    if nd2 <= 0:
        return 1.0
    total = 0.0
    sign = 1.0
    for i in range(1, 100_000):
        term = math.exp(-2.0 * i * i * nd2)
        if term < 1e-10:
            break
        total += sign * term
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def _check_not_degenerate(values: np.ndarray, label: str) -> None:
    if values.size > 1 and np.all(values == values[0]):
        raise ValueError(f"degenerate {label}: all values equal")


def _ks_result(test_id: str, d: float, n_eff: float, alpha: float) -> TestResult:
    """The verdict on statistic d with effective sample size n_eff."""
    p = _kolmogorov_pvalue(n_eff * d * d)
    return TestResult(test_id, d, p, int(round(n_eff)), "pass" if p > alpha else "fail")


def ks_one_sample(
    batch: SampleBatch,
    cdf: Callable[[float], float],
    alpha: float = DEFAULT_ALPHA,
    test_id: str = "ks_one_sample",
) -> TestResult:
    """One-sample KS test of a batch against a reference cdf."""
    xs = np.sort(batch.values)
    _check_not_degenerate(xs, "sample")
    n = xs.size
    try:
        f = np.asarray(cdf(xs), dtype=np.float64)
        if f.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        f = np.fromiter((cdf(float(v)) for v in xs), dtype=np.float64, count=n)
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    return _ks_result(test_id, max(d_plus, d_minus, 0.0), n, alpha)


def ks_two_sample(
    a: SampleBatch,
    b: SampleBatch,
    alpha: float = DEFAULT_ALPHA,
    test_id: str = "ks_two_sample",
) -> TestResult:
    """Two-sample KS test that a and b were drawn from one distribution.

    D is the largest gap between the two empirical cdfs over the pooled
    points.  Each sample is sorted in its half of one pooled buffer, and one
    stable argsort merges the two sorted runs; a running count of
    first-sample points along the merge gives the first cdf's count, and the
    merge position minus it the second's.  Of each run of equal pooled
    values only the last index counts: there both counts equal the number of
    points <= that value, so ties are handled exactly.
    """
    na, nb = a.values.size, b.values.size
    pooled = np.concatenate([a.values, b.values])
    xa, xb = pooled[:na], pooled[na:]
    xa.sort()
    xb.sort()
    _check_not_degenerate(xa, "first sample")
    _check_not_degenerate(xb, "second sample")
    order = np.argsort(pooled, kind="stable")
    merged = pooled[order]
    # in place where possible: each fresh pooled-size array costs page faults
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
    d = float(np.max(gap, where=last, initial=0.0))
    return _ks_result(test_id, d, na * nb / (na + nb), alpha)


# -- reciprocal-power partial sums ------------------------------------------


def _recip_power_sum_value(n: int, power: int) -> float:
    if n <= EXACT_SUM_LIMIT:
        num, den = _sum_pairs([(1, j**power) for j in range(1, n + 1)])
        return num / den
    blocks = (
        (1.0 / np.arange(lo, min(lo + _BLOCK, n + 1), dtype=np.float64) ** power).tolist()
        for lo in range(1, n + 1, _BLOCK)
    )
    return math.fsum(itertools.chain.from_iterable(blocks))


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


def _rows(
    n_list: Sequence[int], target: float, value_at: Callable[[int], float]
) -> list[ConvergenceRow]:
    rows = []
    for n in _check_n_list(n_list):
        value = value_at(n)
        rows.append(ConvergenceRow(n, value, target, abs(value - target)))
    return rows


def euler_gamma_table(n_list: Sequence[int]) -> list[ConvergenceRow]:
    """Rows of H_n - ln n against the Euler-Mascheroni constant."""
    return _rows(n_list, EULER_GAMMA, lambda n: _recip_power_sum_value(n, 1) - math.log(n))


def basel_table(n_list: Sequence[int]) -> list[ConvergenceRow]:
    """Rows of the partial sums of 1/j^2 against pi^2/6."""
    return _rows(n_list, PI_SQUARED_OVER_6, lambda n: _recip_power_sum_value(n, 2))


def variance_convergence_check(n_list: Sequence[int]) -> list[ConvergenceRow]:
    """Variance of the largest of n unit exponentials against pi^2/6.

    These are the Basel rows: the maximum is the sum of independent E_j/j
    for j = 1..n, so its variance is the partial sum of 1/j^2.
    """
    return basel_table(n_list)


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
    for x, stat in zip(xs, sup_over_n):
        bound = 2.0 * math.exp(-x)
        envelope = math.exp(-math.exp(x)) + math.exp(-x)
        results.append(
            TestResult(
                f"tail_bound[x={x:.6g}]",
                float(stat),
                bound,
                len(ns),
                "pass" if stat < bound else "fail",
            )
        )
        results.append(
            TestResult(
                f"tail_envelope[x={x:.6g}]",
                float(stat),
                envelope,
                len(ns),
                "pass" if stat <= envelope * (1.0 + 1e-12) + 1e-15 else "fail",
            )
        )
    return results


def gumbel_approx_error(n_list: Sequence[int]) -> list[ConvergenceRow]:
    """Sup distance between the shifted-maximum cdf and the Gumbel cdf.

    The sup is taken over 2,000 evenly spaced points covering the support
    from just above -ln n out to 10; it shrinks like ~0.27/n.
    """
    def sup_distance(n: int) -> float:
        xs = np.linspace(-math.log(n) + 1e-6, 10.0, _GUMBEL_GRID_POINTS)
        return float(np.max(np.abs(_zn_cdf_array(n, xs) - np.exp(-np.exp(-xs)))))

    # the sup is >= 0, so its distance from the target 0.0 is the sup itself
    return _rows(n_list, 0.0, sup_distance)


# -- serialization -----------------------------------------------------------


def rows_to_csv(rows: Sequence[ConvergenceRow]) -> str:
    """CSV with columns n,value,target,abs_error (repr floats, round-trip safe)."""
    lines = ["n,value,target,abs_error"]
    for r in rows:
        lines.append(f"{r.n},{r.value!r},{r.target!r},{r.abs_error!r}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[ConvergenceRow]) -> str:
    return json.dumps([vars(r) for r in rows], sort_keys=True)


def results_to_json_lines(results: Sequence[TestResult]) -> str:
    return "\n".join(json.dumps(vars(t), sort_keys=True) for t in results) + "\n"
