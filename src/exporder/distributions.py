"""Closed-form distributions for exponential order statistics and gamma races.

Densities and cdfs are double precision; means and variances are exact
rationals (they feed the identity machinery).  Also here: the Erlang
survival function, the exact probability that an Erlang variable outlasts
an order statistic, and the extreme-value pieces (the shifted-maximum cdf
and its Gumbel limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

import numpy as np

from .exact import Rational, _sum_pairs, binomial, sum_fractions
from .laplace import OrderStatParams, erlang_weighted_sum

__all__ = [
    "GammaParams",
    "orderstat_pdf",
    "orderstat_cdf",
    "orderstat_mean",
    "orderstat_var",
    "erlang_survival",
    "race_probability_exact",
    "gumbel_cdf",
    "zn_cdf",
]


@dataclass(frozen=True)
class GammaParams:
    """Gamma distribution with finite rate s > 0 and integer shape r >= 1."""

    s: Real
    r: int

    def __post_init__(self):
        # compared, not float()-ed, so a huge exact rate stays accepted
        if isinstance(self.s, bool) or not 0 < self.s < math.inf:
            raise ValueError(f"rate must be > 0 and finite, got {self.s}")
        if isinstance(self.r, bool) or not (isinstance(self.r, int) and self.r >= 1):
            raise ValueError(f"shape must be an integer >= 1, got {self.r}")


def _float_rate(s: Real) -> float:
    """A GammaParams rate as a float: inf where the exact rate is beyond the float range."""
    try:
        return float(s)
    except OverflowError:
        return math.inf


def _check_nonnegative(t: float, name: str = "t") -> float:
    t = float(t)
    if not t >= 0:
        raise ValueError(f"{name} must be >= 0, got {t}")
    return t


def orderstat_pdf(p: OrderStatParams, t: float) -> float:
    """Density of the k-th smallest of n unit exponentials at t >= 0.

    Evaluated in log space: the exact normalizer 1/B(k, n-k+1) = k*C(n, k)
    overflows a float from n ~ 1,030, but its log does not.  w = 1 - e^-t
    uses expm1 so small t does not cancel catastrophically.
    """
    t = _check_nonnegative(t)
    if t == 0.0:
        return float(p.n) if p.k == 1 else 0.0
    w = -math.expm1(-t)
    log_norm = math.log(p.k * binomial(p.n, p.k))
    return math.exp(log_norm + (p.k - 1) * math.log(w) - (p.n - p.k + 1) * t)


def orderstat_cdf(p: OrderStatParams, t: float) -> float:
    """cdf of the k-th smallest of n unit exponentials at t >= 0.

    The binomial terms C(n, m) w^m e^-(n-m)t, m = k..n, are each a
    probability, evaluated as exp of their log (C(n, m) itself overflows a
    float from n ~ 1,030) and combined with fsum.  C(n, m) is stepped
    exactly from C(n, k), one small multiply and divide per term.  The logs
    are sums of parts as large as ~n, so a term carries ~n ulps of relative
    rounding; the result is monotone to that precision and clamped to 1.
    """
    t = _check_nonnegative(t)
    if t == 0.0:
        return 0.0
    if math.isinf(t):
        return 1.0
    log_w = math.log(-math.expm1(-t))
    terms = []
    c = binomial(p.n, p.k)
    for m in range(p.k, p.n + 1):
        terms.append(math.exp(math.log(c) + m * log_w - (p.n - m) * t))
        c = c * (p.n - m) // (m + 1)
    return min(math.fsum(terms), 1.0)


def orderstat_mean(p: OrderStatParams) -> Rational:
    """Exact mean: sum of 1/(n-k+j) for j = 1..k (spacing representation)."""
    return sum_fractions(Fraction(1, p.n - p.k + j) for j in range(1, p.k + 1))


def orderstat_var(p: OrderStatParams) -> Rational:
    """Exact variance: sum of 1/(n-k+j)^2 for j = 1..k."""
    return Fraction(*_sum_pairs([(1, (p.n - p.k + j) ** 2) for j in range(1, p.k + 1)]))


def erlang_survival(g: GammaParams, x: float) -> float:
    """P(X > x) for X ~ Gamma(rate=s, integer shape=r): the Erlang tail sum.

    The terms e^-sx (sx)^j / j!, j < r, are summed in log space relative to
    the largest one; e^-sx alone underflows to 0 for sx beyond ~745 even
    where the sum is close to 1.
    """
    x = _check_nonnegative(x, "x")
    # the ends first: there a rate beyond the float range (inf) or below it
    # (0.0) would make s*x nan
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    sx = _float_rate(g.s) * x
    if sx == 0.0:
        return 1.0
    if math.isinf(sx):
        return 0.0
    log_terms = [j * math.log(sx) - sx - math.lgamma(j + 1) for j in range(g.r)]
    top = max(log_terms)
    return min(math.exp(top) * math.fsum(math.exp(t - top) for t in log_terms), 1.0)


def race_probability_exact(p: OrderStatParams, g: GammaParams) -> Rational:
    """Exact P(gamma variable > k-th order statistic); needs a rational rate."""
    if not isinstance(g.s, (int, Fraction)):
        raise TypeError(f"exact race probability needs a rational rate, got {type(g.s).__name__}")
    return erlang_weighted_sum(p, g.r, Fraction(g.s))


def _check_not_nan(x: float) -> float:
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be nan")
    return x


def gumbel_cdf(x: float) -> float:
    """Standard Gumbel cdf exp(-e^-x)."""
    # beyond e^709 the cdf is already 0.0; clamp before math.exp overflows
    return math.exp(-math.exp(min(-_check_not_nan(x), 709.0)))


def zn_cdf(n: int, x: float) -> float:
    """cdf of (max of n unit exponentials) - ln n: (1 - e^-x / n)^n on its support.

    Zero for x < -ln n (the formula's base would go negative there); the
    power is taken as exp(n*log1p(.)) for accuracy at large n.
    """
    if isinstance(n, bool) or not (isinstance(n, int) and n >= 1):
        raise ValueError(f"sample size must be an integer >= 1, got {n}")
    return float(_zn_cdf_array(n, np.asarray(_check_not_nan(x))))


def _zn_cdf_array(n: int, x: np.ndarray) -> np.ndarray:
    """Vectorized zn_cdf over a float array (shared by the audit grids)."""
    ratio = np.exp(-x) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(ratio < 1.0, np.exp(n * np.log1p(-np.minimum(ratio, 1.0))), 0.0)
    return vals
