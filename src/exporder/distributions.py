"""Closed-form distributions for exponential order statistics and gamma races.

The order-statistic cdf is double precision; means and variances are exact
rationals (they feed the identity machinery).  Also here: the exact
probability that an Erlang variable outlasts an order statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .exact import Rational, _sum_pairs, binomial, sum_fractions
from .laplace import OrderStatParams, erlang_weighted_sum

__all__ = [
    "GammaParams",
    "orderstat_cdf",
    "orderstat_mean",
    "orderstat_var",
    "race_probability_exact",
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


def _check_nonnegative(t: float) -> float:
    t = float(t)
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return t


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
    """Exact mean: sum of 1/j over the rates j = n-k+1..n (spacing representation)."""
    return sum_fractions(Fraction(1, j) for j in p.rates)


def orderstat_var(p: OrderStatParams) -> Rational:
    """Exact variance: sum of 1/j^2 over the rates j = n-k+1..n."""
    return Fraction(*_sum_pairs([(1, j**2) for j in p.rates]))


def race_probability_exact(p: OrderStatParams, g: GammaParams) -> Rational:
    """Exact P(gamma variable > k-th order statistic); needs a rational rate."""
    if not isinstance(g.s, (int, Fraction)):
        raise TypeError(f"exact race probability needs a rational rate, got {type(g.s).__name__}")
    return erlang_weighted_sum(p, g.r, Fraction(g.s))

