"""Laplace transforms of exponential order statistics, exactly.

The k-th smallest of n i.i.d. unit exponentials has Laplace transform

    product form:     prod_{j=n-k+1}^{n} j / (s + j)
    double-sum form:  sum_{m=k}^{n} sum_{j=0}^{m} (-1)^j C(n,m) C(m,j)
                          * s / (s + n - m + j)

Both are built here as canonical :class:`RationalFunction` objects, so the
two constructions can be compared structurally.  On top of them sit the
j-th derivatives, the alternating derivative sum that gives the probability
that an independent Erlang variable outlasts the order statistic, and the
same probability written as a double sum with r-th powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import Polynomial, Rational, RationalFunction, Scalar, binomial

__all__ = [
    "OrderStatParams",
    "product_form",
    "double_sum_form",
    "laplace_derivative",
    "erlang_weighted_sum",
    "generalized_double_sum",
]


@dataclass(frozen=True)
class OrderStatParams:
    """Sample size n and order index k, with 1 <= k <= n."""

    n: int
    k: int

    def __post_init__(self):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (self.n, self.k)):
            raise TypeError("n and k must be integers")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"order index must satisfy 1 <= k <= n, got k={self.k}, n={self.n}")


def _s_plus(c: int) -> Polynomial:
    return Polynomial((c, 1))


def product_form(p: OrderStatParams) -> RationalFunction:
    """Transform as a finite product: constant numerator, denominator of degree k."""
    numer = 1
    denom = Polynomial((1,))
    for j in range(p.n - p.k + 1, p.n + 1):
        numer *= j
        denom = denom * _s_plus(j)
    return RationalFunction(Polynomial((numer,)), denom)


def double_sum_form(p: OrderStatParams) -> RationalFunction:
    """Transform as the cdf-derived alternating double sum, canonicalized.

    Every term has a denominator s + c with c = n - m + j in {0, ..., n},
    so the sum is accumulated exactly over the shared denominator
    prod_{c=0}^{n} (s + c) and reduced once at the end.
    """
    n, k = p.n, p.k
    shared = Polynomial((1,))
    for c in range(n + 1):
        shared = shared * _s_plus(c)
    cofactor = [shared.divexact(_s_plus(c)) for c in range(n + 1)]

    numer = Polynomial()
    for m in range(k, n + 1):
        c_nm = binomial(n, m)
        for j in range(m + 1):
            coeff = c_nm * binomial(m, j)
            if j % 2:
                coeff = -coeff
            numer = numer + (cofactor[n - m + j] * coeff).shift()
    return RationalFunction(numer, shared)


def laplace_derivative(p: OrderStatParams, j: int) -> RationalFunction:
    """j-th derivative of the product form; j = 0 returns the transform itself."""
    if j < 0:
        raise ValueError(f"derivative order must be >= 0, got {j}")
    f = product_form(p)
    for _ in range(j):
        f = f.derivative()
    return f


def _positive_rational(s: Scalar) -> Fraction:
    s = Fraction(s)
    if s <= 0:
        raise ValueError(f"transform argument must be > 0, got {s}")
    return s


def erlang_weighted_sum(p: OrderStatParams, r: int, s: Scalar) -> Rational:
    """sum_{j=0}^{r-1} (-1)^j s^j / j! * f^(j)(s), evaluated exactly.

    This is the probability that an independent Erlang(rate=s, shape=r)
    variable exceeds the k-th order statistic.
    """
    if r < 1:
        raise ValueError(f"Erlang shape must be >= 1, got {r}")
    s = _positive_rational(s)
    f = product_form(p)
    total = Fraction(0)
    sign = 1
    for j in range(r):
        total += sign * s**j * f.evaluate(s) / math.factorial(j)
        sign = -sign
        if j + 1 < r:
            f = f.derivative()
    return total


def generalized_double_sum(p: OrderStatParams, r: int, s: Scalar) -> Rational:
    """Alternating double sum with r-th powers of s / (s + n - m + j), exact."""
    if r < 1:
        raise ValueError(f"power must be >= 1, got {r}")
    s = _positive_rational(s)
    n, k = p.n, p.k
    total = Fraction(0)
    for m in range(k, n + 1):
        c_nm = binomial(n, m)
        for j in range(m + 1):
            term = c_nm * binomial(m, j) * (s / (s + n - m + j)) ** r
            total += -term if j % 2 else term
    return total
