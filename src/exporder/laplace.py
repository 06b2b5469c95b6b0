"""Laplace transforms of exponential order statistics, exactly.

The k-th smallest of n i.i.d. unit exponentials has Laplace transform

    product form:     prod_{j=n-k+1}^{n} j / (s + j)
    double-sum form:  sum_{m=k}^{n} sum_{j=0}^{m} (-1)^j C(n,m) C(m,j)
                          * s / (s + n - m + j)

Both are built here as canonical :class:`RationalFunction` objects, so the
two constructions can be compared structurally.  Each expands prod (s + c)
in one int list, and :meth:`RationalFunction.over_roots` reduces the double
sum by dividing out each (s + c) its numerator shares, with no Euclid.

Every other function gives a value at one point s = a/b, an int or a
Fraction, from plain integers normalized once into a Fraction.  The product
form's value is :func:`product_value`.  On top of it sit the alternating
derivative sum that gives the probability that an independent Erlang
variable outlasts the order statistic, and the same probability written as
a double sum with r-th powers; no derivative is ever built.
Leibniz on f' = f*g, g = -sum_c 1/(s+c), turns u_j = (-s)^j f^(j)(s) / j!
into the positive recurrence

    u_0 = f(s),   u_{m+1} = 1/(m+1) * sum_{i<=m} u_i * H_{m+1-i},
    H_q = sum_{c=n-k+1}^{n} (s/(s+c))^q,

with u_0 from :func:`product_value`, and the derivative sum is
u_0 + ... + u_{r-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import Polynomial, Rational, RationalFunction, Scalar, binomial
from .exact import _deflate, _expand, _ratio, _sum_pairs

__all__ = [
    "OrderStatParams",
    "product_form",
    "double_sum_form",
    "product_value",
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

    @property
    def rates(self) -> range:
        """The rates j = n-k+1..n: X_(k) is the sum of independent E_j / j over them."""
        return range(self.n - self.k + 1, self.n + 1)


def product_form(p: OrderStatParams) -> RationalFunction:
    """Transform as a finite product: constant numerator, denominator of degree k."""
    return RationalFunction(math.prod(p.rates), Polynomial(_expand(p.rates)))


def _signed_coefficients(p: OrderStatParams) -> list[int]:
    # A_c = sum of (-1)^j C(n,m) C(m,j) over the (m, j) with n - m + j = c,
    # m = k..n, j = 0..m; every double sum here is sum_c A_c * term(c)
    n = p.n
    coeff = [0] * (n + 1)
    for m in range(p.k, n + 1):
        c_nm = binomial(n, m)
        for j in range(m + 1):
            term = c_nm * binomial(m, j)
            coeff[n - m + j] += -term if j % 2 else term
    return coeff


def double_sum_form(p: OrderStatParams) -> RationalFunction:
    """Transform as the cdf-derived alternating double sum, canonicalized.

    The (m, j) term is C(n,m) C(m,j) (-1)^j s/(s+c) with c = n - m + j, so
    the double sum is sum_{c=0}^{n} A_c s/(s+c) with integer A_c, of which
    only k+1 are nonzero.  Its numerator s * sum_c A_c prod_{c' != c} (s+c')
    over prod_{c=0}^{n} (s + c) is summed in one int list and reduced once.
    """
    roots = range(p.n + 1)
    shared = _expand(roots)
    numer = [0] * (p.n + 2)
    for c, A in enumerate(_signed_coefficients(p)):
        if A:
            for i, x in enumerate(_deflate(shared, c)[1], 1):
                numer[i] += A * x
    return RationalFunction.over_roots(numer, roots)


def _positive_ratio(s: Scalar) -> tuple[int, int]:
    a, b = _ratio(s)
    if a <= 0:
        raise ValueError(f"transform argument must be > 0, got {s}")
    return a, b


def _check_power(r: int, what: str) -> None:
    if isinstance(r, bool) or not isinstance(r, int):
        raise TypeError(f"{what} must be an int, got {type(r).__name__}")
    if r < 1:
        raise ValueError(f"{what} must be >= 1, got {r}")


def product_value(p: OrderStatParams, s: Scalar) -> Fraction:
    """The product form at one rational s > 0: prod_c c/(s+c) over c = n-k+1..n.

    For s = a/b this is prod c*b / prod (a + c*b), two integer products and
    one normalization, with no rational function built.
    """
    a, b = _positive_ratio(s)
    return Fraction(math.prod(c * b for c in p.rates), math.prod(a + c * b for c in p.rates))


def erlang_weighted_sum(p: OrderStatParams, r: int, s: Scalar) -> Rational:
    """sum_{j=0}^{r-1} (-1)^j s^j / j! * f^(j)(s), evaluated exactly.

    This is the probability that an independent Erlang(rate=s, shape=r)
    variable exceeds the k-th order statistic.

    The sum is evaluated at the point s, without building f^(j) as rational
    functions.  With f = prod_c c/(s+c) over c = n-k+1..n, f' = f*g where
    g = -sum_c 1/(s+c), so Leibniz gives f^(m+1) = sum_i C(m,i) f^(i) g^(m-i).
    In the terms u_j = (-s)^j f^(j)(s) / j! this reads

        u_0 = f(s),   u_{m+1} = 1/(m+1) * sum_{i<=m} u_i * H_{m+1-i},

    with H_q = sum_c (s/(s+c))^q, because (-s)^(q+1) g^(q)(s) / q! = H_{q+1}.
    Every u_j and H_q is positive, so nothing cancels.

    The recurrence runs in integers.  H_q = N_q/D_q is the unreduced pair
    of ``_sum_pairs``, and u_m = u_0 V_m / (m! C_m) with C_0 = 1 and C_m the
    lcm of the C_{m-q} D_q over q = 1..m, a multiple of C_{m-1}.  (Each D_q
    is D_1^q, so C_m = D_1^m.)  The partial sum u_0 + ... + u_m is kept over
    the same denominator, and the result is normalized once.
    """
    _check_power(r, "Erlang shape")
    a, b = _positive_ratio(s)
    u0 = product_value(p, s)
    h = [_sum_pairs([(a**q, (a + c * b) ** q) for c in p.rates]) for q in range(1, r)]
    C, V, total = [1], [1], 1
    for m in range(1, r):
        scaled = [C[m - q] * h[q - 1][1] for q in range(1, m + 1)]
        C.append(math.lcm(*scaled))
        v, falling = 0, 1  # falling = (m-1)!/(m-q)!, so V_m is over m!
        for q in range(1, m + 1):
            v += falling * V[m - q] * h[q - 1][0] * (C[m] // scaled[q - 1])
            falling *= m - q
        V.append(v)
        total = total * m * (C[m] // C[m - 1]) + v
    return Fraction(u0.numerator * total, u0.denominator * math.factorial(r - 1) * C[-1])


def generalized_double_sum(p: OrderStatParams, r: int, s: Scalar) -> Rational:
    """Alternating double sum with r-th powers of s / (s + n - m + j), exact.

    The (m, j) term depends on m and j only through c = n - m + j, so the
    sum is sum_{c=0}^{n} A_c * (s/(s+c))^r with the integer coefficients
    A_c of :func:`double_sum_form`, taken once and normalized once.  At
    k = n, A_c = (-1)^c C(n,c), so r = 1 gives the max-order sum
    sum_j (-1)^j C(n,j) s/(s+j).
    """
    _check_power(r, "power")
    a, b = _positive_ratio(s)
    coeff = _signed_coefficients(p)
    ar = a**r
    return Fraction(*_sum_pairs([(A * ar, (a + c * b) ** r) for c, A in enumerate(coeff) if A]))
