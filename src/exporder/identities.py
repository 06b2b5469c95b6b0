"""Batch verification of the combinatorial identities, with reports.

Every checker compares two independently computed sides with exact
arithmetic and returns an :class:`IdentityReport`; "exact_match" means the
sides are identical in canonical form (structural equality for rational
functions, plain equality for rationals).  A point s is an int or a
Fraction; each rational side is summed in integers and normalized once, and
the structural sides are ``laplace``'s forms, reduced without Euclid.
:func:`run_suite` sweeps the whole family over a parameter grid and returns
reports in a deterministic order.  A report is one JSON line from one line
template, the bytes ``json.dumps`` writes with sorted keys: a fraction as
its string, a rational function as its coefficient lists, a tuple side as
a list of fraction strings.  A value of any other type raises TypeError.

The product form prod_j j/(s+j) enters the pointwise checkers two ways.
``laplace.product_value`` gives its value on one side:
``verify_max_order_value``'s right side, ``verify_nested``'s left side (one
max-order product per term), and the first term of ``erlang_weighted_sum``,
the left side of ``verify_generalized`` and ``verify_square_closed_form``.
The right sides of ``verify_nested`` and ``verify_square_closed_form``
evaluate the structural ``product_form(p)`` at s.  They must: were they
``product_value`` too, a fault in it would scale both sides alike and
cancel.  With the structural right sides, such a fault fails every
``double_sum_max_order`` value report, ``nested_product_sum``,
``power_sum_vs_derivative_sum`` and ``square_power_closed_form``.

Identity ids name what is being compared:

    product_vs_double_sum            product form == double-sum form (all s)
    double_sum_min_order             k=1 double sum == n/(s+n)
    double_sum_max_order             k=n double sum == prod_{j<=n} j/(s+j)
    integer_rate_reciprocal_binomial alternating sum at integer rate == 1/C(n+k, k)
    nested_product_sum               single-sum-of-products form == product form
    power_sum_vs_derivative_sum      r-th-power double sum == derivative sum
    square_power_closed_form         r=2 derivative sum == product * bracket
    square_power_min_order           r=2, k=1 double sum == n(n+2s)/(s+n)^2
    inversion_involution             alternating-binomial transform is self-inverse
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .exact import Polynomial, Rational, RationalFunction, _ratio, binomial
from .laplace import (
    OrderStatParams,
    double_sum_form,
    erlang_weighted_sum,
    generalized_double_sum,
    product_form,
    product_value,
)

__all__ = [
    "IdentityReport",
    "verify_main",
    "verify_min_order",
    "verify_max_order",
    "verify_max_order_value",
    "verify_integer_rate",
    "verify_nested",
    "verify_generalized",
    "verify_square_closed_form",
    "verify_square_min_order",
    "verify_inversion_involution",
    "binomial_invert",
    "run_suite",
    "report_to_json",
    "reports_to_json_lines",
]

Side = Rational | RationalFunction | tuple

EXACT_MATCH = "exact_match"
MISMATCH = "mismatch"

# sweep ceilings; chosen to finish in seconds while pushing every
# intermediate well past 64-bit integer range (max_n and max_r are set per run)
DEFAULT_MAX_N_STRUCTURAL = 12
DEFAULT_MAX_N_POINTWISE = 30
DEFAULT_MAX_INTEGER_RATE = 15
DEFAULT_MAX_N_NESTED = 8
DEFAULT_MAX_N_POWER = 8
DEFAULT_MAX_N_SQUARE_MIN = 12
DEFAULT_S_GRID = (
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(7, 2),
    Fraction(5),
)
_INVOLUTION_SEED = 90210
_INVOLUTION_LENGTHS = (8, 8, 8)


@dataclass
class IdentityReport:
    """Outcome of one exact identity check."""

    identity_id: str
    params: dict
    lhs: Side
    rhs: Side
    verdict: str

    @property
    def matched(self) -> bool:
        return self.verdict == EXACT_MATCH


def _report(identity_id: str, params: dict, lhs: Side, rhs: Side) -> IdentityReport:
    verdict = EXACT_MATCH if lhs == rhs else MISMATCH
    return IdentityReport(identity_id, params, lhs, rhs, verdict)


def _transform_report(identity_id: str, n: int, k: int) -> IdentityReport:
    p = OrderStatParams(n, k)
    return _report(identity_id, {"n": n, "k": k}, double_sum_form(p), product_form(p))


def verify_main(n: int, k: int) -> IdentityReport:
    """Product form vs double-sum form as canonical rational functions."""
    return _transform_report("product_vs_double_sum", n, k)


def verify_min_order(n: int) -> IdentityReport:
    """k=1 double sum vs the minimum's transform n/(s+n), structurally."""
    lhs = double_sum_form(OrderStatParams(n, 1))
    rhs = RationalFunction(Polynomial((n,)), Polynomial((n, 1)))
    return _report("double_sum_min_order", {"n": n, "k": 1}, lhs, rhs)


def verify_max_order(n: int) -> IdentityReport:
    """k=n double sum vs the full product over j = 1..n, structurally."""
    return _transform_report("double_sum_max_order", n, n)


def verify_max_order_value(n: int, s: Rational) -> IdentityReport:
    """k=n identity at one rational s > 0: alternating single sum vs product value.

    The left side is the k=n double sum, whose coefficients A_c reduce to
    (-1)^c C(n,c); the right side is prod_{j<=n} j/(s+j) from
    :func:`~exporder.laplace.product_value`.
    """
    p = OrderStatParams(n, n)
    s = Fraction(*_ratio(s))
    lhs = generalized_double_sum(p, 1, s)
    rhs = product_value(p, s)
    return _report("double_sum_max_order", {"n": n, "k": n, "s": s}, lhs, rhs)


def verify_integer_rate(n: int, k_s: int) -> IdentityReport:
    """Max-order sum at s = k_s, sum_c (-1)^c C(n,c) k_s/(k_s+c), vs 1/C(n+k_s, k_s)."""
    if n < 1 or k_s < 1:
        raise ValueError(f"n and k_s must be >= 1, got n={n}, k_s={k_s}")
    lhs = generalized_double_sum(OrderStatParams(n, n), 1, k_s)
    rhs = Fraction(1, binomial(n + k_s, k_s))
    return _report("integer_rate_reciprocal_binomial", {"n": n, "k_s": k_s}, lhs, rhs)


def verify_nested(n: int, k: int, s: Rational) -> IdentityReport:
    """Single sum of binomial-weighted products vs the product form, at one s > 0.

    The left side is sum_{m=k}^{n} C(n,m) s/(s+n-m) prod_{i<=m} i/(s+n-m+i),
    each product the max-order transform of m variables at s+n-m, read from
    :func:`~exporder.laplace.product_value` and summed in integers.  The
    right side evaluates the structural ``product_form(p)`` at s.
    """
    p = OrderStatParams(n, k)
    s = Fraction(*_ratio(s))
    a, b = s.numerator, s.denominator
    if a <= 0:
        raise ValueError(f"s must be > 0, got {s}")
    num, den = 0, 1
    for m in range(k, n + 1):
        value = product_value(OrderStatParams(m, m), s + (n - m))
        term_num = binomial(n, m) * a * value.numerator
        term_den = (a + (n - m) * b) * value.denominator
        num, den = num * term_den + term_num * den, den * term_den
    lhs = Fraction(num, den)
    rhs = product_form(p).evaluate(s)
    return _report("nested_product_sum", {"n": n, "k": k, "s": s}, lhs, rhs)


def verify_generalized(n: int, k: int, r: int, s: Rational) -> IdentityReport:
    """r-th-power double sum vs the alternating derivative sum, exactly."""
    p = OrderStatParams(n, k)
    lhs = generalized_double_sum(p, r, s)
    rhs = erlang_weighted_sum(p, r, s)
    params = {"n": n, "k": k, "r": r, "s": Fraction(*_ratio(s))}
    return _report("power_sum_vs_derivative_sum", params, lhs, rhs)


def verify_square_closed_form(n: int, k: int, s: Rational) -> IdentityReport:
    """r=2 derivative sum vs its closed form product * (1 + sum s/(s+j)), bracket in integers."""
    p = OrderStatParams(n, k)
    s = Fraction(*_ratio(s))
    a, b = s.numerator, s.denominator
    lhs = erlang_weighted_sum(p, 2, s)
    num, den = 1, 1
    for j in p.rates:
        num, den = num * (a + j * b) + a * den, den * (a + j * b)
    value = product_form(p).evaluate(s)
    rhs = Fraction(value.numerator * num, value.denominator * den)
    return _report("square_power_closed_form", {"n": n, "k": k, "r": 2, "s": s}, lhs, rhs)


def verify_square_min_order(n: int, s: Rational) -> IdentityReport:
    """r=2, k=1 double sum vs the closed form n(n+2s)/(s+n)^2."""
    s = Fraction(*_ratio(s))
    a, b = s.numerator, s.denominator
    lhs = generalized_double_sum(OrderStatParams(n, 1), 2, s)
    rhs = Fraction(n * (n * b + 2 * a) * b, (a + n * b) ** 2)
    return _report("square_power_min_order", {"n": n, "k": 1, "r": 2, "s": s}, lhs, rhs)


def binomial_invert(a: Sequence[Rational]) -> tuple:
    """Alternating binomial transform b_n = sum_j (-1)^j C(n,j) a_j; self-inverse."""
    if not a:
        raise ValueError("binomial_invert needs a nonempty sequence")
    a = [Fraction(x) for x in a]
    out = []
    for n in range(len(a)):
        b = Fraction(0)
        for j in range(n + 1):
            term = binomial(n, j) * a[j]
            b += -term if j % 2 else term
        out.append(b)
    return tuple(out)


def verify_inversion_involution(a: Sequence[Rational], index: int = 0) -> IdentityReport:
    """Applying the alternating binomial transform twice returns the input."""
    original = tuple(Fraction(x) for x in a)
    lhs = binomial_invert(binomial_invert(original))
    return _report("inversion_involution", {"length": len(original), "index": index}, lhs, original)


def _run_case(check: Callable, identity_id: str, params: dict, *args) -> IdentityReport:
    # check(*args), or check(*params.values()) when no args are given; an
    # error becomes a mismatch report so one bad cell cannot abort a sweep
    try:
        return check(*(args or params.values()))
    except Exception as exc:  # noqa: BLE001 - deliberate aggregation
        params = {**params, "error": f"{type(exc).__name__}: {exc}"}
        return IdentityReport(identity_id, params, Fraction(0), Fraction(0), MISMATCH)


def _cases(max_n: int, max_r: int, s_grid: tuple) -> Iterator[tuple]:
    # (checker, identity id, params[, args]) per grid cell, in report order:
    # identity id, then n, k (or k_s), r, s and index, with params in the
    # checker's positional order.  The verify_* module globals are read at
    # each yield, so a rebound checker (a test's injected fault, a tracer)
    # is the one run
    for n in range(1, max(max_n, DEFAULT_MAX_N_POINTWISE) + 1):
        if n <= max_n:
            yield verify_max_order, "double_sum_max_order", {"n": n}
        if n <= DEFAULT_MAX_N_POINTWISE:
            for s in s_grid:
                yield verify_max_order_value, "double_sum_max_order", {"n": n, "s": s}

    for n in range(1, max_n + 1):
        yield verify_min_order, "double_sum_min_order", {"n": n}

    for n in range(1, DEFAULT_MAX_INTEGER_RATE + 1):
        for k_s in range(1, DEFAULT_MAX_INTEGER_RATE + 1):
            yield verify_integer_rate, "integer_rate_reciprocal_binomial", {"n": n, "k_s": k_s}

    rng = random.Random(_INVOLUTION_SEED)
    for idx, length in enumerate(_INVOLUTION_LENGTHS):
        seq = tuple(
            Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(length)
        )
        params = {"length": length, "index": idx}
        yield verify_inversion_involution, "inversion_involution", params, seq, idx

    for n in range(1, DEFAULT_MAX_N_NESTED + 1):
        for k in range(1, n + 1):
            for s in s_grid:
                yield verify_nested, "nested_product_sum", {"n": n, "k": k, "s": s}

    for n in range(1, DEFAULT_MAX_N_POWER + 1):
        for k in range(1, n + 1):
            for r in range(1, max_r + 1):
                for s in s_grid:
                    params = {"n": n, "k": k, "r": r, "s": s}
                    yield verify_generalized, "power_sum_vs_derivative_sum", params

    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            yield verify_main, "product_vs_double_sum", {"n": n, "k": k}

    if max_r >= 2:
        for n in range(1, DEFAULT_MAX_N_POWER + 1):
            for k in range(1, n + 1):
                for s in s_grid:
                    params = {"n": n, "k": k, "s": s}
                    yield verify_square_closed_form, "square_power_closed_form", params

        for n in range(1, DEFAULT_MAX_N_SQUARE_MIN + 1):
            for s in s_grid:
                yield verify_square_min_order, "square_power_min_order", {"n": n, "s": s}


def run_suite(
    max_n: int, max_r: int, s_grid: Sequence[Rational] = DEFAULT_S_GRID
) -> list[IdentityReport]:
    """Run every identity checker over the verification grid; deterministic order.

    max_n bounds the structural sweeps, max_r the power identities, and
    s_grid holds the points of every pointwise family, taken in ascending
    order.  The other sweeps run to the fixed DEFAULT_MAX_* ceilings.
    Reports come out of ``_cases`` in report order: identity id, then n,
    k (or k_s), r, s and index, so nothing is sorted afterwards.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    s_grid = tuple(sorted(Fraction(*_ratio(s)) for s in s_grid))
    return [_run_case(*case) for case in _cases(max_n, max_r, s_grid)]


# one report as json.dumps(vars(report), sort_keys=True) writes it: a
# fraction as its string, a rational function as its coefficient lists, a
# tuple side as a list of fraction strings
_LINE = '{{"identity_id": {}, "lhs": {}, "params": {{{}}}, "rhs": {}, "verdict": {}}}'.format
_STRING = json.encoder.encode_basestring_ascii
_FRACTION_STRING = '"{!s}"'.format


def _coefficients(poly: Polynomial) -> str:
    return ", ".join(map(str, poly.coeffs))


class _Encoders(dict):
    # type -> encoder; a type with no encoder raises TypeError naming it
    def __missing__(self, kind: type):
        raise TypeError(f"a report holds no {kind.__name__}")


_ELEMENT = _Encoders({Fraction: _FRACTION_STRING})
_SIDE = _Encoders({
    Fraction: _FRACTION_STRING,
    RationalFunction: lambda f: (
        f'{{"denom": [{_coefficients(f.denom)}], "numer": [{_coefficients(f.numer)}]}}'
    ),
    tuple: lambda t: f"[{', '.join([_ELEMENT[type(f)](f) for f in t])}]",
})
_PARAM = _Encoders(
    {int: str, bool: lambda b: "true" if b else "false", str: _STRING, Fraction: _FRACTION_STRING}
)


def report_to_json(report: IdentityReport) -> str:
    """One report as a JSON object (one line), from one template.

    Sides are a Fraction, a RationalFunction or a tuple of Fractions; params
    are int, bool, str or Fraction.  Any other value raises TypeError.
    """
    return _LINE(
        _STRING(report.identity_id),
        _SIDE[type(report.lhs)](report.lhs),
        ", ".join([f"{_STRING(k)}: {_PARAM[type(v)](v)}" for k, v in sorted(report.params.items())]),
        _SIDE[type(report.rhs)](report.rhs),
        _STRING(report.verdict),
    )


def reports_to_json_lines(reports: Sequence[IdentityReport]) -> str:
    return "\n".join([report_to_json(r) for r in reports]) + "\n"
