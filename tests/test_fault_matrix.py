"""Planted faults in the exact layer's shared primitives, and the reports each fails.

Each fault is patched into every exporder module that holds the name, then
``run_suite(6, 3, (1/3, 1, 7/2))`` (927 reports) runs once.  The failing
reports, counted per identity family, must be exactly the row's set.  Some
single families are blind to a fault by design: square_power_closed_form's
identity holds for any rate set, so a shared shift of the rates passes it,
and product_vs_double_sum is the family that pins them.  Every fault fails
at least two families, so the suite as a whole catches each one.
"""

import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

# every module that may hold a patched name is loaded, whatever ran before
import exporder
import exporder.cli
import exporder.convergence
import exporder.distributions
import exporder.exact as exact
import exporder.identities
import exporder.laplace as laplace
import exporder.sampling
from exporder.identities import run_suite
from exporder.laplace import OrderStatParams

S_GRID = (Fraction(1, 3), Fraction(1), Fraction(7, 2))
# the true primitives, taken before any test patches their modules
binomial = exact.binomial
_sum_pairs = exact._sum_pairs
erlang_weighted_sum = laplace.erlang_weighted_sum
product_form = laplace.product_form


def binomial_one_up_at_middle(n, k):
    return binomial(n, k) + (1 if n >= 4 and k == n // 2 else 0)


def sum_pairs_dropping_odd_last(items):
    items = list(items)
    if len(items) > 1 and len(items) % 2:
        items.pop()
    return _sum_pairs(items)


def erlang_weighted_sum_off_at_r2(p, r, s):
    return erlang_weighted_sum(p, r, s) + (Fraction(1, 10**6) if r >= 2 else 0)


def product_form_rates_one_up(p):
    return product_form(SimpleNamespace(rates=range(p.n - p.k + 2, p.n + 2)))


# (name, fault, {family: failing reports}); the sizes of the families are
# double_sum_max_order 96, double_sum_min_order 6, integer_rate 225,
# inversion_involution 3, nested 108, power 324, product_vs_double_sum 21,
# square closed form 108, square min order 36
ROWS = [
    (
        "rates",
        property(lambda p: range(p.n - p.k + 2, p.n + 2)),
        {
            "double_sum_max_order": 96,
            "nested_product_sum": 84,
            "power_sum_vs_derivative_sum": 324,
            "product_vs_double_sum": 21,
        },
    ),
    (
        "binomial",
        binomial_one_up_at_middle,
        {
            "double_sum_max_order": 84,
            "double_sum_min_order": 3,
            "integer_rate_reciprocal_binomial": 183,
            "inversion_involution": 3,
            "nested_product_sum": 42,
            "power_sum_vs_derivative_sum": 270,
            "product_vs_double_sum": 15,
            "square_power_min_order": 27,
        },
    ),
    (
        "_sum_pairs",
        sum_pairs_dropping_odd_last,
        {
            "double_sum_max_order": 45,
            "integer_rate_reciprocal_binomial": 105,
            "power_sum_vs_derivative_sum": 216,
            "square_power_closed_form": 36,
        },
    ),
    (
        "erlang_weighted_sum",
        erlang_weighted_sum_off_at_r2,
        {"power_sum_vs_derivative_sum": 216, "square_power_closed_form": 108},
    ),
    (
        "product_form",
        product_form_rates_one_up,
        {
            "double_sum_max_order": 6,
            "nested_product_sum": 108,
            "product_vs_double_sum": 21,
            "square_power_closed_form": 108,
        },
    ),
]


def holders(name):
    """Every loaded exporder module (or class, for rates) that holds name."""
    if name == "rates":
        return [OrderStatParams]
    original = globals()[name]
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "exporder"]
    return [m for m in modules if vars(m).get(name) is original]


@pytest.mark.parametrize("name, fault, expected", ROWS, ids=[row[0] for row in ROWS])
def test_planted_fault_fails_exactly_its_families(monkeypatch, name, fault, expected):
    targets = holders(name)
    assert targets
    for target in targets:
        monkeypatch.setattr(target, name, fault)
    reports = run_suite(6, 3, S_GRID)
    assert len(reports) == 927
    failed = Counter(r.identity_id for r in reports if not r.matched)
    assert failed
    assert dict(failed) == expected
