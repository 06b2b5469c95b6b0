"""Both transform constructions, their derivatives, and the weighted sums."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exporder.laplace as laplace
from exporder.exact import Polynomial, RationalFunction, binomial
from exporder.identities import DEFAULT_S_GRID
from exporder.laplace import (
    OrderStatParams,
    double_sum_form,
    erlang_weighted_sum,
    generalized_double_sum,
    product_form,
    product_value,
)

F = Fraction

ORACLE_GRID = [F(1, 100), F(1, 3), F(1), F(13, 7), F(5)]


class TestParams:
    @pytest.mark.parametrize("n,k", [(0, 0), (3, 0), (2, 3), (0, 1)])
    def test_invalid_rejected(self, n, k):
        with pytest.raises(ValueError):
            OrderStatParams(n, k)

    @pytest.mark.parametrize("n,k", [(True, True), (3, True)])
    def test_bool_rejected(self, n, k):
        with pytest.raises(TypeError):
            OrderStatParams(n, k)

    def test_valid(self):
        p = OrderStatParams(5, 2)
        assert (p.n, p.k) == (5, 2)

    def test_rates(self):
        """X_(k) sums E_j / j over k rates that end at n."""
        assert list(OrderStatParams(5, 3).rates) == [3, 4, 5]
        assert list(OrderStatParams(12, 1).rates) == [12]
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert list(OrderStatParams(n, k).rates) == [n - k + 1 + i for i in range(k)]


class TestProductForm:
    def test_single_factor(self):
        assert product_form(OrderStatParams(1, 1)) == RationalFunction(
            Polynomial((1,)), Polynomial((1, 1))
        )

    def test_direct_product_evaluation(self):
        # (2/(1+2)) * (3/(1+3)) = 1/2
        assert product_form(OrderStatParams(3, 2)).evaluate(F(1)) == F(1, 2)
        # (1/(2+1)) * (2/(2+2)) = 1/6
        assert product_form(OrderStatParams(2, 2)).evaluate(F(2)) == F(1, 6)

    def test_degree_bookkeeping(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                f = product_form(OrderStatParams(n, k))
                assert f.denom.degree == k
                assert f.numer.degree == 0


class TestProductValue:
    @pytest.mark.parametrize("s", sorted({*DEFAULT_S_GRID, F(1, 100), F(13, 7), F(10**6)}))
    def test_equals_the_structural_form(self, s):
        for n in range(1, 13):
            for k in range(1, n + 1):
                p = OrderStatParams(n, k)
                assert product_value(p, s) == product_form(p).evaluate(s)

    def test_int_argument(self):
        assert product_value(OrderStatParams(3, 2), 1) == F(1, 2)

    @pytest.mark.parametrize("s", [0, F(-1, 2), -3])
    def test_nonpositive_s_rejected(self, s):
        with pytest.raises(ValueError, match="must be > 0"):
            product_value(OrderStatParams(3, 2), s)


class TestDoubleSumForm:
    def test_two_term_hand_sum(self):
        # n=k=1: 1 - 1/(s+1) evaluated at s=1 gives 1 - 1/2
        assert double_sum_form(OrderStatParams(1, 1)).evaluate(F(1)) == F(1, 2)

    def test_brute_force_six_terms(self):
        """n=2, k=1 at s=1 against a from-scratch accumulation of all terms."""
        total = F(0)
        s = F(1)
        for m in range(1, 3):
            for j in range(m + 1):
                term = binomial(2, m) * binomial(m, j) * s / (s + j + 2 - m)
                total += -term if j % 2 else term
        lhs = double_sum_form(OrderStatParams(2, 1)).evaluate(s)
        assert lhs == total == F(2, 3)

    def test_canonical_equality_with_product(self):
        assert double_sum_form(OrderStatParams(3, 3)) == product_form(OrderStatParams(3, 3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_structural_identity_small(self, n):
        for k in range(1, n + 1):
            p = OrderStatParams(n, k)
            assert double_sum_form(p) == product_form(p)

    def test_pointwise_second_check(self):
        """Grid evaluation as an independent check on canonicalization."""
        grid = [F(1, 3), F(1), F(7, 2)]
        for n in range(1, 7):
            for k in range(1, n + 1):
                p = OrderStatParams(n, k)
                ds, pf = double_sum_form(p), product_form(p)
                for s in grid:
                    assert ds.evaluate(s) == pf.evaluate(s)


class TestLaplaceDerivative:
    """Derivatives of the product form, built with RationalFunction.derivative."""

    def test_first_derivative_structural(self):
        assert product_form(OrderStatParams(1, 1)).derivative() == RationalFunction(
            Polynomial((-1,)), Polynomial((1, 2, 1))
        )

    def test_first_derivative_value(self):
        assert product_form(OrderStatParams(1, 1)).derivative().evaluate(F(1)) == F(-1, 4)

    def test_logarithmic_derivative_oracle(self):
        """f' = -f * sum 1/(s+j): check the value at s=1 and the full structure."""
        p = OrderStatParams(3, 2)
        d1 = product_form(p).derivative()
        assert d1.evaluate(F(1)) == -F(1, 2) * (F(1, 4) + F(1, 3)) == F(-7, 24)
        f = product_form(p)
        log_sum = sum(
            (
                RationalFunction(Polynomial((1,)), Polynomial((j, 1)))
                for j in range(p.n - p.k + 1, p.n + 1)
            ),
            RationalFunction(Polynomial(()), Polynomial((1,))),
        )
        assert d1 == -(f * log_sum)


class TestErlangWeightedSum:
    def test_reduces_to_transform_at_r1(self):
        assert erlang_weighted_sum(OrderStatParams(1, 1), 1, F(1)) == F(1, 2)

    def test_r2_hand_value(self):
        # f(1) - 1 * f'(1) = 1/2 + 1/4
        assert erlang_weighted_sum(OrderStatParams(1, 1), 2, F(1)) == F(3, 4)

    def test_r2_general_case(self):
        assert erlang_weighted_sum(OrderStatParams(3, 2), 2, F(1)) == F(19, 24)

    def test_closed_form_cross_check(self):
        """r=2 equals product * (1 + sum s/(s+j)), checked independently."""
        for n, k, s in [(3, 2, F(1)), (4, 4, F(1, 2)), (5, 1, F(7, 2))]:
            p = OrderStatParams(n, k)
            bracket = 1 + sum(s / (s + j) for j in range(n - k + 1, n + 1))
            assert erlang_weighted_sum(p, 2, s) == product_form(p).evaluate(s) * bracket

    @pytest.mark.parametrize("bad_r", [0, -2])
    def test_bad_shape_rejected(self, bad_r):
        with pytest.raises(ValueError):
            erlang_weighted_sum(OrderStatParams(2, 1), bad_r, F(1))

    def test_nonpositive_s_rejected(self):
        with pytest.raises(ValueError):
            erlang_weighted_sum(OrderStatParams(2, 1), 1, F(0))

    def test_matches_quotient_rule_oracle(self):
        """The recurrence against sum_j (-s)^j f^(j)(s) / j! from built derivatives."""
        for n in range(1, 9):
            for k in range(1, n + 1):
                p = OrderStatParams(n, k)
                derivs = [product_form(p)]
                for _ in range(5):
                    derivs.append(derivs[-1].derivative())
                for s in ORACLE_GRID:
                    oracle = F(0)
                    for r in range(1, 7):
                        j = r - 1
                        oracle += (-s) ** j * derivs[j].evaluate(s) / math.factorial(j)
                        assert erlang_weighted_sum(p, r, s) == oracle, (n, k, r, s)

    @settings(max_examples=60, deadline=None)
    @given(
        nk=st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        num=st.integers(1, 10**6),
        den=st.integers(1, 10**6),
    )
    def test_probability_increasing_in_shape(self, nk, num, den):
        """P(Erlang(r, s) > X_(k)) lies in (0, 1) and grows with the shape r."""
        p, s = OrderStatParams(*nk), F(num, den)
        values = [erlang_weighted_sum(p, r, s) for r in range(1, 7)]
        assert all(0 < v < 1 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))


class TestGeneralizedDoubleSum:
    def test_two_term_hand_computation(self):
        # 1 - (1/2)^2
        assert generalized_double_sum(OrderStatParams(1, 1), 2, F(1)) == F(3, 4)

    def test_r1_reduces_to_double_sum(self):
        p = OrderStatParams(3, 2)
        assert generalized_double_sum(p, 1, F(1)) == double_sum_form(p).evaluate(F(1))

    def test_min_order_r2_closed_form(self):
        # brute-force double sum must give n(n+2s)/(s+n)^2 = 8/9 at n=2, s=1
        assert generalized_double_sum(OrderStatParams(2, 1), 2, F(1)) == F(8, 9)

    def test_matches_erlang_weighted_sum(self):
        grid = [F(1, 3), F(1, 2), F(1), F(2), F(7, 2), F(5)]
        for n in range(1, 6):
            for k in range(1, n + 1):
                p = OrderStatParams(n, k)
                for r in (1, 2, 3, 4):
                    for s in grid:
                        assert generalized_double_sum(p, r, s) == erlang_weighted_sum(p, r, s)

    def test_matches_term_by_term_loop(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                p = OrderStatParams(n, k)
                for r in range(1, 7):
                    for s in ORACLE_GRID:
                        total = F(0)
                        for m in range(k, n + 1):
                            for j in range(m + 1):
                                term = binomial(n, m) * binomial(m, j) * (s / (s + n - m + j)) ** r
                                total += -term if j % 2 else term
                        assert generalized_double_sum(p, r, s) == total, (n, k, r, s)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            generalized_double_sum(OrderStatParams(2, 1), 0, F(1))
        with pytest.raises(ValueError):
            generalized_double_sum(OrderStatParams(2, 1), 1, F(-1))


NOT_EXACT = [0.1, 1.0, True, "1/2", None]


class TestExactInputsOnly:
    """A point s or a power r that is not an exact int (or Fraction, for s) raises TypeError."""

    @pytest.mark.parametrize("s", NOT_EXACT)
    def test_product_value(self, s):
        with pytest.raises(TypeError):
            product_value(OrderStatParams(3, 2), s)

    @pytest.mark.parametrize("s", NOT_EXACT)
    def test_erlang_weighted_sum_point(self, s):
        with pytest.raises(TypeError):
            erlang_weighted_sum(OrderStatParams(3, 2), 2, s)

    @pytest.mark.parametrize("s", NOT_EXACT)
    def test_generalized_double_sum_point(self, s):
        with pytest.raises(TypeError):
            generalized_double_sum(OrderStatParams(3, 2), 2, s)

    @pytest.mark.parametrize("r", [True, 2.0, F(2), "2", None])
    def test_powers(self, r):
        with pytest.raises(TypeError):
            erlang_weighted_sum(OrderStatParams(3, 2), r, F(1))
        with pytest.raises(TypeError):
            generalized_double_sum(OrderStatParams(3, 2), r, F(1))

    @pytest.mark.parametrize("s", NOT_EXACT)
    def test_evaluating_a_form(self, s):
        with pytest.raises(TypeError):
            product_form(OrderStatParams(3, 2)).evaluate(s)

    def test_an_int_point_is_exact(self):
        p = OrderStatParams(3, 2)
        assert erlang_weighted_sum(p, 2, 1) == erlang_weighted_sum(p, 2, F(1)) == F(19, 24)
        assert generalized_double_sum(p, 2, 1) == F(19, 24)


def fraction_recurrence(p, r_max, s):
    """u_0 .. u_{r_max - 1} of erlang_weighted_sum's recurrence, in Fractions as it once ran."""
    h = [sum(F(s / (s + c)) ** q for c in p.rates) for q in range(1, r_max)]
    u = [product_value(p, s)]
    for m in range(1, r_max):
        u.append(sum(u[i] * h[m - 1 - i] for i in range(m)) / m)
    return u


class TestIntegerRecurrence:
    def test_matches_the_fraction_recurrence(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                p = OrderStatParams(n, k)
                for s in (F(1, 3), F(1), F(7, 2), F(13, 7)):
                    u = fraction_recurrence(p, 20, s)
                    for r in range(1, 21):
                        assert erlang_weighted_sum(p, r, s) == sum(u[:r]), (n, k, r, s)


def test_any_pairs_of_the_right_value(monkeypatch):
    """The recurrence needs no relation between the D_q: reduced or rescaled pairs give the same sum."""
    sum_pairs = laplace._sum_pairs
    p, s = OrderStatParams(6, 4), F(7, 2)
    expected = [erlang_weighted_sum(p, r, s) for r in range(1, 9)]
    for reshape in (
        lambda n, d: (n // math.gcd(n, d), d // math.gcd(n, d)),
        lambda n, d: (n * (d % 7 + 2), d * (d % 7 + 2)),
    ):
        monkeypatch.setattr(laplace, "_sum_pairs", lambda items: reshape(*sum_pairs(items)))
        assert [erlang_weighted_sum(p, r, s) for r in range(1, 9)] == expected


def general_double_sum_form(p):
    """double_sum_form as it was built: one Polynomial per step, reduced by Euclid."""
    shared = Polynomial((1,))
    for c in range(p.n + 1):
        shared = shared * Polynomial((c, 1))
    numer = Polynomial()
    for c, A in enumerate(laplace._signed_coefficients(p)):
        if A:
            numer = numer + shared.divexact(Polynomial((c, 1))) * A
    return RationalFunction(Polynomial((0, *numer.coeffs)), shared)


class TestRootDivision:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_double_sum_form_matches_the_general_constructor(self, n):
        for k in range(1, n + 1):
            p = OrderStatParams(n, k)
            f, g = double_sum_form(p), general_double_sum_form(p)
            assert (f.numer, f.denom) == (g.numer, g.denom)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_planted_common_roots_at_both_ends(self, n):
        # numerators with factors (s + 0) and (s + n), one of them twice, over prod_{c<=n} (s + c)
        shared = Polynomial((1,))
        for c in range(n + 1):
            shared = shared * Polynomial((c, 1))
        ends = Polynomial((0, 1)) * Polynomial((n, 1))
        # no cofactor has a root at another -c, so exactly the two end factors go
        for cofactor in (Polynomial((3,)), Polynomial((2, 0, 5)), Polynomial((n, 1)), Polynomial((0, -4))):
            numer = ends * cofactor
            f = RationalFunction.over_roots(list(numer.coeffs), range(n + 1))
            g = RationalFunction(numer, shared)
            assert (f.numer, f.denom) == (g.numer, g.denom)
            assert f.denom.degree == n - 1

    def test_faulted_coefficients_are_canonical_too(self, monkeypatch):
        signed_coefficients = laplace._signed_coefficients

        def faulty(p):
            coeff = signed_coefficients(p)
            coeff[0] += 1
            return coeff

        monkeypatch.setattr(laplace, "_signed_coefficients", faulty)
        for n in range(1, 9):
            for k in range(1, n + 1):
                p = OrderStatParams(n, k)
                f, g = double_sum_form(p), general_double_sum_form(p)
                assert (f.numer, f.denom) == (g.numer, g.denom)
