"""Exact arithmetic layer: rationals, polynomials, rational functions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exporder.exact import (
    Polynomial,
    Rational,
    RationalFunction,
    binomial,
    poly_gcd,
    sum_fractions,
)
from exporder.laplace import OrderStatParams, product_form


def pascal_triangle(rows):
    """Independent binomial oracle: build the triangle by additions only."""
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


class TestRational:
    def test_basic_arithmetic(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
        assert Fraction(2, 4) * Fraction(1, 1) == Fraction(1, 2)
        assert Fraction(1, 2) - Fraction(1, 3) == Fraction(1, 6)
        assert Fraction(3, 4) / Fraction(3, 2) == Fraction(1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 3) / Fraction(0, 1)

    def test_canonical_form_closure(self):
        """Every operation output stays canonical: d > 0, gcd(|n|, d) = 1."""
        rng = random.Random(4242)
        for _ in range(300):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            for value in (a + b, a - b, a * b) + ((a / b,) if b else ()):
                assert value.denominator > 0
                assert math.gcd(abs(value.numerator), value.denominator) == 1
        assert Fraction(0, 7) == Fraction(0, 1)

    def test_field_axioms_spot_checks(self):
        rng = random.Random(515151)
        for _ in range(100):
            a, b, c = (
                Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(3)
            )
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_sum_fractions_matches_builtin(self):
        rng = random.Random(7)
        terms = [Fraction(rng.randint(-9, 9), rng.randint(1, 30)) for _ in range(57)]
        assert sum_fractions(terms) == sum(terms, Fraction(0))
        assert sum_fractions([]) == 0


class TestBinomial:
    def test_small_cases(self):
        assert binomial(4, 2) == 6
        assert binomial(7, 0) == 1
        assert binomial(0, 0) == 1

    def test_k_greater_than_n_is_zero(self):
        assert binomial(3, 5) == 0

    def test_against_pascal_triangle(self):
        tri = pascal_triangle(30)
        for n in range(31):
            for k in range(n + 1):
                assert binomial(n, k) == tri[n][k]
        assert binomial(30, 15) == 155117520

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestPolynomial:
    def test_product_expansion(self):
        assert Polynomial((1, 1)) * Polynomial((2, 1)) == Polynomial((2, 3, 1))

    def test_zero_absorbs(self):
        p = Polynomial((3, 0, 7))
        assert (p * Polynomial()).is_zero
        assert p * Polynomial() == Polynomial()

    def test_cancellation_to_zero(self):
        assert (Polynomial((1, 1)) + Polynomial((-1, -1))).is_zero

    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial((0,)).is_zero
        assert Polynomial((0,)).degree == -1

    def test_evaluate_and_derivative(self):
        p = Polynomial((2, 3, 1))  # (s+1)(s+2)
        assert p.evaluate(Fraction(1)) == 6
        assert p.derivative() == Polynomial((3, 2))
        assert Polynomial((5,)).derivative().is_zero

    def test_divexact(self):
        p = Polynomial((2, 3, 1))
        assert p.divexact(Polynomial((1, 1))) == Polynomial((2, 1))
        with pytest.raises(ValueError):
            p.divexact(Polynomial((5, 1)))

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Polynomial((1.5, 2))


class TestPolyGcd:
    def test_common_root(self):
        assert poly_gcd(Polynomial((-1, 0, 1)), Polynomial((-1, 1))) == Polynomial((-1, 1))

    def test_coprime(self):
        assert poly_gcd(Polynomial((2, 1)), Polynomial((3, 1))) == Polynomial((1,))

    def test_factor_and_compare(self):
        """Build both arguments from explicit factors; the gcd must be the shared one."""
        s1 = Polynomial((1, 1))
        left = s1 * s1 * Polynomial((2, 1))
        right = s1 * Polynomial((3, 1))
        assert poly_gcd(left, right) == s1

    def test_content_removed(self):
        assert poly_gcd(Polynomial((2, 2)), Polynomial((4, 4))) == Polynomial((1, 1))
        assert poly_gcd(Polynomial((6,)), Polynomial((4,))) == Polynomial((1,))

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Polynomial(), Polynomial())

    def test_positive_leading_coefficient(self):
        g = poly_gcd(Polynomial((1, -1)), Polynomial((-1, 0, 0, 1)))
        assert g.leading > 0
        assert g == Polynomial((-1, 1))


def random_poly(rng, max_degree=4, bound=9, allow_zero=True):
    degree = rng.randint(-1 if allow_zero else 0, max_degree)
    if degree < 0:
        return Polynomial()
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    coeffs.append(rng.choice([c for c in range(-bound, bound + 1) if c]))
    return Polynomial(coeffs)


def assert_canonical(f):
    assert not f.denom.is_zero
    assert f.denom.leading > 0
    if f.numer.is_zero:
        assert f.denom == Polynomial((1,))
    else:
        assert poly_gcd(f.numer, f.denom) == Polynomial((1,))
        assert math.gcd(f.numer.content(), f.denom.content()) == 1


class TestRationalFunction:
    def test_eval(self):
        f = RationalFunction(Polynomial((1,)), Polynomial((1, 1)))
        assert f.evaluate(Fraction(1)) == Fraction(1, 2)

    def test_pole_error(self):
        f = RationalFunction(Polynomial((1,)), Polynomial((1, 1)))
        with pytest.raises(ZeroDivisionError):
            f.evaluate(Fraction(-1))

    def test_eval_triple_factor(self):
        denom = Polynomial((1, 1)) * Polynomial((2, 1)) * Polynomial((3, 1))
        f = RationalFunction(Polynomial((6,)), denom)
        # hand expansion: 6 / (2 * 3 * 4)
        assert f.evaluate(Fraction(1)) == Fraction(1, 4)

    def test_derivative_textbook(self):
        f = RationalFunction(Polynomial((1,)), Polynomial((1, 1)))
        assert f.derivative() == RationalFunction(Polynomial((-1,)), Polynomial((1, 2, 1)))

    def test_derivative_of_constant_is_zero(self):
        assert RationalFunction.from_scalar(Fraction(5, 3)).derivative().is_zero

    def test_second_derivative_value(self):
        f = RationalFunction(Polynomial((1,)), Polynomial((1, 1)))
        f2 = f.derivative().derivative()
        assert f2.evaluate(Fraction(1)) == Fraction(1, 4)
        # finite-difference cross-check at h = 1e-6
        h = 1e-6
        f1 = f.derivative()
        fd = (float(f1.evaluate(Fraction(1 + h))) - float(f1.evaluate(Fraction(1 - h)))) / (2 * h)
        assert abs(fd - 0.25) / 0.25 < 1e-5

    def test_zero_is_canonical(self):
        z = RationalFunction(Polynomial(), Polynomial((7, 3)))
        assert z.is_zero
        assert z.denom == Polynomial((1,))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Polynomial((1,)), Polynomial())

    def test_reduction_cancels_common_factor(self):
        s1 = Polynomial((1, 1))
        f = RationalFunction(Polynomial((2,)) * s1, Polynomial((0, 2)) * s1)
        assert f == RationalFunction(Polynomial((1,)), Polynomial((0, 1)))

    def test_canonical_closure_under_operations(self):
        rng = random.Random(20240817)
        fns = []
        while len(fns) < 20:
            numer = random_poly(rng)
            denom = random_poly(rng, allow_zero=False)
            fns.append(RationalFunction(numer, denom))
        for i in range(0, 18, 2):
            a, b = fns[i], fns[i + 1]
            results = [a + b, a - b, a * b, a.derivative(), -a]
            if not b.is_zero:
                results.append(a / b)
            for f in results:
                assert_canonical(f)

    def test_reduction_preserves_values(self):
        """Canonical form never changes values away from cancelled poles."""
        rng = random.Random(5150)
        for _ in range(20):
            numer = random_poly(rng, allow_zero=False)
            denom = random_poly(rng, allow_zero=False)
            extra = random_poly(rng, max_degree=2, allow_zero=False)
            f = RationalFunction(numer * extra, denom * extra)
            assert f == RationalFunction(numer, denom)
            for _ in range(5):
                s = Fraction(rng.randint(1, 60), rng.randint(1, 9))
                if denom.evaluate(s) == 0 or extra.evaluate(s) == 0:
                    continue
                raw = Fraction(numer.evaluate(s) * extra.evaluate(s)) / Fraction(
                    denom.evaluate(s) * extra.evaluate(s)
                )
                assert f.evaluate(s) == raw

    def test_derivative_matches_finite_differences(self):
        """Analytic derivative vs central differences at 20 random non-pole points."""
        rng = random.Random(31337)
        checked = 0
        while checked < 20:
            f = RationalFunction(
                random_poly(rng, allow_zero=False), random_poly(rng, allow_zero=False)
            )
            s = Fraction(rng.randint(1, 40), rng.randint(1, 8))
            h = Fraction(1, 10**6)
            try:
                exact = float(f.derivative().evaluate(s))
                fd = float((f.evaluate(s + h) - f.evaluate(s - h)) / (2 * h))
            except ZeroDivisionError:
                continue
            if abs(exact) < 1e-12:
                continue
            assert abs(fd - exact) / abs(exact) <= 1e-6
            checked += 1

    def test_scalar_multiplication(self):
        f = RationalFunction(Polynomial((1,)), Polynomial((1, 1)))
        g = f * Fraction(3, 2)
        assert g == RationalFunction(Polynomial((3,)), Polynomial((2, 2)))
        assert (2 * f).evaluate(Fraction(1)) == 1

    def test_rational_type_alias(self):
        assert Rational is Fraction


def euclid_canonical(numer, denom):
    """Canonical (numer, denom) the general way: Euclid's gcd, then content, then sign."""
    g = poly_gcd(numer, denom)
    numer, denom = numer.divexact(g), denom.divexact(g)
    c = math.gcd(numer.content(), denom.content())
    numer = Polynomial(a // c for a in numer.coeffs)
    denom = Polynomial(a // c for a in denom.coeffs)
    if denom.leading < 0:
        numer, denom = -numer, -denom
    return numer, denom


nonzero = st.integers(-(10**6), 10**6).filter(bool)
# up to degree 5, times a content factor so that many are not primitive
polynomials = st.builds(
    lambda low, lead, scale: Polynomial([c * scale for c in (*low, lead)]),
    st.lists(st.integers(-20, 20), max_size=5),
    st.integers(-20, 20).filter(bool),
    st.integers(-12, 12).filter(bool),
)


class TestConstantSide:
    """A constant numerator or denominator gives the form Euclid's path gives."""

    @settings(max_examples=300, deadline=None)
    @given(constant=nonzero, other=polynomials, constant_on_top=st.booleans())
    @example(constant=-6, other=Polynomial((-4,)), constant_on_top=True)
    @example(constant=-6, other=Polynomial((-4, -8, 12)), constant_on_top=False)
    def test_matches_the_euclid_path(self, constant, other, constant_on_top):
        const = Polynomial((constant,))
        numer, denom = (const, other) if constant_on_top else (other, const)
        f = RationalFunction(numer, denom)
        assert (f.numer, f.denom) == euclid_canonical(numer, denom)

    def test_product_form_matches_the_euclid_path(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                p = OrderStatParams(n, k)
                denom = Polynomial((1,))
                for j in p.rates:
                    denom = denom * Polynomial((j, 1))
                f = product_form(p)
                assert (f.numer, f.denom) == euclid_canonical(Polynomial((math.prod(p.rates),)), denom)


def fraction_horner_value(f, s):
    """RationalFunction.evaluate as it was: Horner in Fractions on each side, then one division."""
    def horner(poly):
        acc = Fraction(0)
        for c in reversed(poly.coeffs):
            acc = acc * s + c
        return acc

    dv = horner(f.denom)
    if dv == 0:
        raise ZeroDivisionError
    return horner(f.numer) / dv


points = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)


class TestIntegerEvaluate:
    """evaluate takes both sides by homogeneous integer Horner: the Fraction Horner's value."""

    @settings(max_examples=300, deadline=None)
    @given(numer=polynomials | st.just(Polynomial()), denom=polynomials, s=points)
    @example(numer=Polynomial(), denom=Polynomial((3, 1)), s=Fraction(-1, 2))
    @example(numer=Polynomial((1,)), denom=Polynomial((-4, 0, 1)), s=2)
    @example(numer=Polynomial((5, 2)), denom=Polynomial((1, 3)), s=Fraction(-1, 3))
    def test_matches_the_fraction_horner(self, numer, denom, s):
        f = RationalFunction(numer, denom)
        try:
            expected = fraction_horner_value(f, s)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match="pole"):
                f.evaluate(s)
            return
        value = f.evaluate(s)
        assert type(value) is Fraction
        assert value == expected

    def test_zero_numerator_is_zero(self):
        assert RationalFunction(Polynomial(), Polynomial((1,))).evaluate(Fraction(-7, 3)) == 0

    @pytest.mark.parametrize("s", [0.1, 1.0, True, "1/2", None, complex(1, 0)])
    def test_only_ints_and_fractions(self, s):
        f = RationalFunction(Polynomial((1,)), Polynomial((1, 1)))
        with pytest.raises(TypeError):
            f.evaluate(s)
        with pytest.raises(TypeError):
            f.denom.evaluate(s)

    @settings(max_examples=100, deadline=None)
    @given(poly=polynomials | st.just(Polynomial()), s=points)
    def test_polynomial_value_matches_the_fraction_horner(self, poly, s):
        expected = Fraction(0)
        for c in reversed(poly.coeffs):
            expected = expected * s + c
        assert poly.evaluate(s) == expected


class TestOverRoots:
    """over_roots divides out the shared (s + c) and gives the general constructor's form."""

    @settings(max_examples=200, deadline=None)
    @given(
        cofactor=polynomials,
        roots=st.lists(st.integers(-6, 12), min_size=1, max_size=8, unique=True),
        data=st.data(),
    )
    def test_matches_the_general_constructor(self, cofactor, roots, data):
        shared = data.draw(st.lists(st.sampled_from(roots), max_size=3))
        numer = cofactor
        for c in shared:  # a root may be planted twice: only one (s + c) is in the denominator
            numer = numer * Polynomial((c, 1))
        f = RationalFunction.over_roots(list(numer.coeffs), roots)
        denom = Polynomial((1,))
        for c in roots:
            denom = denom * Polynomial((c, 1))
        general = RationalFunction(numer, denom)
        assert (f.numer, f.denom) == (general.numer, general.denom)

    def test_zero_numerator(self):
        f = RationalFunction.over_roots([0, 0, 0], range(4))
        assert (f.numer, f.denom) == (Polynomial(), Polynomial((1,)))
        assert RationalFunction.over_roots([], [2]).is_zero

    def test_constant_numerator_keeps_every_factor(self):
        f = RationalFunction.over_roots([-6], [1, 2, 3])
        assert f == RationalFunction(Polynomial((-6,)), Polynomial((6, 11, 6, 1)))
        assert f.denom.coeffs == (6, 11, 6, 1)
