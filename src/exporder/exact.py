"""Exact arithmetic: rationals, integer polynomials, rational functions.

Scalars are :class:`fractions.Fraction` (re-exported as ``Rational``): Python
ints are unbounded, and Fraction keeps the canonical form we rely on
(positive denominator, gcd(numerator, denominator) = 1, zero as 0/1).  A
point s to evaluate at is read as s = a/b: an int or a Fraction, or TypeError.

A :class:`Polynomial` is an immutable tuple of int coefficients, index =
degree, trailing zeros stripped; the zero polynomial is the empty tuple.
A :class:`RationalFunction` is a pair of integer polynomials kept in a
canonical form (numerator and denominator coprime, including integer
content, denominator with positive leading coefficient), so structural
equality coincides with mathematical equality.  The general constructor
gets there by :func:`poly_gcd`; :meth:`RationalFunction.over_roots`, for a
denominator prod (s + c), divides out each (s + c) the numerator shares.
Everything here is exact; there is no floating point in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]

__all__ = [
    "Rational",
    "binomial",
    "Polynomial",
    "poly_gcd",
    "RationalFunction",
    "sum_fractions",
]


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


def _sum_pairs(items: list[tuple[int, int]]) -> tuple[int, int]:
    """Sum of (numerator, denominator) pairs by divide-and-conquer merging.

    Pairwise merging keeps intermediate numerators/denominators balanced, so
    summing ~10^4 terms stays far cheaper than left-to-right Fraction
    addition (which normalizes after every step).  The result is left
    unreduced: a caller that only needs a float gets it correctly rounded
    from int true division, and skips the final gcd.
    """
    if not items:
        return 0, 1
    while len(items) > 1:
        merged = []
        for i in range(0, len(items) - 1, 2):
            n1, d1 = items[i]
            n2, d2 = items[i + 1]
            merged.append((n1 * d2 + n2 * d1, d1 * d2))
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def sum_fractions(terms: Iterable[Scalar]) -> Fraction:
    """Exact sum of many fractions by divide-and-conquer merging, normalized once."""
    items = [(f.numerator, f.denominator) if isinstance(f, Fraction) else (f, 1) for f in terms]
    return Fraction(*_sum_pairs(items))


def _ratio(s: Scalar) -> tuple[int, int]:
    """(a, b) with s = a/b and b > 0; TypeError unless s is an int or a Fraction."""
    if isinstance(s, bool) or not isinstance(s, (int, Fraction)):
        raise TypeError(f"an int or a Fraction is required, got {type(s).__name__}")
    return s.numerator, s.denominator


def _homogeneous(coeffs: tuple, a: int, b: int) -> tuple[int, int]:
    """(sum_i c_i a^i b^(d-i), b^(d+1)) for c_0..c_d: p(a/b) is their ratio times b."""
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * power
        power *= b
    return acc, power


def _expand(roots: Iterable[int]) -> list[int]:
    """Coefficients, lowest degree first, of prod_c (s + c)."""
    out = [1]
    for c in roots:
        out = [c * x + y for x, y in zip(out + [0], [0, *out])]
    return out


def _deflate(coeffs: Sequence[int], c: int) -> tuple[int, list[int]]:
    """Synthetic division by (s + c): the remainder, which is p(-c), and the quotient."""
    acc, top_down = 0, []
    for x in reversed(coeffs):
        acc = x - c * acc
        top_down.append(acc)
    return acc, top_down[-2::-1]


class Polynomial:
    """Dense univariate polynomial with arbitrary-precision int coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def content(self) -> int:
        """gcd of the coefficients (nonnegative); 0 for the zero polynomial."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> "Polynomial":
        """self divided by its content; sign of the leading coefficient kept."""
        c = self.content()
        if c <= 1:
            return self
        return Polynomial(a // c for a in self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", int]) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def shift(self, powers: int = 1) -> "Polynomial":
        """Multiply by s**powers."""
        if self.is_zero:
            return self
        return Polynomial((0,) * powers + self.coeffs)

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i)

    def divexact(self, divisor: "Polynomial") -> "Polynomial":
        """Exact polynomial division; raises ValueError if it does not divide."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return self
        rem = list(self.coeffs)
        dc = divisor.coeffs
        dl = divisor.leading
        q = [0] * (len(rem) - len(dc) + 1)
        for i in range(len(q) - 1, -1, -1):
            head = rem[i + len(dc) - 1]
            if head % dl:
                raise ValueError("not an exact polynomial division")
            f = head // dl
            q[i] = f
            if f:
                for j, c in enumerate(dc):
                    rem[i + j] -= f * c
        if any(rem):
            raise ValueError("not an exact polynomial division")
        return Polynomial(q)

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact value at x = a/b, an int or a Fraction, by integer Horner."""
        a, b = _ratio(x)
        acc, power = _homogeneous(self.coeffs, a, b)
        return Fraction(acc * b, power)

    # -- comparisons and display -------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}s" if i == 1 else f"{mag}s^{i}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


_ONE = Polynomial((1,))


def _pseudo_rem(a: Polynomial, b: Polynomial) -> Polynomial:
    # fraction-free remainder: repeatedly scale by the divisor's leading
    # coefficient so every step stays in the integers
    lead_b = b.leading
    r = a
    while not r.is_zero and r.degree >= b.degree:
        shift = r.degree - b.degree
        r = r * lead_b - (b * r.leading).shift(shift)
    return r


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Primitive gcd of integer polynomials, positive leading coefficient.

    Uses the primitive Euclidean algorithm (content stripped after every
    pseudo-remainder), which is plenty at the degrees used here.
    """
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a = p.primitive_part()
    b = q.primitive_part()
    while not b.is_zero:
        a, b = b, _pseudo_rem(a, b).primitive_part()
    if a.leading < 0:
        a = -a
    return a


class RationalFunction:
    """Ratio of integer polynomials in canonical (fully reduced) form.

    Canonical means: numerator and denominator share no polynomial factor
    and no integer content, and the denominator's leading coefficient is
    positive.  Zero is 0/1.  Two RationalFunction objects are equal exactly
    when they are equal as functions, so ``==`` is a proof of identity.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer, denom=_ONE):
        numer = _as_poly(numer)
        denom = _as_poly(denom)
        if denom.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")
        if numer.is_zero:
            numer, denom = Polynomial(), _ONE
        else:
            # a constant side shares no polynomial factor with the other, so
            # its gcd is 1 without Euclid; content and sign are still taken
            g = poly_gcd(numer, denom) if numer.degree and denom.degree else _ONE
            if g.degree > 0:
                numer = numer.divexact(g)
                denom = denom.divexact(g)
            c = math.gcd(numer.content(), denom.content())
            if c > 1:
                numer = Polynomial(a // c for a in numer.coeffs)
                denom = Polynomial(a // c for a in denom.coeffs)
            if denom.leading < 0:
                numer, denom = -numer, -denom
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "denom", denom)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def over_roots(cls, numer: Sequence[int], roots: Iterable[int]) -> "RationalFunction":
        """numer / prod_c (s + c) over ints c, canonical without Euclid.

        The gcd is the product of the (s + c) with numer(-c) = 0, each
        divided out by synthetic division as it is found.  The denominator
        left is monic: content 1, positive sign.  A zero numerator gives 0/1.
        """
        kept = []
        for c in roots:
            rem, quotient = _deflate(numer, c)
            if rem:
                kept.append(c)
            else:
                numer = quotient
        self = object.__new__(cls)
        object.__setattr__(self, "numer", Polynomial(numer))
        object.__setattr__(self, "denom", Polynomial(_expand(kept)))
        return self

    @classmethod
    def from_scalar(cls, value: Scalar) -> "RationalFunction":
        value = Fraction(value)
        return cls(Polynomial((value.numerator,)), Polynomial((value.denominator,)))

    @property
    def is_zero(self) -> bool:
        return self.numer.is_zero

    # -- field operations ---------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.numer * other.denom + other.numer * self.denom,
            self.denom * other.denom,
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.numer, self.denom)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: Union["RationalFunction", Scalar]) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return RationalFunction(self.numer * f.numerator, self.denom * f.denominator)
        return RationalFunction(self.numer * other.numer, self.denom * other.denom)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.numer * other.denom, self.denom * other.numer)

    def derivative(self) -> "RationalFunction":
        """Exact derivative by the quotient rule, canonicalized."""
        return RationalFunction(
            self.numer.derivative() * self.denom - self.numer * self.denom.derivative(),
            self.denom * self.denom,
        )

    def evaluate(self, s: Scalar) -> Fraction:
        """Exact value at s = a/b: integer Horner on both sides, one Fraction.

        Raises ZeroDivisionError at a pole.
        """
        a, b = _ratio(s)
        num, num_power = _homogeneous(self.numer.coeffs, a, b)
        den, den_power = _homogeneous(self.denom.coeffs, a, b)
        if den == 0:
            raise ZeroDivisionError(f"pole of rational function at s={s}")
        return Fraction(num * den_power, den * num_power)

    # -- comparisons and display -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_scalar(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.numer == other.numer and self.denom == other.denom

    def __hash__(self) -> int:
        return hash((self.numer, self.denom))

    def __repr__(self) -> str:
        return f"RationalFunction({self.numer!r}, {self.denom!r})"

    def __str__(self) -> str:
        return f"({self.numer}) / ({self.denom})"


def _as_poly(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial((value,))
    raise TypeError(f"Polynomial or int expected, got {type(value).__name__}")
