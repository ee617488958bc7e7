"""Exact complex scalars with rational real and imaginary parts.

Every coefficient in this package is a GaussianRational; no floating point
ever enters any computation.

A GaussianRational is three ints (a, b, d) meaning (a + b*i)/d, normalized
so that d > 0 and gcd(a, b, d) == 1; zero is (0, 0, 1).  The form is unique,
so equality compares the triples.  It is the scalar analogue of FLINT's
fmpq_poly: integer numerators over one common denominator.  Most
coefficients are integers (d == 1), and then +, - and * do no gcd.

Results are built by _make, which skips __init__ and its Fraction coercion.
The public constructor accepts anything Fraction does; .re and .im are
Fractions computed on demand, for printing, sign tests and sort keys.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class GaussianRational:
    """A complex number re + im*i with re, im exact rationals, held as (a + b*i)/d."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators, gcd(a, b, d) is already 1
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- basic predicates ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_real(self) -> bool:
        return not self.b

    def is_positive_real(self) -> bool:
        return not self.b and self.a > 0

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self.d, other.d
        if d == f:
            return _make(self.a + other.a, self.b + other.b, d)
        return _make(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self.d, other.d
        if d == f:
            return _make(self.a - other.a, self.b - other.b, d)
        return _make(self.a * f - other.a * d, self.b * f - other.b * d, d * f)

    def __neg__(self) -> "GaussianRational":
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e = self.a, self.b, other.a, other.b
        return _make(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e = self.a, self.b, other.a, other.b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        f = other.d
        return _make((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def conjugate(self) -> "GaussianRational":
        return _make(self.a, -self.b, self.d)

    def inverse(self) -> "GaussianRational":
        return ONE / self

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return (self ** (-k)).inverse()
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.b:
            return _frac_str(self.re)
        if not self.a:
            return _frac_str(self.im) + "i"
        sign = "+" if self.b >= 0 else "-"
        return f"({_frac_str(self.re)}{sign}{_frac_str(abs(self.im))}i)"


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, reduced to lowest terms unless d == 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GaussianRational)
    z.a = a
    z.b = b
    z.d = d
    return z


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
I = GaussianRational(0, 1)
MINUS_ONE = GaussianRational(-1, 0)
