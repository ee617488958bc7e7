"""The integer-triple GaussianRational against the Fraction-pair reference.

Every operation is run on both classes with the same inputs; the results
must agree on value, printing and predicates, and every result of the
integer kernel must be in normal form: d > 0 and gcd(a, b, d) == 1.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import reference_gaussian as ref
from crtypes.gaussian import ONE, ZERO, GaussianRational, gr

# integers weigh heavily, as in the package, where most coefficients have d == 1
parts = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
)
pairs = st.tuples(parts, parts)


def _both(pair):
    return GaussianRational(*pair), ref.GaussianRational(*pair)


def assert_same(x: GaussianRational, r: ref.GaussianRational) -> None:
    assert type(x) is GaussianRational
    assert all(type(v) is int for v in (x.a, x.b, x.d))
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1
    assert (x.re, x.im) == (r.re, r.im)
    assert str(x) == str(r)
    assert repr(x) == repr(r)
    assert x.is_zero() == r.is_zero()
    assert x.is_real() == r.is_real()
    assert x.is_positive_real() == r.is_positive_real()


@given(pairs)
@settings(max_examples=300, deadline=None)
def test_constructor_and_unary_ops(p):
    x, r = _both(p)
    assert_same(x, r)
    assert_same(-x, -r)
    assert_same(x.conjugate(), r.conjugate())
    if r.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert_same(x.inverse(), r.inverse())


@given(pairs, pairs)
@settings(max_examples=300, deadline=None)
def test_binary_ops(p, q):
    x, r = _both(p)
    y, s = _both(q)
    assert_same(x + y, r + s)
    assert_same(x - y, r - s)
    assert_same(x * y, r * s)
    if s.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert_same(x / y, r / s)
    assert (x == y) == (r == s)


@given(pairs, st.integers(min_value=-4, max_value=4))
@settings(max_examples=300, deadline=None)
def test_powers(p, k):
    x, r = _both(p)
    if k < 0 and r.is_zero():
        with pytest.raises(ZeroDivisionError):
            x ** k
    else:
        assert_same(x ** k, r ** k)


@given(pairs, pairs)
@settings(max_examples=200, deadline=None)
def test_equality_and_hash_consistent(p, q):
    x = GaussianRational(*p)
    y = GaussianRational(*q)
    # the same value reached by different routes is the same triple
    if not y.is_zero():
        z = (x * y) / y
        assert z == x and hash(z) == hash(x)
        assert (z.a, z.b, z.d) == (x.a, x.b, x.d)
    w = (x + y) - y
    assert w == x and hash(w) == hash(x)
    assert len({x, w, GaussianRational(x.re, x.im)}) == 1


def test_fraction_inputs_normalized():
    x = gr(Fraction(2, 4), Fraction(-3, 9))
    assert (x.a, x.b, x.d) == (3, -2, 6)
    assert (ZERO.a, ZERO.b, ZERO.d) == (0, 0, 1)
    assert gr(Fraction(1, 2)) + gr(Fraction(1, 2)) == ONE
    assert (gr(Fraction(1, 2)) + gr(Fraction(1, 2))).d == 1
    assert gr(0, Fraction(4, 6)).im == Fraction(2, 3)


def test_division_by_zero():
    for zero in (ZERO, gr(0), gr(Fraction(0, 5), 0)):
        with pytest.raises(ZeroDivisionError):
            gr(1, 2) / zero
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            zero ** -1


def test_equality_with_other_types():
    assert gr(1) != 1
    assert (gr(1) == Fraction(1)) is False
