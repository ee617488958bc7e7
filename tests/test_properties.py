"""Property-based checks of the algebraic core."""

from hypothesis import given, settings, strategies as st

from crtypes.gaussian import GaussianRational
from crtypes.grammar import parse_poly, poly_to_string
from crtypes.poly import Poly, WeightSystem, hypersurface_ring

R = hypersurface_ring(3)

coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * 6)
polys = st.dictionaries(exponents, coeffs, max_size=4).map(
    lambda terms: Poly._make(R, dict(terms))
)


@given(polys, polys, polys)
@settings(max_examples=150, deadline=None)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p - q == p + (-q)
    assert (p - p).is_zero()


@given(polys, polys)
@settings(max_examples=150, deadline=None)
def test_conjugation_antiautomorphism(p, q):
    assert (p * q).conj() == p.conj() * q.conj()
    assert (p + q).conj() == p.conj() + q.conj()
    assert p.conj().conj() == p


@given(polys)
@settings(max_examples=150, deadline=None)
def test_wirtinger_conjugation_intertwining(p):
    for v in ("z1", "z2", "w"):
        assert p.dzbar(v) == p.conj().dz(v).conj()


@given(polys)
@settings(max_examples=100, deadline=None)
def test_grammar_round_trip(p):
    assert parse_poly(R, poly_to_string(p)) == p


@given(polys)
@settings(max_examples=100, deadline=None)
def test_weighted_parts_partition(p):
    w = WeightSystem(R, [1, 2, 4])
    top = 0 if p.is_zero() else int(p.weighted_degree(w))
    total = R.zero()
    for sigma in range(0, top + 1):
        part = p.weighted_part(sigma, w)
        assert part.weighted_part(sigma, w) == part  # idempotent on its grade
        total = total + part
    assert total == p


@given(polys)
@settings(max_examples=100, deadline=None)
def test_real_part_is_real(p):
    re = p.real_part()
    assert re.is_real()
    assert re.conj() == re
