import random

import pytest
from hypothesis import given, settings, strategies as st

from crtypes.gaussian import gr
from crtypes.grammar import parse_poly
from crtypes.poly import INFINITE, Poly, hypersurface_ring
from crtypes.vfield import (
    Hypersurface,
    HypersurfaceError,
    VectorField,
    annihilates_through,
    cr_frame,
    direction_name,
    field_from_json,
    lie_bracket,
    pair_with_drho,
)

from helpers import SMALL_COEFFS, random_poly

R2 = hypersurface_ring(2)  # z1, w
R3 = hypersurface_ring(3)  # z1, z2, w


def ball_2d():
    return Hypersurface(2, parse_poly(R2, "-2*Re(w) + z1*conj(z1)"))


def cubic_model():
    rho, flipped = Hypersurface.from_rho(
        3, parse_poly(R3, "2*Re(w) + (z2 + conj(z2) + z1*conj(z1))^2")
    )
    assert flipped
    return rho


def field(ring, **slots):
    coeffs = [ring.zero()] * (2 * ring.nv)
    for name, p in slots.items():
        idx = {direction_name(ring, s): s for s in range(2 * ring.nv)}[name]
        coeffs[idx] = p
    return VectorField(ring, coeffs)


class TestHypersurface:
    def test_normal_form_enforced(self):
        with pytest.raises(HypersurfaceError):
            Hypersurface(2, parse_poly(R2, "z1*conj(z1)"))
        with pytest.raises(HypersurfaceError):
            Hypersurface(2, parse_poly(R2, "-2*Re(w) + z1"))  # not real

    def test_sign_flip(self):
        m = cubic_model()
        u = R3.var("z2") + R3.conj_var("z2") + R3.var("z1") * R3.conj_var("z1")
        assert m.chi == u ** 2
        assert m.is_rigid()

    def test_non_rigid_detection(self):
        # chi = z1*conj(z1)*(1 + Im w) written via w, conj(w)
        rho = parse_poly(
            R2, "-2*Re(w) + z1*conj(z1) + (0-1/2i)*z1*conj(z1)*w + (0+1/2i)*z1*conj(z1)*conj(w)"
        )
        m = Hypersurface(2, rho)
        assert not m.is_rigid()
        assert m.chi_rigid() == parse_poly(R2, "z1*conj(z1)")


class TestCrFrame:
    def test_ball_frame_exact(self):
        m = ball_2d()
        (l1,) = cr_frame(m)
        assert l1 == field(R2, dz1=R2.one(), dw=R2.conj_var("z1"))
        assert l1.jet_order is INFINITE
        assert l1.apply(m.rho).is_zero()

    def test_degenerate_frame_for(self):
        m = cubic_model()
        l1, l2 = cr_frame(m)
        u = R3.var("z2") + R3.conj_var("z2") + R3.var("z1") * R3.conj_var("z1")
        assert l1 == field(R3, dz1=R3.one(), dw=(R3.conj_var("z1") * u).scale(2))
        assert l1.apply(m.rho).is_zero()
        assert l2.apply(m.rho).is_zero()

    def test_non_rigid_truncated_frame(self):
        rho = parse_poly(
            R2, "-2*Re(w) + z1*conj(z1) + (0-1/2i)*z1*conj(z1)*w + (0+1/2i)*z1*conj(z1)*conj(w)"
        )
        m = Hypersurface(2, rho)
        (l1,) = cr_frame(m, jet_order=3)
        assert l1.jet_order == 3
        assert annihilates_through(l1, m.rho, 3)
        residual = l1.apply(m.rho)
        assert not residual.is_zero()
        assert residual.vanishing_order() > 3

    def test_model_builds_its_frame_once(self):
        m = cubic_model()
        assert m.cr_fields() is m.cr_fields()
        assert list(m.cr_fields()) == cr_frame(m)
        rho = parse_poly(R2, "-2*Re(w) + z1*conj(z1) + (0-1/2i)*z1*conj(z1)*w"
                             " + (0+1/2i)*z1*conj(z1)*conj(w)")
        m = Hypersurface(2, rho, jet_order=3)
        assert list(m.cr_fields()) == cr_frame(m, jet_order=3)
        assert m.cr_fields()[0].jet_order == 3


class TestDerivationAndBracket:
    def test_apply_examples(self):
        x = field(R2, dz1=R2.one(), dw=R2.conj_var("z1"))
        assert x.apply(R2.var("w")) == R2.conj_var("z1")
        assert x.apply(R2.one()).is_zero()

    def test_apply_tangency(self):
        m = cubic_model()
        l1, _ = cr_frame(m)
        assert l1.apply(m.rho).is_zero()

    def test_bracket_examples(self):
        d_z1 = field(R2, dz1=R2.one())
        z1_dw = field(R2, dw=R2.var("z1"))
        assert lie_bracket(d_z1, z1_dw) == field(R2, dw=R2.one())

        m = ball_2d()
        (l1,) = cr_frame(m)
        b = lie_bracket(l1, l1.conj_field())
        assert b == field(R2, dwbar=R2.one(), dw=-R2.one())

        x = field(R2, dz1=R2.var("w"), dw=R2.conj_var("z1") ** 2)
        assert lie_bracket(x, x).is_zero()

    def test_pairing_examples(self):
        m = ball_2d()
        x = field(R2, dwbar=R2.one(), dw=-R2.one())
        p = pair_with_drho(x, m)
        assert p == R2.one()  # (-1)*(-1)
        (l1,) = cr_frame(m)
        assert pair_with_drho(l1, m).is_zero()
        d_z1 = field(R2, dz1=R2.one())
        assert pair_with_drho(d_z1, m) == R2.conj_var("z1")

    def test_conj_and_eval(self):
        x = field(R2, dz1=R2.one(), dw=R2.conj_var("z1"))
        assert x.conj_field() == field(R2, dzbar1=R2.one(), dwbar=R2.var("z1"))
        assert x.conj_field().conj_field() == x

        m = cubic_model()
        l1, _ = cr_frame(m)
        vals = l1.eval_at_zero()
        assert vals[0] == gr(1)
        assert all(v.is_zero() for v in vals[1:])


def random_field(ring, rng):
    return VectorField(
        ring, [random_poly(ring, rng, max_terms=2, max_exp=2) for _ in range(2 * ring.nv)]
    )


class TestBracketLaws:
    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(42)
        for _ in range(30):
            x, y, z = (random_field(R3, rng) for _ in range(3))
            xy = lie_bracket(x, y)
            assert xy == -lie_bracket(y, x)
            jac = (
                lie_bracket(x, lie_bracket(y, z))
                + lie_bracket(y, lie_bracket(z, x))
                + lie_bracket(z, lie_bracket(x, y))
            )
            assert jac.is_zero()

    def test_conj_intertwines_bracket(self):
        rng = random.Random(5)
        for _ in range(30):
            x, y = random_field(R3, rng), random_field(R3, rng)
            assert lie_bracket(x, y).conj_field() == lie_bracket(
                x.conj_field(), y.conj_field()
            )

    def test_levi_pairing_real_at_zero(self):
        m = cubic_model()
        for l in cr_frame(m):
            val = pair_with_drho(lie_bracket(l, l.conj_field()), m).constant_term()
            assert val == val.conjugate()


coeff_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 6),
    st.sampled_from(SMALL_COEFFS),
    max_size=3,
).map(lambda terms: Poly._make(R3, terms))
fields = st.lists(coeff_polys, min_size=6, max_size=6).map(lambda cs: VectorField(R3, cs))


@given(fields, fields, st.integers(min_value=0, max_value=8))
@settings(max_examples=100, deadline=None)
def test_truncated_bracket_and_apply(x, y, d):
    """With max_degree d, bracket and derivation drop exactly the monomials above d."""

    def drop_above(p):
        return Poly(R3, {k: c for k, c in p.terms.items() if sum(k) <= d})

    full = lie_bracket(x, y)
    assert lie_bracket(x, y, d) == VectorField(R3, [drop_above(c) for c in full.coeffs])
    for p in y.coeffs:
        assert x.apply(p, d) == drop_above(x.apply(p))


def test_json_round_trip():
    m = cubic_model()
    l1, _ = cr_frame(m)
    data = l1.to_json_dict()
    assert set(data) == {"dz1", "dw"}
    assert field_from_json(R3, data) == l1
