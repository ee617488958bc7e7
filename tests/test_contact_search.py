"""contact_search in crtypes.invariants against the naive search.

The search composes rho once per expanded node and screens the children by
the linear part -w - conj(w); reference_contact.py composes rho for every
child and substitutes at the cap.  Both must give the same report (value,
cap, witness) on the model fixtures, on a model whose best curve lies in
the hypersurface, and on random real models rho = -2 Re w + O(2), with
coefficient sets with and without 0 and with repeated values.
"""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import reference_contact as ref
from crtypes import invariants as inv
from crtypes.cli import load_model
from crtypes.fixtures import all_fixtures
from crtypes.gaussian import gr
from crtypes.grammar import parse_poly
from crtypes.poly import Poly, hypersurface_ring
from crtypes.vfield import Hypersurface

COEFFS = [gr(0), gr(1), gr(-1), gr(0, 1), gr(0, -1)]


def assert_same_as_reference(m, s, cap, coeffs):
    got = inv.contact_search(m, s, cap, coeffs).to_json_dict()
    want = ref.contact_search(m, s, cap, coeffs).to_json_dict()
    assert got == want, (s, cap)


def fixture_cases():
    out = []
    for fx in all_fixtures():
        if fx.get("kind") == "tangency":
            continue
        for cap in range(1, fx["caps"]["degree_cap"] + 1):
            out.append(pytest.param(fx["name"], 1, cap, id=f"{fx['name']}-s1-cap{cap}"))
        out.append(pytest.param(fx["name"], 2, 1, id=f"{fx['name']}-s2-cap1"))
    return out


@pytest.mark.parametrize("name,s,cap", fixture_cases())
def test_fixtures(name, s, cap):
    model = load_model(name)
    assert_same_as_reference(model.m, s, cap, model.coeff_set())


@pytest.mark.parametrize("coeffs", [
    pytest.param([gr(1), gr(-1)], id="no-zero"),
    pytest.param([gr(1), gr(0), gr(1)], id="repeated-1"),
    pytest.param([gr(0), gr(0), gr(0, 1)], id="repeated-0"),
])
def test_cubic_coefficient_sets(coeffs):
    assert_same_as_reference(load_model("cubic-contact").m, 1, 2, coeffs)


def test_osculating_curve():
    """|z1 - z2^2|^2: the curve (t^2, t, 0) lies in the model, reported >cap."""
    ring = hypersurface_ring(3)
    m = Hypersurface(3, parse_poly(
        ring, "-2*Re(w) + z1*conj(z1) - z1*conj(z2)^2 - z2^2*conj(z1)"
        " + z2^2*conj(z2)^2"))
    report = inv.contact_search(m, 1, 2, COEFFS)
    assert report.value is None and report.witness == "(t^2,t,0)"
    assert_same_as_reference(m, 1, 2, COEFFS)


def test_cubic_composition_count(monkeypatch):
    """cubic-contact at degree cap 3: the naive search composes 4450 times
    and substitutes 625 times; the screened search composes 663 times and
    substitutes only to re-check its witness."""
    m = load_model("cubic-contact").m
    compose, substitute = inv._compose_truncated, Poly.substitute
    calls = {"compose": 0, "substitute": 0, "recheck": 0}
    rechecking = []

    def counted_compose(*args):
        calls["compose"] += 1
        return compose(*args)

    def counted_substitute(self, mapping):
        calls["recheck" if rechecking else "substitute"] += 1
        return substitute(self, mapping)

    def recheck(m, phi):
        rechecking.append(1)
        try:
            return order_of_contact(m, phi)
        finally:
            rechecking.pop()

    order_of_contact = inv.order_of_contact
    monkeypatch.setattr(inv, "_compose_truncated", counted_compose)
    monkeypatch.setattr(Poly, "substitute", counted_substitute)
    monkeypatch.setattr(inv, "order_of_contact", recheck)
    report = inv.contact_search(m, 1, 3, COEFFS)
    assert (report.value, report.witness) == (4, "(t,0,0)")
    assert calls == {"compose": 663, "substitute": 0, "recheck": 1}


# ---------------------------------------------------------------------------
# random real models

POOL = [gr(0), gr(1), gr(-1), gr(0, 1), gr(2), gr(1, -1)]
NODE_BOUND = 2000  # children the naive search may visit, over all pinnings


def naive_nodes(n, s, cap, size):
    """An upper bound on the children the naive search visits."""
    per_root = size ** ((n - s) * s)
    total, level = per_root, per_root
    for d in range(2, cap + 1):
        level *= size ** (n * comb(s + d - 1, d))
        total += level
    return comb(n, s) * total


@st.composite
def real_models(draw):
    """n, and rho = -2 Re w + p + conj(p): every monomial of p has degree 2
    to 4 and a z or conj(z) factor, and half the models add |z_j|^(2k)."""
    n = draw(st.integers(2, 4))
    ring = hypersurface_ring(n)
    nz = n - 1
    p = ring.zero()
    for _ in range(draw(st.integers(1, 4))):
        key = [draw(st.integers(0, 2)) for _ in range(2 * n)]
        if not any(key[:nz]) and not any(key[n:n + nz]):
            key[draw(st.integers(0, nz - 1))] += 1
        while sum(key) > 4:
            key[max(range(2 * n), key=key.__getitem__)] -= 1
        if sum(key) < 2 or not (any(key[:nz]) or any(key[n:n + nz])):
            continue
        p = p + ring.monomial(key, draw(st.sampled_from(POOL[1:])))
    if draw(st.booleans()):  # |z_j|^(2k) terms, so that fewer curves lie in the model
        for j in range(nz):
            k = draw(st.integers(0, 2))  # 0: leave z_j out
            if k:
                p = p + (ring.var(j) * ring.conj_var(j)) ** k
    rho = -(ring.var("w") + ring.conj_var("w")) + p + p.conj()
    return n, rho


def draw_search(data, n):
    """s, a coefficient set (0 in three draws of four, at any position, and
    repeats allowed) and the largest drawn cap the node bound admits."""
    s = data.draw(st.integers(1, n - 1))
    coeffs = data.draw(st.lists(st.sampled_from(POOL[1:]), max_size=2))
    if not coeffs or data.draw(st.integers(0, 3)):
        coeffs.insert(data.draw(st.integers(0, len(coeffs))), POOL[0])
    cap = data.draw(st.integers(1, 3))
    while cap > 1 and naive_nodes(n, s, cap, len(coeffs)) > NODE_BOUND:
        cap -= 1
    assert naive_nodes(n, s, cap, len(coeffs)) <= NODE_BOUND
    return s, coeffs, cap


@settings(max_examples=150, deadline=None)
@given(real_models(), st.data())
def test_random_real_models(model, data):
    n, rho = model
    s, coeffs, cap = draw_search(data, n)
    assert_same_as_reference(Hypersurface(n, rho), s, cap, coeffs)

