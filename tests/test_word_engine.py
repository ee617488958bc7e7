"""The lazy word engine in crtypes.invariants against the naive loops.

Each public word function must give the same report as its reference in
reference_words.py: value and witness for the two types, passed flag,
failing word and value for the vanishing checks, and the span dimension.
Caps 0 and 1 are included: the bracket words visit the generators whatever
the cap, the trace words start at length 2.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_words as ref
from helpers import SMALL_COEFFS, random_poly
from crtypes import invariants as inv
from crtypes.cli import load_model
from crtypes.fixtures import all_fixtures
from crtypes.grammar import parse_poly
from crtypes.invariants import assign_weights, truncate_frame, truncated_model
from crtypes.normalize import Frame, kill_holomorphic_terms
from crtypes.poly import hypersurface_ring
from crtypes.vfield import Hypersurface, VectorField, lie_bracket, pair_with_drho

CAPS = list(range(-1, 7))
TYPES = ("commutator_type", "levi_type")
CHECKS = ("bracket_pairing_vanishing", "levi_trace_vanishing")


def assert_same_as_reference(m, frame, cap):
    for name in TYPES + CHECKS:
        got = getattr(inv, name)(m, frame, cap).to_json_dict()
        want = getattr(ref, name)(m, frame, cap).to_json_dict()
        assert got == want, (name, cap)
    assert inv.bracket_span_dim(frame, cap) == ref.bracket_span_dim(frame, cap), cap


def model_frames():
    out = []
    for fx in all_fixtures():
        if fx.get("kind") != "tangency":
            model = load_model(fx["name"])
            out.append(pytest.param(model.m, model.default_frame(), id=fx["name"]))
    return out


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("m,frame", model_frames())
def test_fixture_default_frames(m, frame, cap):
    assert_same_as_reference(m, frame, cap)


def cubic_truncated():
    ring = hypersurface_ring(3)
    m, _ = Hypersurface.from_rho(
        3, parse_poly(ring, "2*Re(w) + (z2 + conj(z2) + z1*conj(z1))^2"))
    m, _ = kill_holomorphic_terms(m, 4)
    f = Frame(m, [[ring.one(), -ring.conj_var("z1")]])
    w = assign_weights(m, f, 4)
    return truncated_model(m, w), truncate_frame(f, w)


@pytest.mark.parametrize("cap", CAPS)
def test_truncated_cubic(cap):
    m0, f0 = cubic_truncated()
    assert_same_as_reference(m0, f0, cap)


def levi_null(n, scales, extra=None):
    """2Re(w) + (z_{n-1} + conj(z_{n-1}) + sum a_j |z_j|^2)^2 [+ b |z1|^(2p)],
    with the Levi-null frame S_j = L_j - a_j conj(z_j) L_{n-1}."""
    last = f"z{n - 1}"
    inner = " + ".join(f"{a}*z{j}*conj(z{j})" for j, a in enumerate(scales, start=1))
    rho = f"2*Re(w) + ({last} + conj({last}) + {inner})^2"
    if extra:
        b, p = extra
        rho += f" + {b}*(z1*conj(z1))^{p}"
    ring = hypersurface_ring(n)
    m, _ = Hypersurface.from_rho(n, parse_poly(ring, rho))
    rows = []
    for j, a in enumerate(scales):
        row = [ring.one() if h == j else ring.zero() for h in range(n - 2)]
        row.append(ring.conj_var(j).scale(-a))
        rows.append(row)
    return m, Frame(m, rows)


LEVI_NULL = [
    pytest.param(3, [2], None, id="n3"),
    pytest.param(3, [1], (2, 2), id="n3-b|z1|^4"),
    pytest.param(3, [3], (1, 3), id="n3-b|z1|^6"),
    pytest.param(4, [1, 2], None, id="n4"),
    pytest.param(4, [2, 1], (3, 2), id="n4-b|z1|^4"),
]


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("n,scales,extra", LEVI_NULL)
def test_levi_null_frames(n, scales, extra, cap):
    m, frame = levi_null(n, scales, extra)
    assert_same_as_reference(m, frame, cap)


@pytest.mark.parametrize("n,scales,extra", LEVI_NULL)
def test_levi_null_frames_deep(n, scales, extra):
    """Past the caps of the grid above: cap 8 on n = 3, cap 7 on n = 4."""
    m, frame = levi_null(n, scales, extra)
    assert_same_as_reference(m, frame, 8 if n == 3 else 7)


def test_n4_commutator_type_cap_12_bracket_count(monkeypatch):
    """On S_j = L_j - conj(z_j) L_3 every word of length 3 is zero, so cap 12
    takes the 16 + 16 brackets of lengths 2 and 3; enumerating every word
    of length up to 12 would take about 2.2e7."""
    m, frame = levi_null(4, [1, 1])
    calls = []
    bracket = inv.lie_bracket

    def counted(x, y, max_degree=None):
        calls.append(1)
        return bracket(x, y, max_degree)

    monkeypatch.setattr(inv, "lie_bracket", counted)
    assert inv.commutator_type(m, frame, 12).to_json_dict()["value"] == ">12"
    assert len(calls) <= 32


@pytest.mark.parametrize("m,frame", model_frames())
def test_pairing_at_zero_is_minus_w_coefficient(m, frame):
    """The engine reads <X, d rho>(0) as -X^w(0); pair_with_drho multiplies
    by the derivatives of rho.  Checked on the frame's words of length <= 2
    and on random fields with random values at 0 in every direction."""
    rng = random.Random(7)
    ring = m.ring
    gens = [f for _, f in inv._generators(frame)]
    fields = gens + [lie_bracket(g, h) for g in gens for h in gens]
    for _ in range(20):
        coeffs = [ring.const(rng.choice(SMALL_COEFFS)) + random_poly(ring, rng)
                  for _ in range(2 * ring.nv)]
        fields.append(VectorField(ring, coeffs))
    values = [pair_with_drho(f, m).constant_term() for f in fields]
    assert [inv._pairing_at_zero(f) for f in fields] == values
    assert sum(not v.is_zero() for v in values) >= 10


MONOMIALS = ["z1", "conj(z1)", "z2", "conj(z2)", "z1*conj(z1)", "z1^2", "conj(z1)^2",
             "z1*conj(z2)", "z2*conj(z1)", "z2*conj(z2)"]
COEFFS = ["1", "-1", "1i", "-1i", "2", "1/2"]
MODELS = [
    "2*Re(w) + (z2 + conj(z2) + z1*conj(z1))^2",
    "-2*Re(w) + (z1*conj(z1))^2 + z2*conj(z2)",
    "-2*Re(w) + z1*conj(z1)*(z2 + conj(z2)) + (z1*conj(z1))^3",
]


@settings(max_examples=40, deadline=None)
@given(
    rho=st.sampled_from(MODELS),
    column=st.lists(st.tuples(st.sampled_from(COEFFS), st.sampled_from(MONOMIALS)),
                    max_size=3),
    cap=st.integers(-1, 5),
)
def test_drawn_last_columns(rho, column, cap):
    ring = hypersurface_ring(3)
    m, _ = Hypersurface.from_rho(3, parse_poly(ring, rho))
    last = ring.zero()
    for c, mono in column:
        last = last + parse_poly(ring, f"{c}*{mono}")
    assert_same_as_reference(m, Frame(m, [[ring.one(), last]]), cap)


def count_applies(monkeypatch, call):
    calls = []
    apply = VectorField.apply

    def counted(self, p, max_degree=None):
        calls.append(1)
        return apply(self, p, max_degree)

    with monkeypatch.context() as patch:
        patch.setattr(VectorField, "apply", counted)
        report = call()
    return report.to_json_dict(), len(calls)


def test_trace_words_stop_at_cap(monkeypatch):
    """levi_type builds no derivative level beyond its cap."""
    model = load_model("cubic-contact")
    m, frame = model.m, model.default_frame()
    got, n_got = count_applies(monkeypatch, lambda: inv.levi_type(m, frame, 8))
    want, n_want = count_applies(monkeypatch, lambda: ref.levi_type(m, frame, 8))
    assert got == want and got["value"] == ">8"
    # 12 applies build the trace, then 2 for length 3; both words are zero,
    # so the engine builds no more, where the reference builds 4 + ... + 64
    # more for lengths 4..8
    assert (n_got, n_want) == (14, 266)


def test_words_stop_at_witness(monkeypatch):
    """Both word families stop in the middle of a level at their witness."""
    model = load_model("diag-2-1")
    m, frame = model.m, model.default_frame()
    got, n_got = count_applies(monkeypatch, lambda: inv.commutator_type(m, frame, 8))
    want, n_want = count_applies(monkeypatch, lambda: ref.commutator_type(m, frame, 8))
    assert got == want and got["witness"] == "[S1,[S1b,[S1,S1b]]]"
    # 12 applies a bracket; both stop at the witness, the reference after
    # 4 + 8 + 6 brackets, the engine after 4 + 4 + 3: the zero words [S1,S1]
    # and [S1b,S1b] are not bracketed further
    assert (n_got, n_want) == (132, 216)
    got, n_got = count_applies(monkeypatch, lambda: inv.levi_type(m, frame, 8))
    want, n_want = count_applies(monkeypatch, lambda: ref.levi_type(m, frame, 8))
    assert got == want and got["value"] == "4"
    # the reference builds all four words of length 4 before reading them
    assert n_got < n_want


def test_bracket_span_visits_generators_below_cap_two():
    m0, f0 = cubic_truncated()
    assert inv.bracket_span_dim(f0, -1) == inv.bracket_span_dim(f0, 1) == 2
