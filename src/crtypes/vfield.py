"""Complex vector fields with polynomial coefficients and the CR frame.

A field is stored as one coefficient polynomial per coordinate direction
(d/dz1, ..., d/dz_{n-1}, d/dw, then the barred directions).  Fields carry a
jet order: the polynomial degree through which their coefficients agree with
the exact analytic objects.  Exact fields (every rigid model) have infinite
jet order; the geometric-series inversion needed for a non-rigid defining
function forces truncation, and each Lie bracket spends one degree of the
certificate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .gaussian import GaussianRational, gr
from .poly import INFINITE, Poly, PolyError, PolyRing, hypersurface_ring


class HypersurfaceError(ValueError):
    """Raised for defining functions outside the expected normal form."""


class Hypersurface:
    """A polynomial model {rho = 0} with rho = -2*Re(w) + chi, chi = O(2)."""

    __slots__ = ("n", "ring", "rho", "jet_order", "_cr_fields")

    def __init__(self, n: int, rho: Poly, jet_order=INFINITE):
        self.n = n
        self.ring = hypersurface_ring(n)
        if rho.ring != self.ring:
            raise HypersurfaceError(f"rho lives in {rho.ring}, expected {self.ring}")
        if not rho.is_real():
            raise HypersurfaceError("defining function must be real")
        if not rho.constant_term().is_zero():
            raise HypersurfaceError("defining function must vanish at 0")
        w, wb = self.ring.var("w"), self.ring.conj_var("w")
        if rho.hom_part(1) != -(w + wb):
            raise HypersurfaceError("linear part must be exactly -w - conj(w)")
        nz = n - 1
        for key, c in rho.terms.items():
            if sum(key) > 1 and not any(key[:nz]) and not any(key[n:n + nz]):
                raise HypersurfaceError(
                    f"chi = O(|z|^2 + |z Im w|) fails: the term "
                    f"{self.ring.monomial(key, c)} has no z factor"
                )
        self.rho = rho
        self.jet_order = jet_order
        self._cr_fields = None

    @staticmethod
    def from_rho(n: int, rho: Poly) -> Tuple["Hypersurface", bool]:
        """Build a model, flipping w -> -w when the linear part is +2*Re(w).

        Returns (hypersurface, flipped).
        """
        ring = hypersurface_ring(n)
        w, wb = ring.var("w"), ring.conj_var("w")
        flipped = False
        if rho.hom_part(1) == w + wb:
            rho = rho.substitute({"w": -w})
            flipped = True
        return Hypersurface(n, rho), flipped

    @property
    def chi(self) -> Poly:
        w, wb = self.ring.var("w"), self.ring.conj_var("w")
        return self.rho + w + wb

    def is_rigid(self) -> bool:
        """True when chi does not involve w (no Im w dependence)."""
        c = self.chi
        return not c.involves("w") and not c.involves("w", conjugate=True)

    def chi_rigid(self) -> Poly:
        """chi with any Im w dependence frozen at Im w = 0."""
        return self.chi.set_zero(["w"])

    def cr_fields(self) -> Tuple["VectorField", ...]:
        """cr_frame(self, self.jet_order), built once: the model is immutable."""
        if self._cr_fields is None:
            self._cr_fields = tuple(cr_frame(self, self.jet_order))
        return self._cr_fields

    def __repr__(self) -> str:
        return f"Hypersurface(n={self.n}, rho={self.rho})"


class VectorField:
    """First-order operator sum(coeff_dir * d/d dir) with Poly coefficients."""

    __slots__ = ("ring", "coeffs", "jet_order")

    def __init__(self, ring: PolyRing, coeffs: Sequence[Poly], jet_order=INFINITE):
        if len(coeffs) != 2 * ring.nv:
            raise PolyError(f"{len(coeffs)} direction coefficients for {ring}")
        for c in coeffs:
            if c.ring != ring:
                raise PolyError("coefficient ring mismatch")
        self.ring = ring
        self.coeffs = tuple(coeffs)
        self.jet_order = jet_order

    @staticmethod
    def zero(ring: PolyRing) -> "VectorField":
        z = ring.zero()
        return VectorField(ring, [z] * (2 * ring.nv))

    @staticmethod
    def direction(ring: PolyRing, slot: int) -> "VectorField":
        coeffs = [ring.zero()] * (2 * ring.nv)
        coeffs[slot] = ring.one()
        return VectorField(ring, coeffs)

    def coeff(self, slot: int) -> Poly:
        return self.coeffs[slot]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.ring,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            min(self.jet_order, other.jet_order),
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.ring,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
            min(self.jet_order, other.jet_order),
        )

    def __neg__(self) -> "VectorField":
        return VectorField(self.ring, [-c for c in self.coeffs], self.jet_order)

    def scale_by(self, f: Poly) -> "VectorField":
        return VectorField(self.ring, [f * c for c in self.coeffs], self.jet_order)

    def scale(self, c) -> "VectorField":
        return VectorField(self.ring, [p.scale(c) for p in self.coeffs], self.jet_order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

    def apply(self, p: Poly, max_degree: Optional[int] = None) -> Poly:
        """Act on a polynomial as a derivation.

        With max_degree, monomials of total degree above it are left out of
        the result (the products are truncated ones).
        """
        if not p.terms:
            return self.ring.zero()
        parts = []
        for slot, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            d = p._d_slot(slot)
            if not d.is_zero():
                parts.append(c * d if max_degree is None else c.mul_truncated(d, max_degree))
        return Poly.sum(self.ring, parts)

    def conj_field(self) -> "VectorField":
        nv = self.ring.nv
        cs = [c.conj() for c in self.coeffs]
        return VectorField(self.ring, cs[nv:] + cs[:nv], self.jet_order)

    def eval_at_zero(self) -> Tuple[GaussianRational, ...]:
        return tuple(c.constant_term() for c in self.coeffs)

    def to_json_dict(self) -> Dict[str, str]:
        out = {}
        for slot, c in enumerate(self.coeffs):
            if not c.is_zero():
                out[direction_name(self.ring, slot)] = str(c)
        return out

    def __repr__(self) -> str:
        parts = [
            f"({c})*d/d{self.ring.slot_name(slot)}"
            for slot, c in enumerate(self.coeffs)
            if not c.is_zero()
        ]
        return "VectorField<" + (" + ".join(parts) if parts else "0") + ">"


def direction_name(ring: PolyRing, slot: int) -> str:
    nv = ring.nv
    if slot < nv:
        return "d" + ring.names[slot]
    return "d" + _bar_name(ring.names[slot - nv])


def _bar_name(name: str) -> str:
    # "z1" -> "zbar1", "w" -> "wbar"
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return head + "bar" + tail


def field_from_json(ring: PolyRing, data: Dict[str, str]) -> VectorField:
    from .grammar import parse_poly

    names = {direction_name(ring, slot): slot for slot in range(2 * ring.nv)}
    coeffs = [ring.zero()] * (2 * ring.nv)
    for key, text in data.items():
        if key not in names:
            raise PolyError(f"unknown direction {key!r}")
        coeffs[names[key]] = parse_poly(ring, text)
    return VectorField(ring, coeffs)


def lie_bracket(x: VectorField, y: VectorField,
                max_degree: Optional[int] = None) -> VectorField:
    """[X, Y], coefficient-wise X(Y^dir) - Y(X^dir).

    With max_degree, the coefficients keep only their monomials of total
    degree up to max_degree.
    """
    if x.ring != y.ring:
        raise PolyError("bracket of fields over different rings")
    coeffs = [x.apply(yc, max_degree) - y.apply(xc, max_degree)
              for xc, yc in zip(x.coeffs, y.coeffs)]
    jet = min(x.jet_order, y.jet_order)
    if jet is not INFINITE:
        jet = max(jet - 1, 0)
    return VectorField(x.ring, coeffs, jet)


def cr_frame(m: Hypersurface, jet_order=INFINITE) -> List[VectorField]:
    """The tangent (1,0) frame L_i = d/dz_i - rho_{z_i} * (rho_w)^{-1} * d/dw.

    For a rigid model rho_w is the constant -1, the inversion is exact and
    the returned fields annihilate rho identically (infinite jet order).
    Otherwise (rho_w)^{-1} is a geometric series truncated at jet_order and
    each L_i annihilates rho through that degree.
    """
    ring = m.ring
    rho = m.rho
    rho_w = rho.dz("w")
    c = rho_w.constant_term()
    if c.is_zero():
        raise HypersurfaceError("rho_w vanishes at 0; not in normal form")
    if rho_w == ring.const(c):
        inv = ring.const(gr(1) / c)
        exact = True
    else:
        if jet_order is INFINITE or jet_order < 0:
            raise HypersurfaceError(
                "non-rigid model: a finite jet_order is required for the frame"
            )
        u = rho_w.scale(gr(1) / c) - ring.one()
        geom = ring.one()
        pw = ring.one()
        for _ in range(int(jet_order)):
            pw = pw.mul_truncated(-u, int(jet_order))
            if pw.is_zero():
                break
            geom = geom + pw
        inv = geom.scale(gr(1) / c)
        exact = False
    w_slot = ring.index("w")
    fields = []
    for i in range(ring.nv - 1):
        rho_zi = rho.dz(i)
        if exact:
            w_coeff = -(rho_zi * inv)
        else:
            w_coeff = -(rho_zi.mul_truncated(inv, int(jet_order)))
        coeffs = [ring.zero()] * (2 * ring.nv)
        coeffs[i] = ring.one()
        coeffs[w_slot] = w_coeff
        fields.append(
            VectorField(ring, coeffs, INFINITE if exact else int(jet_order))
        )
    return fields


def pair_with_drho(x: VectorField, m: Hypersurface) -> Poly:
    """<X, d rho> = sum_i X^{z_i} rho_{z_i} + X^w rho_w (unbarred directions only)."""
    ring = m.ring
    out = ring.zero()
    for i in range(ring.nv):
        c = x.coeffs[i]
        if not c.is_zero():
            out = out + c * m.rho.dz(i)
    return out


def annihilates_through(x: VectorField, rho: Poly, degree) -> bool:
    """True when X(rho) has no monomials of total degree <= degree."""
    r = x.apply(rho)
    if r.is_zero():
        return True
    if degree is INFINITE:
        return False
    return r.vanishing_order() > degree
