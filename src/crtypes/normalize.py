"""Frame normalization for an (n-2)-subbundle of CR vector fields.

Given a model hypersurface and a frame S_j = sum_h a_{jh} L_h with
a_{jh}(0) = delta_{jh}, this module removes holomorphic terms from the
defining function, computes the minimal vanishing order l0 of the
last-column coefficients on the z-slice, applies the iterated shears, the
generic slide and (in the degenerate sub-case) the Euler shear, and emits a
certificate whose case-defining identities are re-verified symbolically
before it is returned.

Substitutions store both the forward map (new coordinates in terms of old)
and its exact inverse, so that defining functions transform by composition
with the inverse and frames by the Jacobian pushforward.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussian import GaussianRational, ONE, ZERO, gr
from .linalg import det as _det, rank as _rank
from .poly import INFINITE, Poly, PolyError, PolyRing, WeightSystem
from .vfield import Hypersurface, VectorField


class NormalizeError(ValueError):
    """Structured failure of a pipeline step."""


class GenericSlideError(NormalizeError):
    """No slide parameter in the trial set satisfies the genericity conditions."""


class DegenerateFrameError(NormalizeError):
    """Frame data identically zero where the case analysis needs content."""


# ---------------------------------------------------------------------------
# substitutions

class Substitution:
    """An invertible holomorphic polynomial coordinate change.

    forward[i] expresses new coordinate i in terms of the old ones,
    inverse[i] the old coordinate i in terms of the new ones.  Both maps are
    holomorphic (no barred variables); conjugate slots transform by the
    conjugated maps automatically.
    """

    __slots__ = ("ring", "forward", "inverse")

    def __init__(self, ring: PolyRing, forward: Sequence[Poly], inverse: Sequence[Poly]):
        self.ring = ring
        self.forward = tuple(forward)
        self.inverse = tuple(inverse)
        for p in self.forward + self.inverse:
            if p.ring != ring:
                raise PolyError("substitution images in the wrong ring")
            if not p.holomorphic_part() == p:
                raise PolyError("coordinate changes must be holomorphic")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(ring: PolyRing) -> "Substitution":
        vs = [ring.var(i) for i in range(ring.nv)]
        return Substitution(ring, vs, vs)

    @staticmethod
    def shear_last_z(ring: PolyRing, g: Poly) -> "Substitution":
        """z_{n-1} -> z_{n-1} - g(z_1..z_{n-2}); g must avoid z_{n-1} and w."""
        last = ring.nv - 2
        if g.involves(last) or g.involves(ring.nv - 1):
            raise PolyError("shear term must not involve z_{n-1} or w")
        fwd = [ring.var(i) for i in range(ring.nv)]
        inv = [ring.var(i) for i in range(ring.nv)]
        fwd[last] = ring.var(last) - g
        inv[last] = ring.var(last) + g
        return Substitution(ring, fwd, inv)

    @staticmethod
    def w_shear(ring: PolyRing, h: Poly) -> "Substitution":
        """w -> w - h(z); h must be holomorphic in the z variables only."""
        wi = ring.nv - 1
        if h.involves(wi):
            raise PolyError("w-shear term must not involve w")
        fwd = [ring.var(i) for i in range(ring.nv)]
        inv = [ring.var(i) for i in range(ring.nv)]
        fwd[wi] = ring.var(wi) - h
        inv[wi] = ring.var(wi) + h
        return Substitution(ring, fwd, inv)

    @staticmethod
    def slide(ring: PolyRing, alpha: Sequence[GaussianRational]) -> "Substitution":
        """z_j -> z_j - alpha_j * z1 for j = 2..n-2 (alpha has n-3 entries)."""
        n = ring.nv
        if len(alpha) != max(n - 3, 0):
            raise PolyError(f"slide needs {max(n - 3, 0)} parameters, got {len(alpha)}")
        fwd = [ring.var(i) for i in range(ring.nv)]
        inv = [ring.var(i) for i in range(ring.nv)]
        z1 = ring.var(0)
        for idx, a in enumerate(alpha):
            j = idx + 1  # slot of z_{idx+2}
            fwd[j] = ring.var(j) - z1.scale(a)
            inv[j] = ring.var(j) + z1.scale(a)
        return Substitution(ring, fwd, inv)

    @staticmethod
    def transpose(ring: PolyRing, i: int, j: int) -> "Substitution":
        fwd = [ring.var(k) for k in range(ring.nv)]
        fwd[i], fwd[j] = fwd[j], fwd[i]
        return Substitution(ring, fwd, fwd)

    # -- structure -----------------------------------------------------------

    def is_identity(self) -> bool:
        return all(self.forward[i] == self.ring.var(i) for i in range(self.ring.nv))

    def fixes_w(self) -> bool:
        wi = self.ring.nv - 1
        return self.forward[wi] == self.ring.var(wi)

    def fixes_z(self) -> bool:
        return all(self.forward[i] == self.ring.var(i) for i in range(self.ring.nv - 1))

    def forward_map(self) -> Dict[int, Poly]:
        return {i: self.forward[i] for i in range(self.ring.nv)}

    def inverse_map(self) -> Dict[int, Poly]:
        return {i: self.inverse[i] for i in range(self.ring.nv)}

    def compose(self, inner: "Substitution") -> "Substitution":
        """self after inner: old --inner--> mid --self--> new."""
        fwd = [p.substitute(inner.forward_map()) for p in self.forward]
        inv = [p.substitute(self.inverse_map()) for p in inner.inverse]
        return Substitution(self.ring, fwd, inv)

    def linear_part(self) -> List[List[GaussianRational]]:
        nv = self.ring.nv
        mat = []
        for i in range(nv):
            row = []
            for h in range(nv):
                key = [0] * (2 * nv)
                key[i] = 1
                row.append(self.forward[h].coeff(tuple(key)))
            mat.append(row)
        return mat

    def verify_round_trip(self) -> bool:
        for i in range(self.ring.nv):
            if self.forward[i].substitute(self.inverse_map()) != self.ring.var(i):
                return False
            if self.inverse[i].substitute(self.forward_map()) != self.ring.var(i):
                return False
        return True

    def apply_to(self, p: Poly) -> Poly:
        """Express a function of the old coordinates in the new ones."""
        return p.substitute(self.inverse_map())

    def to_json_dict(self) -> Dict[str, str]:
        out = {}
        for i in range(self.ring.nv):
            if self.forward[i] != self.ring.var(i):
                out[self.ring.names[i]] = str(self.forward[i])
        return out

    def __repr__(self) -> str:
        d = self.to_json_dict()
        return f"Substitution({d if d else 'identity'})"


# ---------------------------------------------------------------------------
# frames

class Frame:
    """A tangent (1,0) frame of s fields S_j = sum_h a_{jh} L_h, stored by matrix.

    Rows j = 1..s, columns h = 1..n-1 (0-based internally).  A `normalized`
    frame has the identity block a_{jh}(0) = delta_{jh} and a vanishing last
    column at 0, as the normalization pipeline requires; a general frame only
    needs fields that are linearly independent at 0.  Tangency to the model
    is automatic because the S_j are combinations of the CR frame.
    """

    __slots__ = ("m", "matrix", "normalized", "_fields")

    def __init__(self, m: Hypersurface, matrix: Sequence[Sequence[Poly]],
                 normalized: bool = True):
        n = m.n
        rows = tuple(tuple(row) for row in matrix)
        if not rows or any(len(r) != n - 1 for r in rows):
            raise NormalizeError(f"frame rows must have {n - 1} columns")
        if normalized and len(rows) != n - 2:
            raise NormalizeError(
                f"a normalized frame has {n - 2} rows, got {len(rows)}"
            )
        for j, row in enumerate(rows):
            for h, a in enumerate(row):
                if a.ring != m.ring:
                    raise NormalizeError("frame coefficients in the wrong ring")
                if normalized:
                    expected = ONE if j == h else ZERO
                    if h < n - 2 and a.constant_term() != expected:
                        raise NormalizeError(
                            f"a[{j + 1}][{h + 1}](0) must be {expected}, "
                            "frame not normalized"
                        )
                    if h == n - 2 and not a.constant_term().is_zero():
                        raise NormalizeError(f"a[{j + 1}][{n - 1}](0) must vanish")
        if not normalized:
            consts = [[a.constant_term() for a in row] for row in rows]
            if _rank(consts) != len(rows):
                raise NormalizeError("frame fields are linearly dependent at 0")
        self.m = m
        self.matrix = rows
        self.normalized = normalized
        self._fields = None

    @staticmethod
    def coordinate(m: Hypersurface, indices: Optional[Sequence[int]] = None) -> "Frame":
        """The frame spanned by the chosen coordinate CR fields (default L_1..L_{n-2})."""
        n = m.n
        idx = list(indices) if indices is not None else list(range(n - 2))
        ring = m.ring
        rows = []
        for j in idx:
            row = [ring.zero()] * (n - 1)
            row[j] = ring.one()
            rows.append(row)
        return Frame(m, rows, normalized=(idx == list(range(n - 2))))

    @property
    def size(self) -> int:
        return len(self.matrix)

    def fields(self) -> List[VectorField]:
        if self._fields is None:
            ls = self.m.cr_fields()
            out = []
            for row in self.matrix:
                s = VectorField.zero(self.m.ring)
                for a, l in zip(row, ls):
                    if not a.is_zero():
                        s = s + l.scale_by(a)
                out.append(s)
            self._fields = out
        return self._fields

    def last_column(self) -> List[Poly]:
        return [row[-1] for row in self.matrix]

    def verify_tangency(self) -> bool:
        rho = self.m.rho
        return all(s.apply(rho).is_zero() for s in self.fields())


def zslice(p: Poly) -> Poly:
    """Restrict to z_{n-1} = w = 0 (and their conjugates)."""
    nv = p.ring.nv
    return p.set_zero([nv - 2, nv - 1])


def l0_star(frame: Frame):
    """Minimal vanishing order at 0 of the last-column coefficients on the slice."""
    orders = [zslice(a).vanishing_order() for a in frame.last_column()]
    return min(orders)


def l0_of(frame: Frame, a_contact: int) -> int:
    """l0, re-defined to a_contact when the raw vanishing order reaches it."""
    ls = l0_star(frame)
    return int(min(ls, a_contact))


def model_weights(m: Hypersurface, l0: int) -> Tuple[int, int, WeightSystem]:
    """(k, m_weight, weight system) with k = l0 + 1 on z_{n-1}."""
    n = m.n
    k = l0 + 1
    probe = WeightSystem(m.ring, [1] * (n - 2) + [k, 1])
    chi = m.chi_rigid()
    mw = chi.weighted_vanishing_order(probe)
    if mw is INFINITE:
        raise NormalizeError("defining function has no z-dependence; model is flat")
    return k, int(mw), WeightSystem(m.ring, [1] * (n - 2) + [k, int(mw)])


# ---------------------------------------------------------------------------
# elementary pipeline steps

def transform_hypersurface(m: Hypersurface, sub: Substitution) -> Hypersurface:
    return Hypersurface(m.n, sub.apply_to(m.rho), m.jet_order)


def _pushforward_matrix(ring: PolyRing, matrix, sub: Substitution):
    det = _det(sub.linear_part())
    if det.is_zero():
        raise NormalizeError("coordinate change has a non-invertible linear part")
    inv = sub.inverse_map()
    if sub.fixes_w():
        nv = ring.nv
        for h in range(nv - 1):
            if sub.forward[h].involves(nv - 1):
                raise NormalizeError("z-images of a frame-shape change must not involve w")
        jac = [[sub.forward[h].dz(i) for h in range(nv - 1)] for i in range(nv - 1)]
        new_rows = []
        for row in matrix:
            new_row = []
            for h in range(nv - 1):
                acc = ring.zero()
                for i in range(nv - 1):
                    if not row[i].is_zero() and not jac[i][h].is_zero():
                        acc = acc + row[i] * jac[i][h]
                new_row.append(acc.substitute(inv))
            new_rows.append(new_row)
        return new_rows
    if sub.fixes_z():
        return [[a.substitute(inv) for a in row] for row in matrix]
    raise NormalizeError(
        "pushforward supports changes fixing w (frame shape) or fixing z (w-shear)"
    )


def _matrix_has_identity_block(rows, n: int) -> bool:
    if len(rows) != n - 2:
        return False
    for j, row in enumerate(rows):
        for h, a in enumerate(row):
            expected = ONE if j == h else ZERO
            if h < n - 2 and a.constant_term() != expected:
                return False
            if h == n - 2 and not a.constant_term().is_zero():
                return False
    return True


def pushforward_frame(frame: Frame, sub: Substitution) -> Frame:
    """Transport a frame through a coordinate change.

    For changes fixing w the rows recombine with the holomorphic Jacobian;
    for w-shears the matrix is unchanged apart from composition with the
    inverse map.  The change must have an invertible linear part.  A change
    whose linear part moves the frame directions (a transposition, say)
    yields a frame without the identity-block normalization; callers restore
    it with a basis change when they need it.
    """
    m2 = transform_hypersurface(frame.m, sub)
    new_rows = _pushforward_matrix(frame.m.ring, frame.matrix, sub)
    normalized = frame.normalized and _matrix_has_identity_block(new_rows, m2.n)
    return Frame(m2, new_rows, normalized=normalized)


def kill_holomorphic_terms(
    m: Hypersurface, order: int
) -> Tuple[Hypersurface, Substitution]:
    """Remove pure holomorphic z-terms of chi through the given degree.

    Iterates w -> w - h(z) with h the offending terms; for non-rigid chi a
    step can create new holomorphic terms of strictly higher order, so the
    loop runs until the slice is clean.
    """
    ring = m.ring
    total = Substitution.identity(ring)
    current = m
    for _ in range(2 * order + 4):
        chi0 = current.chi.set_zero([ring.nv - 1]).holomorphic_part()
        offending = Poly(
            ring, {k: c for k, c in chi0.terms.items() if 0 < sum(k) <= order}
        )
        if offending.is_zero():
            return current, total
        step = Substitution.w_shear(ring, offending)
        current = transform_hypersurface(current, step)
        total = step.compose(total)
    raise NormalizeError("holomorphic-term removal did not terminate")


def _hol_slice(a: Poly) -> Poly:
    """a(z_1..z_{n-2}, 0, ..., 0): slice, all bars and z_{n-1}, w killed."""
    nv = a.ring.nv
    return a.set_zero(range(nv), bars="only").set_zero([nv - 2, nv - 1])


def _corner_slice(a: Poly, j: int) -> Poly:
    """a(0,..,0, z_{j+1}..z_{n-2}, 0..0): holomorphic slice with z_1..z_j killed."""
    return _hol_slice(a).set_zero(range(j))


def shear_normalize(frame: Frame, m: Hypersurface) -> Tuple[Frame, Hypersurface, Substitution]:
    """Iterated shears killing the corner holomorphic parts of the last column.

    At level ls = l0_star, step j applies
      z_{n-1} -> z_{n-1} - integral_0^{z_j} a_{j(n-1)}^{(ls)}(0,..,0,xi,z_{j+1},..) dxi
    so that afterwards a_{j(n-1)}^{(ls)}(0,..,0,z_j,..,z_{n-2},0,..,0) = 0 for
    every j (checked).  l0_star never decreases (checked).
    """
    ring = m.ring
    ls = l0_star(frame)
    if ls is INFINITE:
        raise NormalizeError("last column vanishes on the slice; nothing to shear")
    ls = int(ls)
    total = Substitution.identity(ring)
    cur = frame
    for j in range(frame.size):
        integrand = _corner_slice(cur.matrix[j][-1], j).hom_part(ls)
        if integrand.is_zero():
            continue
        g = integrand._integrate_slot(j)
        step = Substitution.shear_last_z(ring, g)
        cur = pushforward_frame(cur, step)
        total = step.compose(total)
    for j in range(cur.size):
        if not _corner_slice(cur.matrix[j][-1], j).hom_part(ls).is_zero():
            raise NormalizeError(f"shear normalization failed for row {j + 1}")
    if l0_star(cur) < ls:
        raise NormalizeError("shear decreased the vanishing order; invariant broken")
    return cur, cur.m, total


@dataclass
class CaseSplit:
    case: str                 # "I" or "II"
    j0: Optional[int] = None  # 1-based, case I
    switch_index: int = 1     # 1-based row carrying non-holomorphic content, case II


def case_split(frame: Frame, l0: int, a_contact: Optional[int] = None) -> CaseSplit:
    """Decide between the all-holomorphic case and the non-holomorphic one.

    In the first case returns the least j0 >= 2 whose degree-l0 slice part is
    nonzero; in the second flags the row to be switched into position 1.
    """
    if a_contact is not None and l0 > a_contact - 1:
        raise NormalizeError(f"l0 = {l0} out of range for a_contact = {a_contact}")
    slices = [zslice(a).hom_part(l0) for a in frame.last_column()]
    non_holo = [j for j, s in enumerate(slices) if not s.barred_part().is_zero()]
    if not non_holo:
        j0 = None
        for j in range(1, frame.size):
            if slices[j].is_zero():
                continue
            if all(slices[i].is_zero() for i in range(j)):
                j0 = j + 1
                break
        if j0 is None:
            raise DegenerateFrameError(
                "all-holomorphic case without an admissible index; "
                "vanishing order must have moved"
            )
        return CaseSplit("I", j0=j0)
    return CaseSplit("II", switch_index=non_holo[0] + 1)


def index_switch(frame: Frame, j_star: int) -> Tuple[Frame, Substitution]:
    """Swap z_1 with z_{j_star} and the matching frame rows (1-based j_star)."""
    if j_star == 1:
        return frame, Substitution.identity(frame.m.ring)
    sub = Substitution.transpose(frame.m.ring, 0, j_star - 1)
    moved = pushforward_frame(frame, sub)
    rows = list(moved.matrix)
    rows[0], rows[j_star - 1] = rows[j_star - 1], rows[0]
    return Frame(moved.m, rows), sub


def mixed_sum_coefficients(frame: Frame, l0: int) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], GaussianRational]:
    """The sums T_{HJ} = sum_lambda (a_{lambda(n-1)}^{(l0)})_{(H - e_lambda) J}.

    Indexed over |H| + |J| = l0 + 1 with |J| >= 1; these decide whether the
    generic slide can make the (z1, z1bar)-slice non-holomorphic, and they
    are exactly the mixed coefficients of sum_j z_j a_{j(n-1)} on the slice.
    """
    ring = frame.m.ring
    nv = ring.nv
    nz = nv - 1  # number of z variables
    out: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], GaussianRational] = {}
    for lam, a in enumerate(frame.last_column()):
        s = zslice(a).hom_part(l0)
        for key, c in s.terms.items():
            hpart = list(key[:nz - 1])  # exponents of z_1..z_{n-2}
            jpart = tuple(key[nv:nv + nz - 1])
            if sum(jpart) == 0:
                continue
            hpart[lam] += 1
            idx = (tuple(hpart), jpart)
            prev = out.get(idx, ZERO)
            out[idx] = prev + c
    return {k: v for k, v in out.items() if not v.is_zero()}


def slide_step_one_applies(frame: Frame, l0: int) -> bool:
    return bool(mixed_sum_coefficients(frame, l0))


def _z1_slice(a: Poly) -> Poly:
    """a(z1, 0, ..., 0, z1bar, 0, ..., 0)."""
    nv = a.ring.nv
    return a.set_zero(range(1, nv))


def generic_slide(
    frame: Frame,
    m: Hypersurface,
    trial_set: Sequence[GaussianRational],
    l0: int,
) -> Tuple[Frame, Hypersurface, Tuple[GaussianRational, ...], Substitution]:
    """z_j -> z_j - alpha_j z_1 with the first parameter tuple passing genericity.

    Candidates are drawn from trial_set^(n-3) in deterministic order; a
    candidate passes when the weighted-order-m part of the defining function
    survives restriction to the (z1, z_{n-1}) slice, l0 is unchanged, and -
    when the mixed sums are nonzero - the slid first row is non-holomorphic
    on the (z1, z1bar) slice.
    """
    n = m.n
    k, mw, weights = model_weights(m, l0)
    need_nonholo = slide_step_one_applies(frame, l0)
    ring = m.ring
    nparams = n - 3
    failures: List[str] = []

    def candidates():
        if nparams == 0:
            yield ()
            return
        yield from itertools.product(trial_set, repeat=nparams)

    for alpha in candidates():
        rows = [list(r) for r in frame.matrix]
        new_first = list(rows[0])
        for idx, a in enumerate(alpha):
            if a.is_zero():
                continue
            lam = idx + 1
            for h in range(len(new_first)):
                new_first[h] = new_first[h] + rows[lam][h].scale(a)
        rows[0] = new_first
        sub = Substitution.slide(ring, list(alpha))
        m2 = transform_hypersurface(m, sub)
        try:
            slid = Frame(m2, _pushforward_matrix(ring, rows, sub))
        except NormalizeError:
            failures.append(f"alpha={_fmt_alpha(alpha)}: lost frame normalization")
            continue
        rho_m = m2.chi_rigid().weighted_part(mw, weights)
        slice_rho = rho_m.set_zero(range(1, n - 2))
        if slice_rho.is_zero():
            failures.append(f"alpha={_fmt_alpha(alpha)}: weighted part dies on the (z1, z_(n-1)) slice")
            continue
        if l0_star(slid) != l0:
            failures.append(f"alpha={_fmt_alpha(alpha)}: vanishing order changed")
            continue
        if need_nonholo:
            s1 = _z1_slice(zslice(slid.matrix[0][-1])).hom_part(l0)
            if s1.barred_part().is_zero():
                failures.append(f"alpha={_fmt_alpha(alpha)}: first row stays holomorphic on the (z1, z1bar) slice")
                continue
        return slid, m2, tuple(alpha), sub
    raise GenericSlideError(
        "trial set exhausted without a generic slide; " + "; ".join(failures[:8])
        if failures
        else "trial set empty"
    )


def _fmt_alpha(alpha) -> str:
    return "(" + ", ".join(str(a) for a in alpha) + ")"


def euler_shear(
    frame: Frame,
    m: Hypersurface,
    l0: int,
    check_mixed: bool = True,
) -> Tuple[Frame, Hypersurface, Poly, Substitution]:
    """z_{n-1} -> z_{n-1} + g with g = -(1/(l0+1)) sum_j z_j a_{j(n-1)}^{(l0)}(z, 0).

    Afterwards the holomorphic slice parts satisfy sum_j z_j a'_{j(n-1)} = 0
    exactly, while every mixed (barred) degree-l0 coefficient is unchanged
    bitwise; both facts are checked.  With check_mixed the mixed sums must
    vanish beforehand (the sub-case in which this shear is the right move).
    """
    ring = m.ring
    if check_mixed and slide_step_one_applies(frame, l0):
        raise NormalizeError(
            "mixed coefficient sums are nonzero; the Euler shear sub-case does not apply"
        )
    z = [ring.var(i) for i in range(ring.nv)]
    total = ring.zero()
    mixed_before = []
    for j, a in enumerate(frame.last_column()):
        s = zslice(a).hom_part(l0)
        mixed_before.append(s.barred_part())
        total = total + z[j] * s.holomorphic_part()
    g = total.scale(gr(Fraction(-1, l0 + 1)))
    if g.is_zero():
        sub = Substitution.identity(ring)
        out = frame
    else:
        sub = Substitution.shear_last_z(ring, -g)  # z_{n-1} -> z_{n-1} + g
        out = pushforward_frame(frame, sub)
    check = ring.zero()
    for j, a in enumerate(out.last_column()):
        s = zslice(a).hom_part(l0)
        if s.barred_part() != mixed_before[j]:
            raise NormalizeError("Euler shear disturbed a mixed coefficient")
        check = check + z[j] * s.holomorphic_part()
    if not check.is_zero():
        raise NormalizeError("Euler identity failed after the shear")
    return out, out.m, g, sub


# ---------------------------------------------------------------------------
# the full pipeline

@dataclass
class NormalizationCertificate:
    case: str                       # "I", "II", "III" or "high-order"
    l0: int
    frame_out: Frame
    rho_out: Poly
    composed_change: Substitution
    alpha: Tuple[GaussianRational, ...] = ()
    j0: Optional[int] = None
    switch_index: int = 1
    euler_g: Optional[Poly] = None
    weights: Optional[WeightSystem] = None
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def verified(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def to_json_dict(self) -> dict:
        out = {
            "case": self.case,
            "l0": self.l0,
            "alpha": [str(a) for a in self.alpha],
            "substitution": self.composed_change.to_json_dict(),
            "rho_out": str(self.rho_out),
            "frame_out": [[str(a) for a in row] for row in self.frame_out.matrix],
            "checks": {k: ("pass" if v else "FAIL") for k, v in self.checks.items()},
        }
        if self.j0 is not None:
            out["j0"] = self.j0
        if self.switch_index != 1:
            out["switch_index"] = self.switch_index
        if self.euler_g is not None:
            out["euler_g"] = str(self.euler_g)
        if self.weights is not None:
            out["weights"] = list(self.weights.weights)
        if self.notes:
            out["notes"] = self.notes
        return out


DEFAULT_TRIAL_SET: Tuple[GaussianRational, ...] = tuple(
    gr(re, im) for re in range(-2, 3) for im in range(-2, 3)
)
# enumeration starts from small parameters: sort by |re| + |im|, then re, im
DEFAULT_TRIAL_SET = tuple(
    sorted(DEFAULT_TRIAL_SET, key=lambda c: (abs(c.re) + abs(c.im), c.re, c.im))
)


def _rho_m(m: Hypersurface, weights: WeightSystem, mw: int) -> Poly:
    return m.chi_rigid().weighted_part(mw, weights)


def normalize_full(
    frame: Frame,
    m: Hypersurface,
    a_contact: int,
    trial_set: Sequence[GaussianRational] = DEFAULT_TRIAL_SET,
) -> NormalizationCertificate:
    """Run the whole normalization and return a machine-verified certificate."""
    ring = m.ring
    n = m.n
    notes: List[str] = []
    if not frame.normalized:
        raise NormalizeError("normalization requires an identity-block frame")
    if frame.m.rho != m.rho:
        raise NormalizeError("frame was built over a different model")

    m2, sub0 = kill_holomorphic_terms(m, a_contact)
    if sub0.is_identity():
        m = m2
    else:
        frame = pushforward_frame(frame, sub0)
        m = frame.m
    total = sub0

    # shear at successive levels until the vanishing order stabilizes
    for _ in range(a_contact + 2):
        ls = l0_star(frame)
        if ls >= a_contact:
            cert = NormalizationCertificate(
                case="high-order",
                l0=a_contact,
                frame_out=frame,
                rho_out=frame.m.rho,
                composed_change=total,
                notes=notes,
            )
            cert.checks["last_column_order_at_least_a_contact"] = (
                l0_star(frame) >= a_contact
            )
            _require(cert)
            return cert
        frame, m, s = shear_normalize(frame, m)
        total = s.compose(total)
        if l0_star(frame) == ls:
            break
        notes.append(f"vanishing order moved past {int(ls)} after shearing")
    else:
        raise NormalizeError("vanishing order failed to stabilize")

    l0 = int(l0_star(frame))
    split = case_split(frame, l0, a_contact)

    if split.case == "I":
        cert = NormalizationCertificate(
            case="I",
            l0=l0,
            frame_out=frame,
            rho_out=m.rho,
            composed_change=total,
            j0=split.j0,
            notes=notes,
        )
        slices = [zslice(a).hom_part(l0) for a in frame.last_column()]
        j0 = split.j0
        cert.checks["all_rows_holomorphic_on_slice"] = all(
            s.barred_part().is_zero() for s in slices
        )
        cert.checks["rows_below_j0_vanish"] = all(
            slices[i].is_zero() for i in range(j0 - 1)
        )
        cert.checks["corner_slice_vanishes_at_j0"] = _corner_slice(
            frame.matrix[j0 - 1][-1], j0 - 1
        ).hom_part(l0).is_zero()
        cert.checks["full_slice_nonzero_at_j0"] = not _hol_slice(
            frame.matrix[j0 - 1][-1]
        ).hom_part(l0).is_zero()
        _require(cert)
        return cert

    # case II candidate
    switch = split.switch_index
    if switch != 1:
        frame, s = index_switch(frame, switch)
        m = frame.m
        total = s.compose(total)
        frame, m, s = shear_normalize(frame, m)
        total = s.compose(total)
        if l0_star(frame) != l0:
            raise NormalizeError("index switch changed the vanishing order")
        notes.append(f"switched row {switch} into position 1")

    k, mw, weights = model_weights(m, l0)
    step_one = slide_step_one_applies(frame, l0)
    frame, m, alpha, s = generic_slide(frame, m, trial_set, l0)
    total = s.compose(total)

    if step_one:
        frame, m, s = shear_normalize(frame, m)
        total = s.compose(total)
        if l0_star(frame) != l0:
            raise NormalizeError("post-slide shear changed the vanishing order")
        rho_m = _rho_m(m, weights, mw)
        cert = NormalizationCertificate(
            case="II",
            l0=l0,
            frame_out=frame,
            rho_out=m.rho,
            composed_change=total,
            alpha=alpha,
            switch_index=switch,
            weights=weights,
            notes=notes,
        )
        s1 = _z1_slice(zslice(frame.matrix[0][-1])).hom_part(l0)
        cert.checks["first_row_nonzero_on_z1_slice"] = not s1.is_zero()
        cert.checks["first_row_nonholomorphic_on_z1_slice"] = not s1.barred_part().is_zero()
        cert.checks["first_row_holomorphic_slice_vanishes"] = _hol_slice(
            frame.matrix[0][-1]
        ).hom_part(l0).is_zero()
        slice_rho = rho_m.set_zero(range(1, n - 2))
        cert.checks["weighted_part_nonzero_on_z1_slice"] = not slice_rho.is_zero()
        cert.checks["weighted_part_no_holomorphic_terms"] = (
            slice_rho.holomorphic_part().is_zero()
        )
        _require(cert)
        return cert

    frame, m, g, s = euler_shear(frame, m, l0, check_mixed=True)
    total = s.compose(total)
    rho_m = _rho_m(m, weights, mw)
    cert = NormalizationCertificate(
        case="III",
        l0=l0,
        frame_out=frame,
        rho_out=m.rho,
        composed_change=total,
        alpha=alpha,
        switch_index=switch,
        euler_g=g,
        weights=weights,
        notes=notes,
    )
    slices = [zslice(a).hom_part(l0) for a in frame.last_column()]
    cert.checks["some_row_nonholomorphic_on_slice"] = any(
        not s.barred_part().is_zero() for s in slices
    )
    z = [m.ring.var(i) for i in range(m.ring.nv)]
    full_sum = m.ring.zero()
    for j, sl in enumerate(slices):
        full_sum = full_sum + z[j] * sl
    cert.checks["euler_identity_full_sum_zero"] = full_sum.is_zero()
    cert.checks["weighted_part_nonzero"] = not rho_m.is_zero()
    cert.checks["weighted_part_no_holomorphic_terms"] = rho_m.holomorphic_part().is_zero()
    _require(cert)
    return cert


def _require(cert: NormalizationCertificate) -> None:
    bad = [name for name, ok in cert.checks.items() if not ok]
    if bad:
        raise NormalizeError(
            f"case {cert.case} certificate failed verification: {', '.join(bad)}"
        )
