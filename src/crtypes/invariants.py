"""Contact order, commutator length and Levi-trace invariants.

The three suprema are approached by bounded enumeration: holomorphic
immersions with coefficients from a finite set for the contact order,
right-nested commutator words over the frame generators for the vector-field
length, derivative words applied to the Levi trace for the trace length.
Reported values are therefore certified lower bounds with explicit
witnesses; infinite values are never claimed, they surface as ">cap".

Also here: the weight assignment (1, ..., 1, k = l0+1, m), the weighted
truncation of frames and models, the vanishing checks for bracket pairings
and trace derivatives of truncated data, and the bracket-span dimension at
the origin.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gaussian import GaussianRational, gr
from .linalg import rank
from .poly import (
    INFINITE,
    Poly,
    PolyError,
    PolyRing,
    WeightSystem,
    parameter_ring,
)
from .vfield import Hypersurface, VectorField, lie_bracket, pair_with_drho
from .normalize import Frame, l0_of, model_weights, NormalizeError


class JetOrderError(ValueError):
    """Frame jet certificate too short for the requested enumeration depth."""


class WeightAssignmentError(ValueError):
    """The weight hypotheses (k < m <= contact order) fail on this input."""


@dataclass
class TypeReport:
    """Result of one bounded invariant computation.

    value is None when every enumerated object stayed degenerate, in which
    case the honest report is ">cap"; a finite value is reproduced by
    re-evaluating the recorded witness.
    """

    kind: str                     # "contact", "vector_field" or "levi"
    value: Optional[int]
    cap: int
    witness: str = ""

    def display(self) -> str:
        return str(self.value) if self.value is not None else f">{self.cap}"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.display(),
            "cap": self.cap,
            "witness": self.witness,
        }


# ---------------------------------------------------------------------------
# contact order

class HoloImmersion:
    """A germ of a holomorphic immersion (C^s, 0) -> (C^n, 0), polynomial components."""

    __slots__ = ("components", "ring", "s")

    def __init__(self, components: Sequence[Poly]):
        if not components:
            raise PolyError("immersion needs at least one component")
        ring = components[0].ring
        for c in components:
            if c.ring != ring:
                raise PolyError("immersion components in different parameter rings")
            if not c.holomorphic_part() == c:
                raise PolyError("immersion components must be holomorphic")
            if not c.constant_term().is_zero():
                raise PolyError("immersion must map 0 to 0")
        self.components = tuple(components)
        self.ring = ring
        self.s = ring.nv
        jac = []
        for c in self.components:
            key_base = [0] * (2 * self.s)
            row = []
            for j in range(self.s):
                key = list(key_base)
                key[j] = 1
                row.append(c.coeff(tuple(key)))
            jac.append(row)
        if rank(jac) != self.s:
            raise PolyError("not an immersion: Jacobian rank at 0 is deficient")

    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


def order_of_contact(m: Hypersurface, phi: HoloImmersion):
    """Vanishing order at 0 of rho composed with the immersion; INFINITE if zero."""
    if len(phi.components) != m.ring.nv:
        raise PolyError(
            f"immersion has {len(phi.components)} components, expected {m.ring.nv}"
        )
    mapping = {i: phi.components[i] for i in range(m.ring.nv)}
    return m.rho.substitute(mapping).vanishing_order()


def _compose_truncated(rho: Poly, images: Sequence[Poly], target: PolyRing,
                       max_degree: int) -> Poly:
    """[rho(phi)] with all parts of degree > max_degree dropped."""
    full_images = list(images) + [c.conj() for c in images]
    orders = [img.vanishing_order() for img in full_images]
    cache: Dict[Tuple[int, int], Poly] = {}

    def power(slot: int, e: int) -> Poly:
        got = cache.get((slot, e))
        if got is None:
            if e == 1:
                got = full_images[slot]
            else:
                got = power(slot, e - 1).mul_truncated(full_images[slot], max_degree)
            cache[(slot, e)] = got
        return got

    factors = []
    for key, c in rho.terms.items():
        low = 0
        for slot, e in enumerate(key):
            if e:
                o = orders[slot]
                if o is INFINITE:
                    low = INFINITE
                    break
                low += e * o
        if low > max_degree:
            continue
        factor = target.const(c)
        for slot, e in enumerate(key):
            if e:
                factor = factor.mul_truncated(power(slot, e), max_degree)
                if factor.is_zero():
                    break
        factors.append(factor)
    return Poly.sum(target, factors)


def _monomials(ring: PolyRing, degree: int) -> List[Tuple[int, ...]]:
    """Holomorphic exponent vectors of the given total degree, deterministic order."""
    nv = ring.nv
    out = []
    for combo in itertools.combinations_with_replacement(range(nv), degree):
        key = [0] * (2 * nv)
        for i in combo:
            key[i] += 1
        out.append(tuple(key))
    return sorted(out)


def contact_search(
    m: Hypersurface,
    s: int,
    degree_cap: int,
    coeff_set: Sequence[GaussianRational],
) -> TypeReport:
    """Max contact order over immersions with small polynomial components.

    One component per parameter is pinned to t_j + higher-order terms (over
    every choice of the pinned coordinate subset), removing linear
    reparametrizations; the remaining coefficients range over coeff_set up
    to degree degree_cap.  The search walks coefficient levels degree by
    degree: once the composed defining function is nonzero at some degree,
    that degree is the exact contact order of every completion, so whole
    subtrees collapse to a single report.

    Screening by the linear part: an expanded node phi of level l has
    rho(phi) = O(l + 1), and a child adds a homogeneous delta of degree
    l + 1.  Since rho = -w - conj(w) + O(2) and every component vanishes at
    0, the child's part of degree l + 1 is T - delta_w - conj(delta_w), with
    T the part of degree l + 1 of rho(phi), composed once per node.  So the
    child survives (vanishes through l + 1) exactly when T = H + conj(H)
    for its holomorphic part H and the w-slots of delta carry H's
    coefficients; every other child has contact order exactly l + 1.  Only
    the survivors are enumerated, in product order with the w-slots fixed.
    The others need a report only when no child survives, and then only the
    first: a survivor's subtree reports at least l + 2, and equal orders
    keep the first witness.

    At the cap a survivor's order is read from rho(phi) truncated at
    degree_cap + 1, the bound doubling up to rho.degree() * degree_cap, which
    is at least the degree of rho(phi): zero there means INFINITE.
    """
    if not 1 <= s <= m.n - 1:
        raise PolyError(f"submanifold dimension {s} out of range for n = {m.n}")
    if not coeff_set:
        raise PolyError("empty coefficient set")
    n_comp = m.ring.nv
    w_comp = n_comp - 1
    param = parameter_ring(s)
    mons = {d: _monomials(param, d) for d in range(1, degree_cap + 1)}
    rho = m.rho
    max_finite_order = rho.degree() * degree_cap

    best: List[object] = [0, None]  # order, witness components

    def record(order, comps):
        if order is INFINITE:
            if best[0] is not INFINITE:
                best[0] = INFINITE
                best[1] = tuple(comps)
            return
        if best[0] is INFINITE:
            return
        if order > best[0]:
            best[0] = order
            best[1] = tuple(comps)

    def child(comps, slots, assignment):
        extended = list(comps)
        for (ci, key), c in zip(slots, assignment):
            if not c.is_zero():
                extended[ci] = extended[ci] + param.monomial(key, c)
        return extended

    def order_at_cap(comps):
        bound = degree_cap + 1
        while True:
            order = _compose_truncated(rho, comps, param, bound).vanishing_order()
            if order is not INFINITE or bound >= max_finite_order:
                return order
            bound = min(2 * bound, max_finite_order)

    def expand(level: int, comps: List[Poly], slots):
        """The children comps + delta over slots; rho(comps) = O(level + 1)."""
        nxt = level + 1
        top = _compose_truncated(rho, comps, param, nxt)
        hol = top.holomorphic_part()
        w_keys = {key for ci, key in slots if ci == w_comp}
        can_cancel = (top - hol - hol.conj()).is_zero() and w_keys.issuperset(hol.terms)
        choices = [[c for c in coeff_set if c == hol.coeff(key)] if ci == w_comp
                   else coeff_set for ci, key in slots]
        if not can_cancel or not all(choices):
            # no child survives: each has order exactly nxt, the first is the witness
            if best[0] is not INFINITE and nxt > best[0]:
                record(nxt, child(comps, slots, [coeff_set[0]] * len(slots)))
            return
        for assignment in itertools.product(*choices):
            extended = child(comps, slots, assignment)
            if nxt == degree_cap:
                record(order_at_cap(extended), extended)
            else:
                expand(nxt, extended, [(ci, key) for ci in range(n_comp)
                                       for key in mons[nxt + 1]])

    for pinned in itertools.combinations(range(n_comp), s):
        base = [param.zero()] * n_comp
        for j, ci in enumerate(pinned):
            base[ci] = param.var(j)
        free = [ci for ci in range(n_comp) if ci not in pinned]
        expand(0, base, [(ci, key) for ci in free for key in mons[1]])

    if best[0] is INFINITE:
        witness = "(" + ",".join(str(c) for c in best[1]) + ")"
        return TypeReport("contact", None, max_finite_order, witness)
    witness = "(" + ",".join(str(c) for c in best[1]) + ")" if best[1] else ""
    if best[1] is not None:
        # the reported value must be reproduced by its witness
        if order_of_contact(m, HoloImmersion(list(best[1]))) != best[0]:
            raise PolyError("contact witness failed re-evaluation")
    return TypeReport("contact", int(best[0]), max_finite_order, witness)


# ---------------------------------------------------------------------------
# commutator and Levi-trace types

def _generators(frame: Frame) -> List[Tuple[str, VectorField]]:
    gens = []
    for j, s in enumerate(frame.fields(), start=1):
        gens.append((f"S{j}", s))
        gens.append((f"S{j}b", s.conj_field()))
    return gens


def _check_jet(frame: Frame, cap: int) -> None:
    jet = min(f.jet_order for f in frame.fields())
    if jet is INFINITE:
        return
    maxdeg = max(
        (a.degree() for row in frame.matrix for a in row if not a.is_zero()),
        default=0,
    )
    if jet < cap + maxdeg:
        raise JetOrderError(
            f"jet order {jet} insufficient for cap {cap} with coefficient degree {maxdeg}"
        )


def _words(gens: Sequence[Tuple[str, VectorField]], seeds: Sequence[Tuple[str, object]],
           first: int, cap: int, step: Callable[[VectorField, object, int], object],
           fmt: str) -> Iterator[Tuple[int, str, object]]:
    """Words of length first..cap, lazily, as (length, name, object).

    The seeds are the words of length first.  A word of the next length is
    step(g, w, max_degree), named fmt.format(gname, wname), for each
    generator g (outer) and each nonzero word w of the previous length
    (inner).  A level is built only as far as the caller reads it, so a
    caller that stops at a witness builds no more.

    Truncation: a word of length l > first is built only through degree
    cap - l (step drops the monomials above max_degree).  A bracket or a
    derivative lowers the degree by at most one, so the part of degree <= d
    of [g, w] or g(w) depends only on the part of w of degree <= d + 1: each
    word agrees with its untruncated value through degree cap - l >= 0, at 0
    in particular, which is all the callers read.

    Pruning: a zero word is yielded but not carried into the next level,
    since all its descendants are zero; the enumeration stops at an empty
    level.  The words yielded are the full enumeration, in its order, less
    the descendants of zero words, so the first word with a nonzero value at
    0 is the same.
    """
    if first > cap:
        return
    level = []
    for name, obj in seeds:
        yield first, name, obj
        if not obj.is_zero():
            level.append((name, obj))
    for length in range(first + 1, cap + 1):
        if not level:
            return
        nxt = []
        for gname, g in gens:
            for wname, w in level:
                name, obj = fmt.format(gname, wname), step(g, w, cap - length)
                yield length, name, obj
                if not obj.is_zero():
                    nxt.append((name, obj))
        level = nxt


def _bracket_words(frame: Frame, cap: int) -> Iterator[Tuple[int, str, VectorField]]:
    """Right-nested brackets [g,[...]]; the generators (length 1) are visited for any cap."""
    gens = _generators(frame)
    return _words(gens, gens, 1, max(cap, 1), lie_bracket, "[{},{}]")


def _trace_words(m: Hypersurface, frame: Frame, cap: int) -> Iterator[Tuple[int, str, Poly]]:
    """Generator derivatives g(...(tr)) of the Levi trace, "tr" having length 2."""
    seeds = [("tr", levi_trace(m, frame))]
    return _words(_generators(frame), seeds, 2, cap, VectorField.apply, "{}({})")


def _pairing_at_zero(f: VectorField) -> GaussianRational:
    """<f, d rho>(0) = -f^w(0) on every model.

    Hypersurface fixes the linear part of rho to -w - conj(w), so
    rho_w(0) = -1 and rho_{z_i}(0) = 0; pair_with_drho gives the same value
    by multiplying with the derivatives of rho.  w is the last variable.
    """
    return -f.coeffs[f.ring.nv - 1].constant_term()


def commutator_type(m: Hypersurface, frame: Frame, cap: int) -> TypeReport:
    """Least nested-commutator length whose pairing with d rho is nonzero at 0.

    Enumerates right-nested words over the frame generators and their
    conjugates; length-1 words pair to zero by tangency.  Returns the first
    nonzero length with its word, or ">cap".
    """
    _check_jet(frame, cap)
    for length, name, f in _bracket_words(frame, cap):
        if length > 1 and not _pairing_at_zero(f).is_zero():
            return TypeReport("vector_field", length, cap, name)
    return TypeReport("vector_field", None, cap)


def evaluate_bracket_word(m: Hypersurface, frame: Frame, word: str) -> GaussianRational:
    """Re-evaluate a serialized bracket word: its pairing with d rho at 0.

    Words use the witness syntax, e.g. "[S1b,[S1,S1b]]"; bare generator
    names denote the frame fields and their conjugates.
    """
    gens = dict(_generators(frame))

    def parse(text: str) -> VectorField:
        text = text.strip()
        if not text.startswith("["):
            try:
                return gens[text]
            except KeyError:
                raise PolyError(f"unknown generator {text!r}") from None
        if not text.endswith("]"):
            raise PolyError(f"unbalanced bracket word {text!r}")
        inner = text[1:-1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == "," and depth == 0:
                return lie_bracket(parse(inner[:i]), parse(inner[i + 1:]))
        raise PolyError(f"malformed bracket word {text!r}")

    return pair_with_drho(parse(word), m).constant_term()


def levi_trace(m: Hypersurface, frame: Frame) -> Poly:
    """Sum over the frame of <[S_j, conj S_j], d rho>, a real polynomial."""
    total = m.ring.zero()
    for s in frame.fields():
        total = total + pair_with_drho(lie_bracket(s, s.conj_field()), m)
    if min(f.jet_order for f in frame.fields()) is INFINITE and not total.is_real():
        raise NormalizeError("Levi trace of an exact frame must be real")
    return total


def levi_type(m: Hypersurface, frame: Frame, cap: int) -> TypeReport:
    """Least l such that some (l-2)-fold derivative of the Levi trace is nonzero at 0."""
    _check_jet(frame, cap)
    for length, name, p in _trace_words(m, frame, cap):
        if not p.constant_term().is_zero():
            return TypeReport("levi", length, cap, name)
    return TypeReport("levi", None, cap)


# ---------------------------------------------------------------------------
# weights and truncation

def assign_weights(m: Hypersurface, frame: Frame, a_contact: int) -> WeightSystem:
    """Weights (1, ..., 1, k = l0 + 1, m_weight) for a normalized frame.

    Checks the two structural inequalities k < m_weight and
    m_weight <= a_contact; violations are reported, never patched.
    """
    l0 = l0_of(frame, a_contact)
    k, mw, weights = model_weights(m, l0)
    if k >= mw:
        raise WeightAssignmentError(
            f"weight of z_(n-1) is k = {k} but the model has weighted order {mw}; "
            "k < m must hold"
        )
    if mw > a_contact:
        raise WeightAssignmentError(
            f"weighted order {mw} exceeds the contact order bound {a_contact}"
        )
    return weights


def truncated_model(m: Hypersurface, weights: WeightSystem) -> Hypersurface:
    """Keep -2 Re w plus the weighted-homogeneous part of lowest weight."""
    ring = m.ring
    mw = weights.weights[-1]
    chi_m = m.chi_rigid().weighted_part(mw, weights)
    w, wb = ring.var("w"), ring.conj_var("w")
    return Hypersurface(m.n, -(w + wb) + chi_m)


def truncate_frame(frame: Frame, weights: WeightSystem) -> Frame:
    """The weighted-degree -1 part of each frame field, over the truncated model.

    The matrix keeps the identity block and replaces the last column by its
    weighted-homogeneous part of degree k - 1; building the fields over the
    truncated model reproduces the truncated d/dw coefficients exactly.
    """
    m0 = truncated_model(frame.m, weights)
    ring = m0.ring
    k = weights.weights[-2]
    rows = []
    for j, row in enumerate(frame.matrix):
        new_row = []
        for h in range(ring.nv - 1):
            if h < ring.nv - 2:
                new_row.append(ring.one() if h == j else ring.zero())
            else:
                new_row.append(row[h].weighted_part(k - 1, weights))
        rows.append(new_row)
    return Frame(m0, rows)


# ---------------------------------------------------------------------------
# vanishing checks on truncated data

@dataclass
class VanishingReport:
    passed: bool
    cap: int
    failing_word: str = ""
    failing_value: str = ""

    def to_json_dict(self) -> dict:
        out = {"passed": self.passed, "cap": self.cap}
        if not self.passed:
            out["failing_word"] = self.failing_word
            out["failing_value"] = self.failing_value
        return out


def bracket_pairing_vanishing(m0: Hypersurface, frame0: Frame, cap: int) -> VanishingReport:
    """Check <word, d rho>(0) = 0 for every nested bracket word of length <= cap."""
    for _, name, f in _bracket_words(frame0, cap):
        val = _pairing_at_zero(f)
        if not val.is_zero():
            return VanishingReport(False, cap, name, str(val))
    return VanishingReport(True, cap)


def levi_trace_vanishing(m0: Hypersurface, frame0: Frame, cap: int) -> VanishingReport:
    """Check every (l-2)-fold trace derivative vanishes at 0 for l <= cap."""
    for _, name, p in _trace_words(m0, frame0, cap):
        val = p.constant_term()
        if not val.is_zero():
            return VanishingReport(False, cap, name, str(val))
    return VanishingReport(True, cap)


def bracket_span_dim(frame0: Frame, cap: int) -> int:
    """Real dimension at 0 of the span of Re/Im of bracket words of length <= cap."""
    nv = frame0.m.ring.nv
    half, two_i = gr(Fraction(1, 2)), gr(0, 2)
    vectors: List[List[GaussianRational]] = []
    for _, _, f in _bracket_words(frame0, cap):
        v = f.eval_at_zero()
        # a real field is determined by its unbarred half u: encode Re f and
        # Im f as (Re u_0, Im u_0, ..., Re u_{nv-1}, Im u_{nv-1}); the
        # unbarred half of conj(f) at 0 is the conjugate of f's barred half
        conj_u = [c.conjugate() for c in v[nv:]]
        re = [(a + b) * half for a, b in zip(v, conj_u)]
        im = [(a - b) / two_i for a, b in zip(v, conj_u)]
        for real_field in (re, im):
            row: List[GaussianRational] = []
            for c in real_field:
                row.append(gr(c.re))
                row.append(gr(c.im))
            vectors.append(row)
    return rank(vectors)


# ---------------------------------------------------------------------------
# bundle sweep

@dataclass
class SweepReport:
    vector_field: TypeReport
    levi: TypeReport
    frames_tried: int

    def to_json_dict(self) -> dict:
        return {
            "frames_tried": self.frames_tried,
            "vector_field": self.vector_field.to_json_dict(),
            "levi": self.levi.to_json_dict(),
        }


def _sweep_frames(m: Hypersurface, degree_cap: int,
                  coeff_set: Sequence[GaussianRational]) -> Iterable[Tuple[Frame, str]]:
    """Identity-block frames with free last column over the z variables.

    Row operations by unit function matrices do not change the spanned
    subbundle, so sweeping the reduced family loses no bundles relative to
    enumerating full matrices with the same degree and coefficient budget.
    """
    ring = m.ring
    nz = ring.nv - 1
    mons: List[Tuple[int, ...]] = []
    for d in range(1, degree_cap + 1):
        for combo in itertools.combinations_with_replacement(range(2 * ring.nv), d):
            if any(c in (nz, 2 * ring.nv - 1) for c in combo):
                continue  # no w or conj(w) in sweep coefficients
            key = [0] * (2 * ring.nv)
            for i in combo:
                key[i] += 1
            mons.append(tuple(key))
    mons = sorted(set(mons), key=lambda k: (sum(k), k))
    s = m.n - 2
    per_entry = list(itertools.product(coeff_set, repeat=len(mons)))
    for columns in itertools.product(per_entry, repeat=s):
        rows = []
        desc = []
        for j in range(s):
            row = [ring.one() if h == j else ring.zero() for h in range(ring.nv - 1)]
            last = ring.zero()
            for key, c in zip(mons, columns[j]):
                if not c.is_zero():
                    last = last + ring.monomial(key, c)
            row[-1] = last
            rows.append(row)
            desc.append(str(last))
        yield Frame(m, rows), "[" + "; ".join(desc) + "]"


def type_sweep(
    m: Hypersurface,
    s: int,
    frame_degree_cap: int,
    coeff_set: Sequence[GaussianRational],
    cap: int,
) -> SweepReport:
    """Max commutator and Levi types over the enumerated frame family.

    A frame reporting ">cap" dominates every finite value; the certified
    lower bounds for the two suprema are the maxima found, with witnesses.
    """
    if s != m.n - 2:
        raise PolyError("the sweep enumerates (n-2)-dimensional subbundles")
    best_t = TypeReport("vector_field", 0, cap)
    best_c = TypeReport("levi", 0, cap)
    count = 0
    for frame, desc in _sweep_frames(m, frame_degree_cap, coeff_set):
        count += 1
        t = commutator_type(m, frame, cap)
        c = levi_type(m, frame, cap)
        if _report_beats(t, best_t):
            best_t = TypeReport("vector_field", t.value, cap, f"{desc} via {t.witness}")
        if _report_beats(c, best_c):
            best_c = TypeReport("levi", c.value, cap, f"{desc} via {c.witness}")
    return SweepReport(best_t, best_c, count)


def _report_beats(new: TypeReport, old: TypeReport) -> bool:
    if new.value is None:
        return old.value is not None
    if old.value is None:
        return False
    return new.value > old.value
