"""Sparse multivariate polynomials over Gaussian rationals.

A ring declares unbarred variables (for hypersurface work: z1..z_{n-1}, w);
each variable has a formal conjugate.  A monomial exponent vector has one
slot per unbarred variable followed by one slot per barred variable, so a
ring with nv variables uses exponent tuples of length 2*nv.

Conjugation, reality and holomorphicity are structural predicates on this
representation, never numeric ones.  All values are immutable after
construction and every operation is pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .gaussian import GaussianRational, ONE, ZERO, gr

Exponents = Tuple[int, ...]
VarLike = Union[int, str]

INFINITE = math.inf

_HALF = gr(Fraction(1, 2))


class PolyError(ValueError):
    """Raised on malformed polynomial operations (ring mismatch, bad variable)."""


class PolyRing:
    """A set of named unbarred variables together with their formal conjugates."""

    __slots__ = ("names", "nv")

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        self.nv = len(self.names)
        if len(set(self.names)) != self.nv:
            raise PolyError(f"duplicate variable names: {self.names}")

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"PolyRing({self.names})"

    def index(self, v: VarLike) -> int:
        """Index of an unbarred variable given by name or index."""
        if isinstance(v, int):
            if not 0 <= v < self.nv:
                raise PolyError(f"variable index {v} out of range for {self}")
            return v
        try:
            return self.names.index(v)
        except ValueError:
            raise PolyError(f"unknown variable {v!r} in {self}") from None

    def zero(self) -> "Poly":
        return Poly(self, {})

    def const(self, c) -> "Poly":
        c = _as_gr(c)
        if c.is_zero():
            return self.zero()
        return Poly(self, {(0,) * (2 * self.nv): c})

    def one(self) -> "Poly":
        return self.const(1)

    def var(self, v: VarLike) -> "Poly":
        i = self.index(v)
        key = [0] * (2 * self.nv)
        key[i] = 1
        return Poly(self, {tuple(key): ONE})

    def conj_var(self, v: VarLike) -> "Poly":
        i = self.index(v)
        key = [0] * (2 * self.nv)
        key[self.nv + i] = 1
        return Poly(self, {tuple(key): ONE})

    def monomial(self, exponents: Sequence[int], coeff=1) -> "Poly":
        key = tuple(exponents)
        if len(key) != 2 * self.nv:
            raise PolyError(f"exponent vector of length {len(key)}, expected {2 * self.nv}")
        c = _as_gr(coeff)
        if c.is_zero():
            return self.zero()
        return Poly(self, {key: c})

    def slot_name(self, slot: int) -> str:
        if slot < self.nv:
            return self.names[slot]
        return f"conj({self.names[slot - self.nv]})"


def hypersurface_ring(n: int) -> PolyRing:
    """The ring for models in complex dimension n: z1..z_{n-1} plus w."""
    if n < 2:
        raise PolyError(f"dimension must be at least 2, got {n}")
    return PolyRing([f"z{i}" for i in range(1, n)] + ["w"])


def parameter_ring(s: int) -> PolyRing:
    """Ring of curve/immersion parameters t1..ts (printed as t when s == 1)."""
    if s == 1:
        return PolyRing(["t"])
    return PolyRing([f"t{j}" for j in range(1, s + 1)])


def _as_gr(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return gr(c)
    raise PolyError(f"cannot coerce {c!r} to GaussianRational")


def _add_into(out: Dict[Exponents, GaussianRational],
              terms: Mapping[Exponents, GaussianRational]) -> None:
    """Add terms into out in place, dropping monomials that cancel."""
    for k, c in terms.items():
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = s + c
            if s.is_zero():
                del out[k]
            else:
                out[k] = s


class Poly:
    """Immutable sparse polynomial: map from exponent vectors to nonzero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Dict[Exponents, GaussianRational]):
        self.ring = ring
        self.terms = terms  # owned; never mutated after construction

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def _make(ring: PolyRing, terms: Dict[Exponents, GaussianRational]) -> "Poly":
        return Poly(ring, {k: c for k, c in terms.items() if not c.is_zero()})

    # -- ring arithmetic ----------------------------------------------------

    def _check_ring(self, other: "Poly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise PolyError(f"ring mismatch: {self.ring} vs {other.ring}")

    @staticmethod
    def sum(ring: PolyRing, polys: Iterable["Poly"]) -> "Poly":
        """Sum accumulated in one dict: linear in the total number of terms."""
        out: Dict[Exponents, GaussianRational] = {}
        for p in polys:
            _add_into(out, p.terms)
        return Poly(ring, out)

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        out = dict(self.terms)
        _add_into(out, other.terms)
        return Poly(self.ring, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = -c
            else:
                s = s - c
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        out: Dict[Exponents, GaussianRational] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = tuple(map(add, k1, k2))
                c = c1 * c2
                s = out.get(k)
                if s is None:
                    out[k] = c
                else:
                    s = s + c
                    if s.is_zero():
                        del out[k]
                    else:
                        out[k] = s
        return Poly(self.ring, out)

    def mul_truncated(self, other: "Poly", max_degree: int) -> "Poly":
        """Product with all monomials of total degree > max_degree dropped."""
        self._check_ring(other)
        out: Dict[Exponents, GaussianRational] = {}
        right = [(k, sum(k), c) for k, c in other.terms.items()]
        for k1, c1 in self.terms.items():
            d1 = sum(k1)
            for k2, d2, c2 in right:
                if d1 + d2 > max_degree:
                    continue
                k = tuple(map(add, k1, k2))
                c = c1 * c2
                s = out.get(k)
                if s is None:
                    out[k] = c
                else:
                    s = s + c
                    if s.is_zero():
                        del out[k]
                    else:
                        out[k] = s
        return Poly(self.ring, out)

    def scale(self, c) -> "Poly":
        c = _as_gr(c)
        if c.is_zero():
            return self.ring.zero()
        return Poly(self.ring, {k: c * v for k, v in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise PolyError("negative polynomial powers are not defined")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            if k > 1:
                base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- conjugation and structure -------------------------------------------

    def conj(self) -> "Poly":
        """Formal conjugate: swap barred/unbarred exponents, conjugate coefficients."""
        nv = self.ring.nv
        out = {}
        for k, c in self.terms.items():
            out[k[nv:] + k[:nv]] = c.conjugate()
        return Poly(self.ring, out)

    def is_real(self) -> bool:
        return self.conj() == self

    def real_part(self) -> "Poly":
        return (self + self.conj()).scale(_HALF)

    def holomorphic_part(self) -> "Poly":
        """Monomials free of every barred variable (constants included)."""
        nv = self.ring.nv
        return Poly(self.ring, {k: c for k, c in self.terms.items() if not any(k[nv:])})

    def antiholomorphic_part(self) -> "Poly":
        nv = self.ring.nv
        return Poly(self.ring, {k: c for k, c in self.terms.items() if not any(k[:nv])})

    def barred_part(self) -> "Poly":
        """Monomials containing at least one barred variable."""
        nv = self.ring.nv
        return Poly(self.ring, {k: c for k, c in self.terms.items() if any(k[nv:])})

    def involves_slot(self, slot: int) -> bool:
        return any(k[slot] for k in self.terms)

    def involves(self, v: VarLike, conjugate: bool = False) -> bool:
        i = self.ring.index(v)
        return self.involves_slot(i + self.ring.nv if conjugate else i)

    # -- calculus ---------------------------------------------------------

    def _d_slot(self, slot: int) -> "Poly":
        # lowering one exponent maps distinct monomials to distinct ones, and
        # e * c is nonzero, so terms neither collide nor cancel
        out = {}
        for k, c in self.terms.items():
            e = k[slot]
            if e:
                out[k[:slot] + (e - 1,) + k[slot + 1:]] = c if e == 1 else c * gr(e)
        return Poly(self.ring, out)

    def _integrate_slot(self, slot: int) -> "Poly":
        """Term-wise antiderivative in one slot: _d_slot undoes it."""
        out = {}
        for k, c in self.terms.items():
            e = k[slot]
            out[k[:slot] + (e + 1,) + k[slot + 1:]] = c / gr(e + 1)
        return Poly(self.ring, out)

    def dz(self, v: VarLike) -> "Poly":
        """Formal Wirtinger derivative with respect to an unbarred variable."""
        return self._d_slot(self.ring.index(v))

    def dzbar(self, v: VarLike) -> "Poly":
        """Formal Wirtinger derivative with respect to a barred variable."""
        return self._d_slot(self.ring.index(v) + self.ring.nv)

    # -- graded parts -------------------------------------------------------

    def hom_part(self, d: int) -> "Poly":
        """Sum of monomials of ordinary total degree d."""
        return Poly(self.ring, {k: c for k, c in self.terms.items() if sum(k) == d})

    def degree(self) -> int:
        """Ordinary total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def vanishing_order(self):
        """Least total degree of a monomial; INFINITE for the zero polynomial."""
        if not self.terms:
            return INFINITE
        return min(sum(k) for k in self.terms)

    def weighted_part(self, sigma: int, weights: "WeightSystem") -> "Poly":
        return Poly(
            self.ring,
            {k: c for k, c in self.terms.items() if weights.weighted_degree(k) == sigma},
        )

    def weighted_vanishing_order(self, weights: "WeightSystem"):
        if not self.terms:
            return INFINITE
        return min(weights.weighted_degree(k) for k in self.terms)

    def weighted_degree(self, weights: "WeightSystem"):
        if not self.terms:
            return -INFINITE
        return max(weights.weighted_degree(k) for k in self.terms)

    def is_weighted_homogeneous(self, sigma: int, weights: "WeightSystem") -> bool:
        return all(weights.weighted_degree(k) == sigma for k in self.terms)

    # -- restriction, substitution, evaluation --------------------------------

    def set_zero(self, variables: Iterable[VarLike], bars: str = "both") -> "Poly":
        """Set the given variables to zero.

        bars: "both" kills the variable and its conjugate, "only" just the
        conjugate, "none" just the unbarred variable.
        """
        nv = self.ring.nv
        slots = set()
        for v in variables:
            i = self.ring.index(v)
            if bars in ("both", "none"):
                slots.add(i)
            if bars in ("both", "only"):
                slots.add(i + nv)
        if not slots:
            return self
        return Poly(
            self.ring,
            {k: c for k, c in self.terms.items() if not any(k[s] for s in slots)},
        )

    def coeff(self, exponents: Sequence[int]) -> GaussianRational:
        return self.terms.get(tuple(exponents), ZERO)

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * (2 * self.ring.nv), ZERO)

    def substitute(self, mapping: Mapping[VarLike, "Poly"]) -> "Poly":
        """Exact composition.

        mapping sends unbarred variables to polynomials in a common target
        ring; barred variables are rewritten to the conjugates of the images.
        Variables absent from the mapping are sent to themselves, which
        requires target ring == source ring.  A barred key such as
        "conj(z1)" may be supplied only if its image equals the conjugate of
        the unbarred image (checked); anything else breaks conjugation
        symmetry and raises PolyError.
        """
        images, target = self._resolve_images(mapping)
        if not self.terms:
            return target.zero()
        power_cache: Dict[Tuple[int, int], Poly] = {}

        def power(slot: int, e: int) -> Poly:
            got = power_cache.get((slot, e))
            if got is None:
                base = images[slot]
                got = base ** e
                power_cache[(slot, e)] = got
            return got

        factors = []
        for k, c in self.terms.items():
            factor = target.const(c)
            for slot, e in enumerate(k):
                if e:
                    factor = factor * power(slot, e)
            factors.append(factor)
        return Poly.sum(target, factors)

    def _resolve_images(self, mapping: Mapping[VarLike, "Poly"]):
        nv = self.ring.nv
        unbarred: Dict[int, Poly] = {}
        barred_given: Dict[int, Poly] = {}
        for key, img in mapping.items():
            if isinstance(key, str) and key.startswith("conj(") and key.endswith(")"):
                barred_given[self.ring.index(key[5:-1])] = img
            else:
                unbarred[self.ring.index(key)] = img
        target = None
        for img in list(unbarred.values()) + list(barred_given.values()):
            if target is None:
                target = img.ring
            elif img.ring != target:
                raise PolyError("substitution images live in different rings")
        if target is None:
            target = self.ring
        for i, img in barred_given.items():
            expected = unbarred[i].conj() if i in unbarred else target.conj_var(
                target.index(self.ring.names[i])
            )
            if img != expected:
                raise PolyError(
                    f"barred image of {self.ring.names[i]} breaks conjugation symmetry"
                )
        images: list = [None] * (2 * nv)
        for i in range(nv):
            if i in unbarred:
                images[i] = unbarred[i]
                images[nv + i] = unbarred[i].conj()
            else:
                if target != self.ring:
                    raise PolyError(
                        f"variable {self.ring.names[i]} has no image in the target ring"
                    )
                images[i] = target.var(i)
                images[nv + i] = target.conj_var(i)
        return images, target

    def eval(self, point: Sequence[GaussianRational]) -> GaussianRational:
        """Exact evaluation; barred slots take the conjugates of the point."""
        nv = self.ring.nv
        if len(point) != nv:
            raise PolyError(f"point has {len(point)} coordinates, expected {nv}")
        vals = [_as_gr(c) for c in point]
        vals += [v.conjugate() for v in vals]
        total = ZERO
        for k, c in self.terms.items():
            term = c
            for slot, e in enumerate(k):
                if e:
                    term = term * (vals[slot] ** e)
            total = total + term
        return total

    # -- printing ------------------------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lexicographic order of exponent vectors."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self) -> str:
        from .grammar import poly_to_string

        return poly_to_string(self)

    def __repr__(self) -> str:
        return f"Poly<{self}>"


class WeightSystem:
    """Positive integer weights per unbarred variable; conjugates inherit them."""

    __slots__ = ("ring", "weights")

    def __init__(self, ring: PolyRing, weights: Sequence[int]):
        if len(weights) != ring.nv:
            raise PolyError(f"{len(weights)} weights for {ring.nv} variables")
        if any(w < 1 or w != int(w) for w in weights):
            raise PolyError(f"weights must be positive integers: {weights}")
        self.ring = ring
        self.weights = tuple(int(w) for w in weights)

    def weight(self, v: VarLike) -> int:
        return self.weights[self.ring.index(v)]

    def weighted_degree(self, exponents: Exponents) -> int:
        nv = self.ring.nv
        return sum(
            e * self.weights[i % nv] for i, e in enumerate(exponents) if e
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightSystem)
            and self.ring == other.ring
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        return f"WeightSystem({self.weights})"
