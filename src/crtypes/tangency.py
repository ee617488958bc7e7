"""Layered solver and property harness for the tangency equation.

The equation f_{z1bar} + conj(A) f_{z2bar} = 0 is solved over weighted
homogeneous polynomials (weights 1 and k on z1 and z2) by descending
z2-degree layers: the top layer is free of z1bar, and each lower layer is
the z1bar-antiderivative of the transported layer above plus a free
z1bar-free complement.  The harness then enumerates small problems and
checks the contrapositive of the uniqueness statement: an admissible
solution with nonzero real part and no holomorphic terms must fail the
plurisubharmonicity grid somewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .gaussian import GaussianRational
from .poly import Poly, PolyRing, WeightSystem
from .psh import default_grid, sampled_psh

TANGENCY_RING = PolyRing(["z1", "z2"])


class TangencyError(ValueError):
    """Malformed tangency problem or solver failure."""


def _check_z1_only(p: Poly) -> None:
    if p.involves(1) or p.involves(1, conjugate=True):
        raise TangencyError("polynomial must involve z1 and z1bar only")


def antiderivative_zbar1(p: Poly) -> Poly:
    """Term-wise z1bar-antiderivative of a (z1, z1bar)-polynomial."""
    _check_z1_only(p)
    return p._integrate_slot(p.ring.nv)


def dilate(p: Poly, delta: GaussianRational) -> Poly:
    """Substitute z2 -> delta * z2 (and conjugate), exactly."""
    if delta.is_zero():
        raise TangencyError("dilation parameter must be nonzero")
    ring = p.ring
    return p.substitute({1: ring.var(1).scale(delta)})


@dataclass
class TangencyProblem:
    """Coefficient data: the equation is f_{z1bar} + conj(A) f_{z2bar} = 0.

    A is homogeneous of ordinary degree k-1 in (z1, z1bar) with every
    monomial containing z1bar; z2 carries weight k > 1 and solutions have
    weighted degree m > k.
    """

    a: Poly
    k: int
    m: int

    def __post_init__(self):
        if self.k <= 1:
            raise TangencyError(f"weight k must exceed 1, got {self.k}")
        if self.m <= self.k:
            raise TangencyError(f"weighted degree m = {self.m} must exceed k = {self.k}")
        if self.a.is_zero():
            raise TangencyError("coefficient A must be nonzero")
        _check_z1_only(self.a)
        nv = self.a.ring.nv
        for key in self.a.terms:
            if sum(key) != self.k - 1:
                raise TangencyError(f"A must be homogeneous of degree {self.k - 1}")
            if key[nv] == 0:
                raise TangencyError("A must have no holomorphic (pure z1) terms")

    @property
    def ring(self) -> PolyRing:
        return self.a.ring

    def weights(self) -> WeightSystem:
        return WeightSystem(self.ring, [1, self.k])

    def dilated(self, delta: GaussianRational) -> "TangencyProblem":
        """The transported problem: A picks up 1/delta, solutions dilate."""
        if delta.is_zero():
            raise TangencyError("dilation parameter must be nonzero")
        return TangencyProblem(self.a.scale(delta.inverse()), self.k, self.m)


def residual(problem: TangencyProblem, f: Poly) -> Poly:
    """f_{z1bar} + conj(A) f_{z2bar}; identically zero exactly on solutions."""
    return f.dzbar(0) + problem.a.conj() * f.dzbar(1)


def z2_layer(f: Poly, j: int) -> Poly:
    """Monomials whose combined z2 and z2bar degree is exactly j."""
    ring = f.ring
    nv = ring.nv
    return Poly(
        ring, {k: c for k, c in f.terms.items() if k[1] + k[nv + 1] == j}
    )


@dataclass
class BasisSolution:
    layer: int                  # z2-degree of the free complement
    monomial: Tuple[int, int]   # (z2, z2bar) exponents of the complement
    poly: Poly

    def label(self) -> str:
        t, s = self.monomial
        return f"layer {self.layer}: z2^{t} z2bar^{s}"


@dataclass
class SolutionFamily:
    problem: TangencyProblem
    basis: List[BasisSolution]

    def spanned(self, coeffs: Sequence[GaussianRational]) -> Poly:
        if len(coeffs) != len(self.basis):
            raise TangencyError(f"{len(self.basis)} coefficients expected")
        out = self.problem.ring.zero()
        for c, b in zip(coeffs, self.basis):
            if not c.is_zero():
                out = out + b.poly.scale(c)
        return out

    def to_json_dict(self) -> dict:
        return {
            "k": self.problem.k,
            "m": self.problem.m,
            "A": str(self.problem.a),
            "dimension": len(self.basis),
            "basis": [
                {"free_layer": b.label(), "solution": str(b.poly)} for b in self.basis
            ],
        }


def solution_space(problem: TangencyProblem) -> SolutionFamily:
    """Basis of the solution space, one element per free layer monomial.

    The element with free data z2^t z2bar^s at layer j = t+s starts from
    z1^(m-kj) z2^t z2bar^s and descends: each lower layer is minus the
    z1bar-antiderivative of conj(A) times the z2bar-derivative of the layer
    above.  Every emitted solution has residual zero and weighted degree m
    (both checked).
    """
    ring = problem.ring
    k, m = problem.k, problem.m
    a_bar = problem.a.conj()
    m0 = m // k
    weights = problem.weights()
    basis: List[BasisSolution] = []
    for j in range(m0, -1, -1):
        power = m - k * j
        for t in range(j, -1, -1):
            s = j - t
            key = (power, t, 0, s)
            top = ring.monomial(key, 1)
            layers = [top]
            for _ in range(j):
                # ring.nv is the z1bar slot
                nxt = -(a_bar * layers[-1].dzbar(1))._integrate_slot(ring.nv)
                layers.append(nxt)
                if nxt.is_zero():
                    break
            f = ring.zero()
            for layer in layers:
                f = f + layer
            if not residual(problem, f).is_zero():
                raise TangencyError("layer recursion produced a non-solution")
            if not f.is_weighted_homogeneous(m, weights):
                raise TangencyError("basis element is not weighted homogeneous")
            basis.append(BasisSolution(j, (t, s), f))
    if not basis:
        raise TangencyError("no admissible layers for this problem")
    return SolutionFamily(problem, basis)


# ---------------------------------------------------------------------------
# the contrapositive harness

@dataclass
class SurvivorRecord:
    a: str
    f: str
    densifications: int

    def to_json_dict(self) -> dict:
        return {"A": self.a, "f": self.f, "densifications": self.densifications}


@dataclass
class HarnessVerdict:
    k: int
    m: int
    refuted: int = 0
    trivial_real_part: int = 0
    holomorphic_skipped: int = 0
    survivors: List[SurvivorRecord] = field(default_factory=list)
    max_densification: int = 0
    problems: int = 0

    @property
    def consistent(self) -> bool:
        return not self.survivors

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "verdict": "consistent" if self.consistent else "survivors-found",
            "problems": self.problems,
            "refuted": self.refuted,
            "trivial_real_part": self.trivial_real_part,
            "holomorphic_skipped": self.holomorphic_skipped,
            "max_densification": self.max_densification,
            "survivors": [s.to_json_dict() for s in self.survivors],
        }


def enumerate_coefficients(problem_k: int, coeff_set) -> List[Poly]:
    """All admissible A of degree k-1 with coefficients from the set."""
    ring = TANGENCY_RING
    keys = []
    for s in range(1, problem_k):
        h = problem_k - 1 - s
        keys.append((h, 0, s, 0))
    out = []
    for combo in itertools.product(coeff_set, repeat=len(keys)):
        a = ring.zero()
        for key, c in zip(keys, combo):
            if not c.is_zero():
                a = a + ring.monomial(key, c)
        if not a.is_zero():
            out.append(a)
    return out


def theorem_harness(
    k: int,
    m: int,
    coeff_set: Sequence[GaussianRational],
    grid_level: int = 0,
    densify_limit: int = 3,
) -> HarnessVerdict:
    """Check the uniqueness statement's contrapositive at desk scale.

    For every enumerated problem and every coefficient combination of its
    solution basis: a solution whose real part is nonzero and free of
    holomorphic terms must fail the plurisubharmonicity grid.  Survivors are
    re-tested on up to densify_limit denser grids and then reported for
    manual analysis; a verdict with no survivors is consistent with the
    uniqueness statement.
    """
    verdict = HarnessVerdict(k=k, m=m)
    base_grid = default_grid(TANGENCY_RING, grid_level)
    denser = {}
    for a in enumerate_coefficients(k, coeff_set):
        problem = TangencyProblem(a, k, m)
        family = solution_space(problem)
        verdict.problems += 1
        d = len(family.basis)
        for combo in itertools.product(coeff_set, repeat=d):
            if all(c.is_zero() for c in combo):
                continue
            f = family.spanned(combo)
            re_f = f.real_part()
            if re_f.is_zero():
                verdict.trivial_real_part += 1
                continue
            if not re_f.holomorphic_part().is_zero():
                verdict.holomorphic_skipped += 1
                continue
            if not sampled_psh(re_f, base_grid).passed:
                verdict.refuted += 1
                continue
            for level in range(1, densify_limit + 1):
                if level not in denser:
                    denser[level] = default_grid(TANGENCY_RING, grid_level + level)
                if not sampled_psh(re_f, denser[level]).passed:
                    verdict.refuted += 1
                    verdict.max_densification = max(verdict.max_densification, level)
                    break
            else:
                verdict.survivors.append(
                    SurvivorRecord(str(a), str(f), densify_limit)
                )
    return verdict
