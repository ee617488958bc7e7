"""Slow reference for crtypes.invariants.contact_search.

This is the search as it was before each expanded node composed rho once
and screened its children by the linear part -w - conj(w): it composes rho
again for every child, and substitutes the full immersion into rho for every
child that survives to the degree cap.  It is kept unchanged so that the
search can be checked against it on value, cap and witness.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from crtypes.gaussian import GaussianRational
from crtypes.invariants import (
    HoloImmersion,
    TypeReport,
    _compose_truncated,
    _monomials,
    order_of_contact,
)
from crtypes.poly import INFINITE, Poly, PolyError, parameter_ring
from crtypes.vfield import Hypersurface


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
    """
    if not 1 <= s <= m.n - 1:
        raise PolyError(f"submanifold dimension {s} out of range for n = {m.n}")
    if not coeff_set:
        raise PolyError("empty coefficient set")
    n_comp = m.ring.nv
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

    def visit(level: int, comps: List[Poly], pinned: Sequence[int]):
        trunc = _compose_truncated(rho, comps, param, level)
        order = trunc.vanishing_order()
        if order <= level:
            record(order, comps)
            return
        if level == degree_cap:
            mapping = {i: comps[i] for i in range(n_comp)}
            full = rho.substitute(mapping)
            record(full.vanishing_order(), comps)
            return
        nxt = level + 1
        slots = [(ci, key) for ci in range(n_comp) for key in mons[nxt]]
        for assignment in itertools.product(coeff_set, repeat=len(slots)):
            extended = list(comps)
            for (ci, key), c in zip(slots, assignment):
                if not c.is_zero():
                    extended[ci] = extended[ci] + param.monomial(key, c)
            visit(nxt, extended, pinned)

    for pinned in itertools.combinations(range(n_comp), s):
        base = [param.zero()] * n_comp
        for j, ci in enumerate(pinned):
            base[ci] = param.var(j)
        free = [ci for ci in range(n_comp) if ci not in pinned]
        slots = [(ci, key) for ci in free for key in mons[1]]
        for assignment in itertools.product(coeff_set, repeat=len(slots)):
            comps = list(base)
            for (ci, key), c in zip(slots, assignment):
                if not c.is_zero():
                    comps[ci] = comps[ci] + param.monomial(key, c)
            visit(1, comps, pinned)

    if best[0] is INFINITE:
        witness = "(" + ",".join(str(c) for c in best[1]) + ")"
        return TypeReport("contact", None, max_finite_order, witness)
    witness = "(" + ",".join(str(c) for c in best[1]) + ")" if best[1] else ""
    if best[1] is not None:
        # the reported value must be reproduced by its witness
        if order_of_contact(m, HoloImmersion(list(best[1]))) != best[0]:
            raise PolyError("contact witness failed re-evaluation")
    return TypeReport("contact", int(best[0]), max_finite_order, witness)
