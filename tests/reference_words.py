"""Slow reference for the word engine in crtypes.invariants.

These are the five enumeration loops the package used before its bracket
and trace-derivative words came from one lazy generator: each loop builds
every level in full, in the same order (generator outer, previous-level word
inner).  They are kept unchanged, apart from the jet order no longer being
stored on TypeReport, so that the engine can be checked against them on
value, witness, failing word and span dimension.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from crtypes.gaussian import GaussianRational, gr
from crtypes.invariants import (
    TypeReport,
    VanishingReport,
    _check_jet,
    _generators,
    levi_trace,
)
from crtypes.linalg import rank
from crtypes.normalize import Frame
from crtypes.poly import Poly
from crtypes.vfield import Hypersurface, VectorField, lie_bracket, pair_with_drho


def commutator_type(m: Hypersurface, frame: Frame, cap: int) -> TypeReport:
    _check_jet(frame, cap)
    gens = _generators(frame)
    level: List[Tuple[str, VectorField]] = list(gens)
    for length in range(2, cap + 1):
        nxt = []
        for gname, g in gens:
            for wname, wfield in level:
                bracket = lie_bracket(g, wfield)
                name = f"[{gname},{wname}]"
                nxt.append((name, bracket))
                if not pair_with_drho(bracket, m).constant_term().is_zero():
                    return TypeReport("vector_field", length, cap, name)
        level = nxt
    return TypeReport("vector_field", None, cap, "")


def levi_type(m: Hypersurface, frame: Frame, cap: int) -> TypeReport:
    _check_jet(frame, cap)
    gens = _generators(frame)
    trace = levi_trace(m, frame)
    level: List[Tuple[str, Poly]] = [("tr", trace)]
    for length in range(2, cap + 1):
        for name, p in level:
            if not p.constant_term().is_zero():
                return TypeReport("levi", length, cap, name)
        level = [
            (f"{gname}({wname})", g.apply(p))
            for gname, g in gens
            for wname, p in level
        ]
    return TypeReport("levi", None, cap, "")


def bracket_pairing_vanishing(m0: Hypersurface, frame0: Frame, cap: int) -> VanishingReport:
    gens = _generators(frame0)
    level = list(gens)
    for name, f in level:
        val = pair_with_drho(f, m0).constant_term()
        if not val.is_zero():
            return VanishingReport(False, cap, name, str(val))
    for length in range(2, cap + 1):
        nxt = []
        for gname, g in gens:
            for wname, wfield in level:
                bracket = lie_bracket(g, wfield)
                name = f"[{gname},{wname}]"
                nxt.append((name, bracket))
                val = pair_with_drho(bracket, m0).constant_term()
                if not val.is_zero():
                    return VanishingReport(False, cap, name, str(val))
        level = nxt
    return VanishingReport(True, cap)


def levi_trace_vanishing(m0: Hypersurface, frame0: Frame, cap: int) -> VanishingReport:
    gens = _generators(frame0)
    trace = levi_trace(m0, frame0)
    level: List[Tuple[str, Poly]] = [("tr", trace)]
    for length in range(2, cap + 1):
        for name, p in level:
            val = p.constant_term()
            if not val.is_zero():
                return VanishingReport(False, cap, name, str(val))
        level = [
            (f"{gname}({wname})", g.apply(p))
            for gname, g in gens
            for wname, p in level
        ]
    return VanishingReport(True, cap)


def bracket_span_dim(frame0: Frame, cap: int) -> int:
    ring = frame0.m.ring
    nv = ring.nv
    gens = _generators(frame0)
    vectors: List[List[GaussianRational]] = []

    def add_field(f: VectorField):
        v = f.eval_at_zero()
        conj_v = f.conj_field().eval_at_zero()
        re = [(a + b) * gr(Fraction(1, 2)) for a, b in zip(v, conj_v)]
        im = [(a - b) / gr(0, 2) for a, b in zip(v, conj_v)]
        for real_field in (re, im):
            row: List[GaussianRational] = []
            for i in range(nv):
                row.append(gr(real_field[i].re))
                row.append(gr(real_field[i].im))
            vectors.append(row)

    level = list(gens)
    for _, f in level:
        add_field(f)
    for length in range(2, cap + 1):
        nxt = []
        for gname, g in gens:
            for wname, wfield in level:
                bracket = lie_bracket(g, wfield)
                nxt.append((f"[{gname},{wname}]", bracket))
                add_field(bracket)
        level = nxt
    return rank(vectors)
