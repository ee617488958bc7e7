"""Command-line front end.

Reads JSON model files (or shipped fixture names), dispatches to the
computation modules and emits deterministic reports.  Exit codes: 0 on
success, 1 on malformed input, 2 on structured mathematical errors such as
a weight-hypothesis violation or an exhausted slide trial set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .gaussian import GaussianRational
from .grammar import PolyParseError, parse_poly
from .invariants import (
    JetOrderError,
    WeightAssignmentError,
    assign_weights,
    bracket_pairing_vanishing,
    bracket_span_dim,
    commutator_type,
    contact_search,
    levi_trace_vanishing,
    levi_type,
    truncate_frame,
    truncated_model,
    type_sweep,
)
from .normalize import (
    DEFAULT_TRIAL_SET,
    Frame,
    NormalizeError,
    kill_holomorphic_terms,
    normalize_full,
    pushforward_frame,
)
from .poly import PolyError, PolyRing, hypersurface_ring
from .psh import default_grid, sampled_psh
from .tangency import (
    TANGENCY_RING,
    TangencyError,
    TangencyProblem,
    solution_space,
    theorem_harness,
)
from .vfield import Hypersurface, HypersurfaceError
from . import fixtures as fixture_corpus

MATH_ERRORS = (
    NormalizeError,
    WeightAssignmentError,
    JetOrderError,
    TangencyError,
    HypersurfaceError,
)
INPUT_ERRORS = (PolyParseError, PolyError, KeyError, ValueError, json.JSONDecodeError)

_SCALAR_RING = PolyRing(["x"])


def parse_scalar(text: str) -> GaussianRational:
    """Parse a Gaussian-rational literal such as 1, -1/2, 1i or (1-2i)."""
    p = parse_poly(_SCALAR_RING, str(text))
    if p.degree() > 0:
        raise PolyParseError(f"{text!r} is not a scalar", 1, 1)
    return p.constant_term()


DEFAULT_CAPS = {
    "bracket_cap": 8,
    "degree_cap": 3,
    "coeff_set": ["0", "1", "-1", "1i", "-1i"],
    "grid_scale": 1,
}


@dataclass
class Model:
    name: str
    m: Hypersurface
    frame: Optional[Frame]
    a_contact: Optional[int]
    caps: dict
    trial_set: Optional[List[GaussianRational]]
    sign_flipped: bool

    def coeff_set(self) -> List[GaussianRational]:
        return [parse_scalar(c) for c in self.caps["coeff_set"]]

    def default_frame(self) -> Frame:
        if self.frame is not None:
            return self.frame
        return Frame.coordinate(self.m)

    def notes(self) -> List[str]:
        out = []
        if self.sign_flipped:
            out.append("leading +2*Re(w) flipped to the -2*Re(w) convention via w -> -w")
        return out


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


# model file fields checked before use: (key, expected kind, test); the last
# three may be null, and absent fields are left to the code that reads them
_FIELD_TYPES = (
    ("n", "an integer", lambda v: type(v) is int),
    ("rho", "a string", lambda v: isinstance(v, str)),
    ("frame", "a list of lists of strings",
     lambda v: v is None or isinstance(v, list) and all(_is_str_list(row) for row in v)),
    ("trial_set", "a list of strings", lambda v: v is None or _is_str_list(v)),
    ("a_contact", "an integer", lambda v: v is None or type(v) is int),
)


def load_model(spec: str) -> Model:
    """Load a model from a JSON file path or a shipped fixture name."""
    if os.path.exists(spec):
        with open(spec) as fh:
            data = json.load(fh)
        name = os.path.basename(spec)
    else:
        data = fixture_corpus.fixture_by_name(spec)
        name = data["name"]
    if not isinstance(data, dict):
        raise PolyError(f"{name}: a model file must hold a JSON object")
    if data.get("kind") == "tangency":
        raise PolyError(f"{name} is a tangency fixture; use the tangency subcommands")
    for key, kind, ok in _FIELD_TYPES:
        if key in data and not ok(data[key]):
            raise PolyError(f"{name}: {key} must be {kind}, got {data[key]!r}")
    n = data["n"]
    ring = hypersurface_ring(n)
    rho = parse_poly(ring, data["rho"])
    m, flipped = Hypersurface.from_rho(n, rho)
    frame = None
    if "frame" in data and data["frame"] is not None:
        rows = [[parse_poly(ring, a) for a in row] for row in data["frame"]]
        frame = Frame(m, rows)
    file_caps = data.get("caps", {})
    if not isinstance(file_caps, dict):
        raise PolyError(f"{name}: caps must be a JSON object")
    caps = dict(DEFAULT_CAPS)
    caps.update(file_caps)
    if not _is_str_list(caps["coeff_set"]):
        raise PolyError(f"{name}: caps.coeff_set must be a list of strings, "
                        f"got {caps['coeff_set']!r}")
    trial = None
    if "trial_set" in data and data["trial_set"] is not None:
        trial = [parse_scalar(c) for c in data["trial_set"]]
    return Model(
        name=name,
        m=m,
        frame=frame,
        a_contact=data.get("a_contact"),
        caps=caps,
        trial_set=trial,
        sign_flipped=flipped,
    )


def _cap(flag: Optional[int], model: Model, key: str) -> int:
    """The cap given on the command line, else the model's; below 1 is an input error."""
    cap = flag if flag is not None else model.caps[key]
    if type(cap) is not int or cap < 1:
        raise PolyError(f"{key} must be an integer >= 1, got {cap!r}")
    return cap


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a JSON-ready dict)

def cmd_contact(args) -> dict:
    model = load_model(args.model)
    s = args.s
    degree_cap = _cap(args.degree_cap, model, "degree_cap")
    report = contact_search(model.m, s, degree_cap, model.coeff_set())
    return {
        "command": "contact",
        "model": model.name,
        "s": s,
        "degree_cap": degree_cap,
        "report": report.to_json_dict(),
        "notes": model.notes(),
    }


def cmd_vftype(args) -> dict:
    model = load_model(args.model)
    cap = _cap(args.cap, model, "bracket_cap")
    report = commutator_type(model.m, model.default_frame(), cap)
    return {
        "command": "vftype",
        "model": model.name,
        "cap": cap,
        "report": report.to_json_dict(),
        "notes": model.notes(),
    }


def cmd_levitype(args) -> dict:
    model = load_model(args.model)
    cap = _cap(args.cap, model, "bracket_cap")
    report = levi_type(model.m, model.default_frame(), cap)
    return {
        "command": "levitype",
        "model": model.name,
        "cap": cap,
        "report": report.to_json_dict(),
        "notes": model.notes(),
    }


def cmd_sweep(args) -> dict:
    model = load_model(args.model)
    cap = _cap(args.cap, model, "bracket_cap")
    report = type_sweep(
        model.m, model.m.n - 2, args.frame_degree, model.coeff_set(), cap
    )
    return {
        "command": "sweep",
        "model": model.name,
        "cap": cap,
        "frame_degree": args.frame_degree,
        "report": report.to_json_dict(),
        "notes": model.notes(),
    }


def cmd_normalize(args) -> dict:
    model = load_model(args.model)
    if model.a_contact is None:
        raise PolyError("normalize requires a_contact in the model file")
    frame = model.default_frame()
    trial = model.trial_set if model.trial_set is not None else list(DEFAULT_TRIAL_SET)
    cert = normalize_full(frame, model.m, model.a_contact, trial)
    out = cert.to_json_dict()
    out["command"] = "normalize"
    out["model"] = model.name
    out["notes"] = model.notes() + out.get("notes", [])
    return out


def cmd_truncate(args) -> dict:
    model = load_model(args.model)
    if model.a_contact is None:
        raise PolyError("truncate requires a_contact in the model file")
    frame = model.default_frame()
    # the weighted truncation presumes the holomorphic-term normalization
    m2, sub = kill_holomorphic_terms(model.m, model.a_contact)
    if not sub.is_identity():
        frame = pushforward_frame(frame, sub)
    weights = assign_weights(m2, frame, model.a_contact)
    m0 = truncated_model(m2, weights)
    f0 = truncate_frame(frame, weights)
    mw = weights.weights[-1]
    return {
        "command": "truncate",
        "model": model.name,
        "weights": list(weights.weights),
        "rho0": str(m0.rho),
        "frame0": [[str(a) for a in row] for row in f0.matrix],
        "checks": {
            "bracket_pairing_vanishing": bracket_pairing_vanishing(m0, f0, mw).to_json_dict(),
            "levi_trace_vanishing": levi_trace_vanishing(m0, f0, mw).to_json_dict(),
            "bracket_span_dim": bracket_span_dim(f0, min(mw, 4)),
        },
        "notes": model.notes(),
    }


def cmd_psh(args) -> dict:
    ring = PolyRing([f"z{i}" for i in range(1, args.vars + 1)])
    p = parse_poly(ring, args.poly)
    target = p.real_part() if args.real_part else p
    grid = default_grid(ring, max(args.grid_scale - 1, 0))
    verdict = sampled_psh(target, grid)
    return {
        "command": "psh",
        "poly": str(target),
        "grid_scale": args.grid_scale,
        "verdict": verdict.to_json_dict(),
    }


def cmd_tangency_solve(args) -> dict:
    a = parse_poly(TANGENCY_RING, args.coefficient)
    problem = TangencyProblem(a, args.k, args.m)
    family = solution_space(problem)
    out = family.to_json_dict()
    out["command"] = "tangency solve"
    return out


def cmd_tangency_verify(args) -> dict:
    coeff_set = [parse_scalar(c) for c in (args.coeff_set or DEFAULT_CAPS["coeff_set"])]
    verdict = theorem_harness(
        args.k, args.m, coeff_set, grid_level=max(args.grid_scale - 1, 0)
    )
    out = verdict.to_json_dict()
    out["command"] = "tangency verify"
    return out


def cmd_fixtures(args) -> dict:
    if args.write:
        paths = fixture_corpus.write_fixtures(args.write)
        return {"command": "fixtures", "written": paths}
    return {
        "command": "fixtures",
        "fixtures": [
            {"name": fx["name"], "description": fx["description"]}
            for fx in fixture_corpus.all_fixtures()
        ],
    }


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtypes",
        description="exact type invariants of polynomial-model real hypersurfaces",
    )
    parser.add_argument("--json", action="store_true", help="JSON output (default)")
    parser.add_argument("--text", action="store_true", help="plain-text output")
    # output flags are accepted before or after the subcommand; SUPPRESS keeps
    # a flag given before the subcommand from being reset by the subparser
    output_flags = argparse.ArgumentParser(add_help=False)
    output_flags.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    output_flags.add_argument("--text", action="store_true", default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, **kwargs):
        return sub.add_parser(name, parents=[output_flags], **kwargs)

    def with_model(p):
        p.add_argument("--model", required=True, help="model JSON path or fixture name")

    p = add_command("contact", help="bounded search for the contact order")
    with_model(p)
    p.add_argument("--s", type=int, default=1, help="submanifold dimension")
    p.add_argument("--degree-cap", type=int, default=None, dest="degree_cap")
    p.set_defaults(func=cmd_contact)

    p = add_command("vftype", help="iterated-commutator type of the model frame")
    with_model(p)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_vftype)

    p = add_command("levitype", help="Levi-trace derivative type of the model frame")
    with_model(p)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_levitype)

    p = add_command("sweep", help="max commutator/trace types over a frame family")
    with_model(p)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--frame-degree", type=int, default=1, dest="frame_degree")
    p.set_defaults(func=cmd_sweep)

    p = add_command("normalize", help="run the frame normalization pipeline")
    with_model(p)
    p.set_defaults(func=cmd_normalize)

    p = add_command("truncate", help="weight assignment and weighted truncation")
    with_model(p)
    p.set_defaults(func=cmd_truncate)

    p = add_command("psh", help="grid plurisubharmonicity filter/refuter")
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", type=int, default=2)
    p.add_argument("--real-part", action="store_true", dest="real_part")
    p.add_argument("--grid-scale", type=int, default=1, dest="grid_scale")
    p.set_defaults(func=cmd_psh)

    p = add_command("tangency", help="tangency equation solver and verifier")
    tsub = p.add_subparsers(dest="tangency_command", required=True)
    ps = tsub.add_parser("solve", parents=[output_flags], help="basis of the solution space")
    ps.add_argument("--A", required=True, dest="coefficient")
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--m", type=int, required=True)
    ps.set_defaults(func=cmd_tangency_solve)
    pv = tsub.add_parser("verify", parents=[output_flags], help="contrapositive sweep over small problems")
    pv.add_argument("--k", type=int, required=True)
    pv.add_argument("--m", type=int, required=True)
    pv.add_argument("--coeff-set", nargs="*", default=None, dest="coeff_set")
    pv.add_argument("--grid-scale", type=int, default=1, dest="grid_scale")
    pv.set_defaults(func=cmd_tangency_verify)

    p = add_command("fixtures", help="list or write the shipped fixture corpus")
    p.add_argument("--write", default=None, help="directory to write fixture files")
    p.set_defaults(func=cmd_fixtures)

    return parser


def _render_text(data: dict, indent: int = 0) -> List[str]:
    lines = []
    pad = "  " * indent
    for key in sorted(data):
        value = data[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: " + json.dumps(value, sort_keys=True))
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except MATH_ERRORS as e:
        print(json.dumps({"error": str(e)}, sort_keys=True))
        print(f"error: {e}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.text:
        print("\n".join(_render_text(result)))
    else:
        print(json.dumps(result, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
