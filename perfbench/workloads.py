"""Seeded job lists for the three benchmark workloads.

A job is one command-level call that returns a verdict: one CLI invocation
through ``crtypes.cli.main`` or one call of a library function the CLI
wraps.  Every workload has a fixed shape (how many jobs of which size make
one cycle); the seed only picks values inside that shape, so different seeds
cost about the same and a run's figures can be compared across seeds.

Each job carries a ``key`` naming its inputs in full.  Recorded reference
outputs are looked up by that key, so a job whose inputs do not depend on
the seed (every fixture command, for instance) is checked byte for byte on
every seed.  ``check`` holds the answers known independently of the code
under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shlex
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, List, Optional, Tuple

Outcome = Tuple[int, str]  # exit code, output text
Check = Callable[[int, str], Optional[str]]  # a failure reason, or None

WORKLOADS = ("model-corpus", "bracket-ladder", "frame-sweep")


@dataclass(frozen=True)
class Job:
    key: str
    run: Callable[[], Outcome]
    check: Check


def build(workload: str, seed: int, ct: SimpleNamespace) -> List[Job]:
    """The job list of one cycle of a workload; ``ct`` holds the crtypes modules."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, ct)


# ---------------------------------------------------------------------------
# job constructors and shared checks

def _cli_job(ct, argv: List[str], check: Check) -> Job:
    def run() -> Outcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = ct.cli.main(argv)
        return code, out.getvalue()

    return Job("crtypes " + shlex.join(argv), run, check)


def _lib_job(key: str, call: Callable[[], dict], check: Check) -> Job:
    def run() -> Outcome:
        return 0, json.dumps(call(), sort_keys=True)

    return Job(key, run, check)


def _all(*checks: Check) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        for c in checks:
            reason = c(code, out)
            if reason:
                return reason
        return None

    return check


def _code(expected: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        return None if code == expected else f"exit code {code}, expected {expected}"

    return check


def _field(path: str, expected) -> Check:
    """The JSON output has ``expected`` at the dotted ``path``."""

    def check(code: int, out: str) -> Optional[str]:
        value = json.loads(out)
        for part in path.split("."):
            value = value[part]
        return None if value == expected else f"{path} = {value!r}, expected {expected!r}"

    return check


def _type_value(order: Optional[int], cap: int) -> str:
    """The reported type when the true type is ``order`` (None: infinite)."""
    return str(order) if order is not None and order <= cap else f">{cap}"


def _pick(rng: random.Random, pool, count: int) -> List[str]:
    return ["0"] + rng.sample(pool, count - 1)


# ---------------------------------------------------------------------------
# model-corpus: what users type, on the shipped fixtures

def _diag_pq(name: str) -> Optional[Tuple[int, int]]:
    if not name.startswith("diag-"):
        return None
    p, q = name.split("-")[1:]
    return int(p), int(q)


def _fixture_jobs(ct) -> List[Job]:
    names = [fx["name"] for fx in ct.fixtures.all_fixtures() if fx.get("kind") != "tangency"]
    jobs = []
    for command in ("contact", "vftype", "levitype", "normalize", "truncate"):
        for name in names:
            pq = _diag_pq(name)
            cap = 8
            if command == "contact":
                known = _field("report.value", str(2 * max(pq)) if pq else "4")
            elif command in ("vftype", "levitype"):
                # the default frame is L_1, whose type on diag-p-q is 2p
                known = _field("report.value", _type_value(2 * pq[0] if pq else None, cap))
            elif command == "normalize":
                known = _all(_code(0), _checks_pass)
            elif pq:
                # the weight hypothesis k < m fails on every diagonal model
                known = _all(_code(2), _has_key("error"))
            else:
                known = _all(
                    _code(0),
                    _field("checks.bracket_pairing_vanishing.passed", True),
                    _field("checks.levi_trace_vanishing.passed", True),
                )
            jobs.append(_cli_job(ct, [command, "--model", name], known))
    return jobs


def _checks_pass(code: int, out: str) -> Optional[str]:
    checks = json.loads(out)["checks"]
    bad = [k for k, v in checks.items() if v != "pass"]
    if not checks or bad:
        return f"certificate checks failing: {bad or 'none recorded'}"
    return None


def _has_key(key: str) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        return None if key in json.loads(out) else f"no {key!r} in the output"

    return check


def _dominant_frame_jobs(ct) -> List[Job]:
    """commutator_type and levi_type of diag-p-q along its dominant axis: 2*max(p, q)."""
    jobs = []
    for fx in ct.fixtures.all_fixtures():
        pq = _diag_pq(fx["name"])
        if not pq:
            continue
        n = fx["n"]
        m, _ = ct.vfield.Hypersurface.from_rho(
            n, ct.grammar.parse_poly(ct.poly.hypersurface_ring(n), fx["rho"])
        )
        axis = 0 if pq[0] >= pq[1] else 1
        frame = ct.normalize.Frame.coordinate(m, [axis])
        expected = 2 * max(pq)
        cap = max(expected + 1, 6)
        for name in ("commutator_type", "levi_type"):
            jobs.append(_lib_job(
                f"{name} {fx['name']} frame=L{axis + 1} cap={cap}",
                lambda name=name, m=m, frame=frame, cap=cap: getattr(ct.invariants, name)(
                    m, frame, cap).to_json_dict(),
                _field("value", str(expected)),
            ))
    return jobs


_UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def _random_column(ring, rng: random.Random, zslots: List[int]) -> str:
    """A seeded last-column entry over the given z slots and conjugates: one
    linear and two quadratic terms, so that seeds differ little in cost."""
    names = [ring.names[i] for i in zslots] + [f"conj({ring.names[i]})" for i in zslots]
    quadratic = [f"{a}*{b}" for i, a in enumerate(names) for b in names[i:]]
    monos = rng.sample(names, 1) + rng.sample(quadratic, 2)
    return _linear_text([(*rng.choice(_UNITS), mono) for mono in monos])


_NORMALIZE_MODELS = (
    (3, "2*Re(w) + (z2 + conj(z2) + z1*conj(z1))^2", 4),
    (3, "-2*Re(w) + (z1*conj(z1))^2 + (z2*conj(z2))^2", 4),
    (3, "-2*Re(w) + (z1*conj(z1))^3 + (z2*conj(z2))^3", 6),
    (4, "-2*Re(w) + (z1*conj(z1))^2 + (z2*conj(z2))^2 + (z3*conj(z3))^2", 4),
    (4, "-2*Re(w) + (z1*conj(z1))^2 + (z2*conj(z2))^2 + (z3*conj(z3))^2"
        " + z1*z2*conj(z1)*conj(z2)", 4),
)


def _normalize_jobs(rng: random.Random, ct, per_model: int = 2) -> List[Job]:
    """normalize_full on random identity-block frames, as in the acceptance corpus."""
    jobs = []
    for n, rho_text, a_contact in _NORMALIZE_MODELS:
        ring = ct.poly.hypersurface_ring(n)
        m, _ = ct.vfield.Hypersurface.from_rho(n, ct.grammar.parse_poly(ring, rho_text))
        for _ in range(per_model):
            rows = []
            for j in range(n - 2):
                row = ["1" if h == j else "0" for h in range(n - 2)]
                row.append(_random_column(ring, rng, list(range(n - 1))))
                rows.append(row)
            frame = ct.normalize.Frame(
                m, [[ct.grammar.parse_poly(ring, a) for a in row] for row in rows]
            )
            key = f"normalize_full rho={rho_text} frame={rows} a_contact={a_contact}"
            jobs.append(_lib_job(
                key,
                lambda frame=frame, m=m, a=a_contact: ct.normalize.normalize_full(
                    frame, m, a).to_json_dict(),
                _checks_pass,
            ))
    return jobs


_GAUSSIAN_SMALL = [(1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1), (1, 1), (1, -1), (2, -1)]


def _coeff_text(re: int, im: int) -> str:
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"


def _linear_text(terms: List[Tuple[int, int, str]]) -> str:
    """sum c*mono in the grammar, which takes a sign only between terms or first."""
    out = ""
    for re, im, mono in terms:
        negative = re < 0 or (re == 0 and im < 0)
        if negative:
            re, im = -re, -im
        sign = " - " if negative else " + "
        out += (sign if out else sign.strip(" +")) + _coeff_text(re, im) + "*" + mono
    return out or "0"


def _psh_poly(rng: random.Random) -> str:
    """A real polynomial in z1, z2, psh by construction: sum |f_j|^2 + sum c_i |z_i|^4."""
    names = ["z1", "z2"]
    linear = [(a,) for a in names]
    quadratic = [(a, b) for i, a in enumerate(names) for b in names[i:]]
    parts = []
    for _ in range(2):
        # one linear and two quadratic terms, so seeds differ little in cost
        picked = rng.sample(linear, 1) + rng.sample(quadratic, 2)
        coeffs = [rng.choice(_GAUSSIAN_SMALL) for _ in picked]
        f = _linear_text([(re, im, "*".join(m)) for (re, im), m in zip(coeffs, picked)])
        g = _linear_text([
            (re, -im, "*".join(f"conj({v})" for v in m)) for (re, im), m in zip(coeffs, picked)
        ])
        parts.append(f"({f})*({g})")
    for v in names:
        parts.append(f"{rng.randint(1, 3)}*({v}*conj({v}))^2")
    return " + ".join(parts)


def _psh_pass(grid_scale: int) -> Check:
    """A pass over the whole default grid in two variables, origin excluded."""
    values = 9 + 8 * (2 ** (grid_scale - 1) - 1)
    return _all(
        _code(0),
        _field("verdict.psd_on_grid", True),
        _field("verdict.points_checked", values ** 2 - 1),
    )


def _psh_refuted(ct) -> Check:
    """The refuting point must re-check as not PSD through psd_at."""

    def check(code: int, out: str) -> Optional[str]:
        data = json.loads(out)
        verdict = data["verdict"]
        if verdict["psd_on_grid"] or "refuting_point" not in verdict:
            return "expected a grid refutation"
        ring = ct.poly.PolyRing(["z1", "z2"])
        p = ct.grammar.parse_poly(ring, data["poly"])
        point = [ct.cli.parse_scalar(c) for c in verdict["refuting_point"]]
        if ct.psh.psd_at(p, point):
            return "refuting point is PSD when re-checked"
        return None

    return _all(_code(0), check)


def _psh_jobs(rng: random.Random, ct) -> List[Job]:
    # seeded polynomials on the 80-point grid; one fixed polynomial on the
    # 288-point grid, whose cost would otherwise vary with the seed near the p90 job
    polys = [(_psh_poly(rng), 1) for _ in range(3)]
    polys.append(("(z1 + z1*z2)*(conj(z1) + conj(z1)*conj(z2)) + 2*(z1*conj(z1))^2"
                  " + (z2*conj(z2))^2", 2))
    jobs = []
    for poly, grid_scale in polys:
        argv = ["psh", f"--poly={poly}", "--vars", "2", "--grid-scale", str(grid_scale)]
        jobs.append(_cli_job(ct, argv, _psh_pass(grid_scale)))
    # Re(a z1 conj(z2)) has a negative 2x2 minor everywhere: refuted at once
    fixed = "z1*conj(z2) + 1/2*z1^2*conj(z1)^2"
    a = _coeff_text(*rng.choice(_GAUSSIAN_SMALL))
    seeded = f"{a}*z1*conj(z2) + {rng.choice(['1/2', '1', '2'])}*z1^2*conj(z1)^2"
    for text in (fixed, seeded):
        jobs.append(_cli_job(ct, ["psh", f"--poly={text}", "--real-part"], _psh_refuted(ct)))
    return jobs


def _solve_check(ct, k: int, m: int, a_text: str) -> Check:
    """Dimension sum_{j <= m//k} (j + 1), and every basis element solves the equation."""

    def check(code: int, out: str) -> Optional[str]:
        data = json.loads(out)
        dim = sum(j + 1 for j in range(m // k + 1))
        if data["dimension"] != dim:
            return f"dimension {data['dimension']}, expected {dim}"
        ring = ct.tangency.TANGENCY_RING
        problem = ct.tangency.TangencyProblem(ct.grammar.parse_poly(ring, a_text), k, m)
        for b in data["basis"]:
            f = ct.grammar.parse_poly(ring, b["solution"])
            if not ct.tangency.residual(problem, f).is_zero():
                return f"nonzero residual for {b['free_layer']}"
        return None

    return _all(_code(0), check)


def _solve_jobs(rng: random.Random, ct) -> List[Job]:
    problems = [("-z1*conj(z1)", 3, 4)]
    for k in (3, 3, 4):
        s = rng.randint(1, k - 1)
        h = k - 1 - s
        mono = "*".join(["z1"] * h + ["conj(z1)"] * s)
        re, im = rng.choice(_GAUSSIAN_SMALL)
        a_text = _linear_text([(re, im, mono)])
        problems.append((a_text, k, k + rng.randint(1, 3)))
    return [
        _cli_job(ct, ["tangency", "solve", f"--A={a}", "--k", str(k), "--m", str(m)],
                 _solve_check(ct, k, m, a))
        for a, k, m in problems
    ]


# values a user can pass after --coeff-set without argparse taking them for flags
_HARNESS_VALUES = ["1", "-1", "1i", "2", "-2", "1/2", "(1+1i)", "(1-1i)", "(2-1i)"]


def _harness_known(code: int, out: str) -> Optional[str]:
    data = json.loads(out)
    if data["verdict"] != "consistent" or data["refuted"] <= 0:
        return f"verdict {data['verdict']} with {data['refuted']} refuted"
    return None


def _verify_jobs(rng: random.Random, ct) -> List[Job]:
    """The contrapositive harness: the documented (3, 4) run over the default
    five values, (2, 4) over three values (over five it takes about 27 s),
    and three small problems over seeded values."""
    argvs = [
        ["tangency", "verify", "--k", "3", "--m", "4"],
        ["tangency", "verify", "--k", "2", "--m", "4", "--coeff-set", "0", "1", "-1"],
    ]
    for k, m in ((2, 3), (3, 4), (3, 5)):
        values = _pick(rng, _HARNESS_VALUES, 3)
        argvs.append(["tangency", "verify", "--k", str(k), "--m", str(m), "--coeff-set", *values])
    return [_cli_job(ct, argv, _all(_code(0), _harness_known)) for argv in argvs]


def _model_corpus(rng: random.Random, ct) -> List[Job]:
    return (
        _fixture_jobs(ct)
        + _dominant_frame_jobs(ct)
        + _normalize_jobs(rng, ct)
        + _psh_jobs(rng, ct)
        + _solve_jobs(rng, ct)
        + _verify_jobs(rng, ct)
    )


# ---------------------------------------------------------------------------
# bracket-ladder: deep words on Levi-null frames

def _levi_null(ct, n: int, scales: List[int], extra: Optional[Tuple[int, int]]):
    """2Re(w) + (z_{n-1} + conj(z_{n-1}) + sum a_j |z_j|^2)^2 [+ b |z1|^(2p)].

    The frame S_j = L_j - a_j conj(z_j) L_{n-1} is Levi-null, so its types are
    infinite; the optional b |z1|^(2p) term makes both types exactly 2p.
    """
    last = f"z{n - 1}"
    inner = " + ".join(f"{a}*z{j}*conj(z{j})" for j, a in enumerate(scales, start=1))
    rho = f"2*Re(w) + ({last} + conj({last}) + {inner})^2"
    if extra:
        b, p = extra
        rho += f" + {b}*(z1*conj(z1))^{p}"
    rows = []
    for j, a in enumerate(scales):
        row = ["1" if h == j else "0" for h in range(n - 2)]
        row.append(f"-{a}*conj(z{j + 1})")
        rows.append(row)
    ring = ct.poly.hypersurface_ring(n)
    m, _ = ct.vfield.Hypersurface.from_rho(n, ct.grammar.parse_poly(ring, rho))
    frame = ct.normalize.Frame(m, [[ct.grammar.parse_poly(ring, a) for a in row] for row in rows])
    return f"rho={rho} frame={rows}", m, frame


def _bracket_ladder(rng: random.Random, ct) -> List[Job]:
    inv = ct.invariants
    jobs = []

    def add(desc, m, frame, n, order, caps, kinds):
        for cap in caps:
            for kind in kinds:
                if kind == "bracket_span_dim":
                    call = lambda cap=cap: {"dim": inv.bracket_span_dim(frame, cap)}
                    # Re/Im of the generators, the Levi-null direction, and
                    # the transverse direction once a pairing is nonzero
                    finite = order is not None and order <= cap
                    known = _field("dim", 2 * (n - 2) + 1 + int(finite))
                else:
                    # looked up at call time, so the tracing shim sees the call
                    call = lambda kind=kind, cap=cap: getattr(inv, kind)(
                        m, frame, cap).to_json_dict()
                    if kind in ("commutator_type", "levi_type"):
                        known = _field("value", _type_value(order, cap))
                    else:
                        known = _field("passed", order is None or order > cap)
                jobs.append(_lib_job(f"{kind} {desc} cap={cap}", call, known))

    words = ("commutator_type", "levi_type", "bracket_pairing_vanishing", "levi_trace_vanishing")
    for p in (None, 2, 3, 4):
        extra = (rng.randint(1, 3), p) if p else None
        desc, m, frame = _levi_null(ct, 3, [rng.randint(1, 3)], extra)
        add(desc, m, frame, 3, 2 * p if p else None, (4, 6, 8), words)
        add(desc, m, frame, 3, 2 * p if p else None, (5,), ("bracket_span_dim",))
    for p in (None, 2, 3):
        extra = (rng.randint(1, 3), p) if p else None
        desc, m, frame = _levi_null(ct, 4, [rng.randint(1, 3), rng.randint(1, 3)], extra)
        order = 2 * p if p else None
        add(desc, m, frame, 4, order, (4, 5, 6), words[:3])
        add(desc, m, frame, 4, order, (4,), ("bracket_span_dim",))
        if p is None:
            add(desc, m, frame, 4, order, (7,), ("commutator_type",))
    return jobs


# ---------------------------------------------------------------------------
# frame-sweep: many frames, shallow words

_SWEEP_VALUES = ["1", "-1", "1i", "-1i", "2", "1/2"]
_SWEEP_CAP = 6


def _sweep_model(ct, kind: str, rng: random.Random):
    if kind == "cubic":
        a = rng.randint(1, 3)
        rho = f"2*Re(w) + (z2 + conj(z2) + {a}*z1*conj(z1))^2"
        p = None
    else:
        p, q = kind
        rho = (f"-2*Re(w) + {rng.randint(1, 3)}*(z1*conj(z1))^{p}"
               f" + {rng.randint(1, 3)}*(z2*conj(z2))^{q}")
    m, _ = ct.vfield.Hypersurface.from_rho(3, ct.grammar.parse_poly(ct.poly.hypersurface_ring(3), rho))
    return rho, m, p


def _sweep_check(values: List[str], p: Optional[int]) -> Check:
    """The family has |values|^4 frames; with 0 in the set it holds the
    coordinate frame, whose type on a diagonal model is 2p, so the maxima
    are at least 2p."""

    def at_least(report: dict, low: int) -> bool:
        v = report["value"]
        return v.startswith(">") or int(v) >= low

    def check(code: int, out: str) -> Optional[str]:
        data = json.loads(out)
        if data["frames_tried"] != len(values) ** 4:
            return f"frames_tried {data['frames_tried']}, expected {len(values) ** 4}"
        if p and not (at_least(data["vector_field"], 2 * p) and at_least(data["levi"], 2 * p)):
            return f"sweep maximum below the coordinate frame's type {2 * p}"
        return None

    return check


def _frame_sweep(rng: random.Random, ct) -> List[Job]:
    # cost classes, cheapest first: witnesses at length 2 (diag-1-q), at
    # length 4 (diag-2-1, holding the median job) and cubic-contact sweeps
    # (holding the p90 job); every sweep covers 16 frames
    slots = (
        [((1, q), 2) for q in (1, 2, 3, 1, 2, 3, 1, 2)]
        + [((2, 1), 2)] * 10
        + [("cubic", 2)] * 7
    )
    jobs = []
    for kind, size in slots:
        rho, m, p = _sweep_model(ct, kind, rng)
        values = _pick(rng, _SWEEP_VALUES, size)
        coeffs = [ct.cli.parse_scalar(c) for c in values]
        key = f"type_sweep rho={rho} frame_degree=1 coeff_set={values} cap={_SWEEP_CAP}"
        jobs.append(_lib_job(
            key,
            lambda m=m, coeffs=coeffs: ct.invariants.type_sweep(
                m, 1, 1, coeffs, _SWEEP_CAP).to_json_dict(),
            _sweep_check(values, p),
        ))
    return jobs


_BUILDERS = {
    "model-corpus": _model_corpus,
    "bracket-ladder": _bracket_ladder,
    "frame-sweep": _frame_sweep,
}
