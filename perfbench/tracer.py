"""Tracing shim: per-layer spans and counts, recorded from outside crtypes.

The shim replaces the public functions of each crtypes module, and the
methods of its classes, by wrappers.  A function is replaced under every
name that refers to it in every crtypes module, because the package binds
many names by ``from .x import y`` (``invariants.lie_bracket``,
``tangency.sampled_psh``, the aliases ``normalize._det`` and
``normalize._rank``, ...): wrapping only the defining module would miss
those calls.  ``install`` checks afterwards that no module still holds an
unwrapped original.

A span is (name, start, end, parent span, job id).  Spans stay in memory,
in flat arrays, until the run ends; a span's self time is its duration minus
the time its child spans cover.  Scalar ``GaussianRational`` operations run
to about a million per job, so that layer gets counts only.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# layer -> (end-to-end metric its metrics should move, workloads it is
# designed to be busy on).  The coverage self-test requires every layer to
# record spans or counts on each workload listed here.
LAYERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "gaussian": ("jobs_per_s", ("model-corpus", "frame-sweep")),
    "poly": (
        "mul/derivative: jobs_per_s and job_p50_s (bracket-ladder, frame-sweep); "
        "substitute/mul_truncated: job_tail_s (model-corpus contact jobs); "
        "real_part/add: jobs_per_s (model-corpus tangency verify jobs); "
        "eval: job_tail_s (model-corpus psh jobs)",
        ("bracket-ladder", "frame-sweep", "model-corpus"),
    ),
    "grammar": ("setup_s, job_p50_s", ("model-corpus",)),
    "linalg": ("jobs_per_s and job_tail_s", ("model-corpus",)),
    "vfield": (
        "bracket/zero share: jobs_per_s on bracket-ladder (no change on frame-sweep); "
        "cr_frame: jobs_per_s on frame-sweep (no change on bracket-ladder)",
        ("bracket-ladder", "frame-sweep"),
    ),
    "normalize": ("job_p50_s (model-corpus); jobs_per_s (frame-sweep)",
                  ("model-corpus", "frame-sweep")),
    "invariants": ("job_tail_s (model-corpus); jobs_per_s (bracket-ladder, frame-sweep)",
                   ("model-corpus", "bracket-ladder", "frame-sweep")),
    "psh": ("job_tail_s (full-grid psh and early-exit tangency verify)", ("model-corpus",)),
    "tangency": ("jobs_per_s (tangency verify jobs)", ("model-corpus",)),
    "cli": ("setup_s, job_p50_s", ("model-corpus",)),
}

# per-layer metrics in report order: name -> unit
METRIC_UNITS: Dict[str, str] = {}
for _name in ("mul_ops", "add_ops", "div_ops", "objects_created"):
    METRIC_UNITS[f"gaussian.{_name}"] = "count"
for _op in ("mul", "mul_truncated", "derivative", "add", "substitute", "real_part", "eval"):
    METRIC_UNITS[f"poly.{_op}_calls"] = "count"
    METRIC_UNITS[f"poly.{_op}_s"] = "s"
METRIC_UNITS["poly.mul_term_pairs"] = "count"
METRIC_UNITS["poly.max_terms"] = "count"
for _op in ("parse", "print"):
    METRIC_UNITS[f"grammar.{_op}_calls"] = "count"
    METRIC_UNITS[f"grammar.{_op}_s"] = "s"
for _op in ("det", "rank"):
    METRIC_UNITS[f"linalg.{_op}_calls"] = "count"
    METRIC_UNITS[f"linalg.{_op}_s"] = "s"
for _op in ("bracket", "apply", "pair", "cr_frame"):
    METRIC_UNITS[f"vfield.{_op}_calls"] = "count"
    METRIC_UNITS[f"vfield.{_op}_s"] = "s"
METRIC_UNITS["vfield.bracket_zero_share"] = "ratio"
METRIC_UNITS.update({
    "normalize.full_calls": "count",
    "normalize.full_s": "s",
    "normalize.frames_built": "count",
    "normalize.fields_s": "s",
    "invariants.contact_s": "s",
    "invariants.commutator_type_s": "s",
    "invariants.levi_type_s": "s",
    "invariants.sweep_s": "s",
    "invariants.frames_tried": "count",
    "invariants.vanishing_s": "s",
    "invariants.span_dim_s": "s",
    "psh.sampled_calls": "count",
    "psh.sampled_s": "s",
    "psh.points_checked": "count",
    "psh.refuted_share": "ratio",
    "psh.levi_matrix_calls": "count",
    "psh.levi_matrix_s": "s",
    "tangency.solution_space_calls": "count",
    "tangency.solution_space_s": "s",
    "tangency.spanned_s": "s",
    "tangency.harness_s": "s",
    "tangency.combinations": "count",
    "tangency.psh_reach_share": "ratio",
    "cli.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
})

# (module, owner, attribute, span name).  owner None: a module-level function.
_SPANS: List[Tuple[str, Optional[str], str, str]] = [
    ("poly", "Poly", "__mul__", "poly.mul"),
    ("poly", "Poly", "mul_truncated", "poly.mul_truncated"),
    ("poly", "Poly", "_d_slot", "poly.derivative"),
    ("poly", "Poly", "__add__", "poly.add"),
    ("poly", "Poly", "substitute", "poly.substitute"),
    ("poly", "Poly", "real_part", "poly.real_part"),
    ("poly", "Poly", "eval", "poly.eval"),
    ("grammar", None, "parse_poly", "grammar.parse"),
    ("grammar", None, "poly_to_string", "grammar.print"),
    ("linalg", None, "det", "linalg.det"),
    ("linalg", None, "rank", "linalg.rank"),
    ("vfield", None, "lie_bracket", "vfield.bracket"),
    ("vfield", "VectorField", "apply", "vfield.apply"),
    ("vfield", None, "pair_with_drho", "vfield.pair"),
    ("vfield", None, "cr_frame", "vfield.cr_frame"),
    ("normalize", None, "normalize_full", "normalize.full"),
    ("normalize", "Frame", "fields", "normalize.fields"),
    ("invariants", None, "contact_search", "invariants.contact"),
    ("invariants", None, "commutator_type", "invariants.commutator_type"),
    ("invariants", None, "levi_type", "invariants.levi_type"),
    ("invariants", None, "type_sweep", "invariants.sweep"),
    ("invariants", None, "bracket_pairing_vanishing", "invariants.vanishing"),
    ("invariants", None, "levi_trace_vanishing", "invariants.vanishing"),
    ("invariants", None, "bracket_span_dim", "invariants.span_dim"),
    ("psh", None, "sampled_psh", "psh.sampled"),
    ("psh", None, "levi_matrix", "psh.levi_matrix"),
    ("tangency", None, "solution_space", "tangency.solution_space"),
    ("tangency", "SolutionFamily", "spanned", "tangency.spanned"),
    ("tangency", None, "theorem_harness", "tangency.harness"),
    ("cli", None, "main", "cli.main"),
    ("cli", None, "load_model", "cli.load_model"),
    ("cli", None, "parse_scalar", "cli.parse_scalar"),
] + [
    ("cli", None, f"cmd_{c}", f"cli.cmd_{c}")
    for c in ("contact", "vftype", "levitype", "sweep", "normalize", "truncate", "psh",
              "tangency_solve", "tangency_verify", "fixtures")
]

# (module, class, method, counter): counted, no spans
_COUNTS = [
    ("gaussian", "GaussianRational", "__mul__", "gaussian.mul_ops"),
    ("gaussian", "GaussianRational", "__add__", "gaussian.add_ops"),
    ("gaussian", "GaussianRational", "__sub__", "gaussian.add_ops"),
    ("gaussian", "GaussianRational", "__truediv__", "gaussian.div_ops"),
    ("gaussian", "GaussianRational", "__init__", "gaussian.objects_created"),
    ("normalize", "Frame", "__init__", "normalize.frames_built"),
]


class Tracer:
    """Installs the wrappers into the crtypes modules and keeps what they record."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.job = -1
        self.counts: Counter = Counter()
        self.max_terms = 0
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so that every call records a span; ``after(args, result)``
        records the counts that belong to the call."""
        nid = self._name_id(name)
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-call counts ----------------------------------------------------

    def _poly_result(self, args, result) -> None:
        n = len(result.terms)
        if n > self.max_terms:
            self.max_terms = n

    def _poly_mul(self, args, result) -> None:
        self.counts["poly.mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)
        self._poly_result(args, result)

    def _bracket(self, args, result) -> None:
        if result.is_zero():
            self.counts["vfield.bracket_zero"] += 1

    def _sampled(self, args, result) -> None:
        self.counts["psh.points_checked"] += result.points_checked
        if not result.passed:
            self.counts["psh.refuted"] += 1

    def _sweep(self, args, result) -> None:
        self.counts["invariants.frames_tried"] += result.frames_tried

    def _harness(self, args, result) -> None:
        reached = result.refuted + len(result.survivors)
        self.counts["tangency.combinations"] += (
            reached + result.trivial_real_part + result.holomorphic_skipped
        )
        self.counts["tangency.psh_reach"] += reached

    _AFTER = {
        "poly.mul": "_poly_mul",
        "poly.mul_truncated": "_poly_result",
        "poly.derivative": "_poly_result",
        "poly.add": "_poly_result",
        "poly.substitute": "_poly_result",
        "poly.real_part": "_poly_result",
        "vfield.bracket": "_bracket",
        "psh.sampled": "_sampled",
        "invariants.sweep": "_sweep",
        "tangency.harness": "_harness",
    }

    # -- installation -------------------------------------------------------

    def install(self, ct) -> None:
        """Wrap every traced name in the crtypes modules held by ``ct``."""
        modules = [m for m in vars(ct).values() if getattr(m, "__name__", "").startswith("crtypes")]
        originals = []
        for mod_name, owner, attr, name in _SPANS:
            after = self._AFTER.get(name)
            make = lambda fn, name=name, after=after: self.span(
                name, fn, getattr(self, after) if after else None)
            originals.append(self._replace(modules, getattr(ct, mod_name), owner, attr, make))
        for mod_name, owner, attr, counter in _COUNTS:
            make = lambda fn, counter=counter: self._counted(counter, fn)
            originals.append(self._replace(modules, getattr(ct, mod_name), owner, attr, make))
        missed = [
            f"{m.__name__}.{a}"
            for m in modules
            for a, v in vars(m).items()
            if any(v is o for o in originals)
        ]
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracing shim left unwrapped names: {missed}")

    def _replace(self, modules, module, owner, attr, make) -> object:
        if owner is not None:
            cls = getattr(module, owner)
            original = cls.__dict__[attr]
            self._set(cls, attr, make(original))
            return original
        original = getattr(module, attr)
        wrapped = make(original)
        for m in modules:
            for a, v in list(vars(m).items()):
                if v is original:
                    self._set(m, a, wrapped)
        return original

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Calls and summed self time per span name."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        names = self.names
        for i in range(n):
            name = names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - covered[i]
        return calls, self_s

    def layer_metrics(self, calls: Dict[str, int], self_s: Dict[str, float]) -> Dict[str, float]:
        c = self.counts
        out: Dict[str, float] = {}
        for key in ("gaussian.mul_ops", "gaussian.add_ops", "gaussian.div_ops",
                    "gaussian.objects_created", "poly.mul_term_pairs",
                    "normalize.frames_built", "invariants.frames_tried",
                    "psh.points_checked", "tangency.combinations"):
            out[key] = c[key]
        for op in ("mul", "mul_truncated", "derivative", "add", "substitute", "real_part", "eval"):
            out[f"poly.{op}_calls"] = calls[f"poly.{op}"]
            out[f"poly.{op}_s"] = self_s[f"poly.{op}"]
        out["poly.max_terms"] = self.max_terms
        for layer, ops in (("grammar", ("parse", "print")), ("linalg", ("det", "rank")),
                           ("vfield", ("bracket", "apply", "pair", "cr_frame"))):
            for op in ops:
                out[f"{layer}.{op}_calls"] = calls[f"{layer}.{op}"]
                out[f"{layer}.{op}_s"] = self_s[f"{layer}.{op}"]
        out["vfield.bracket_zero_share"] = _share(c["vfield.bracket_zero"], calls["vfield.bracket"])
        out["normalize.full_calls"] = calls["normalize.full"]
        out["normalize.full_s"] = self_s["normalize.full"]
        out["normalize.fields_s"] = self_s["normalize.fields"]
        for op in ("contact", "commutator_type", "levi_type", "sweep", "vanishing", "span_dim"):
            out[f"invariants.{op}_s"] = self_s[f"invariants.{op}"]
        out["psh.sampled_calls"] = calls["psh.sampled"]
        out["psh.sampled_s"] = self_s["psh.sampled"]
        out["psh.refuted_share"] = _share(c["psh.refuted"], calls["psh.sampled"])
        out["psh.levi_matrix_calls"] = calls["psh.levi_matrix"]
        out["psh.levi_matrix_s"] = self_s["psh.levi_matrix"]
        out["tangency.solution_space_calls"] = calls["tangency.solution_space"]
        out["tangency.solution_space_s"] = self_s["tangency.solution_space"]
        out["tangency.spanned_s"] = self_s["tangency.spanned"]
        out["tangency.harness_s"] = self_s["tangency.harness"]
        out["tangency.psh_reach_share"] = _share(c["tangency.psh_reach"], c["tangency.combinations"])
        out["cli.calls"] = calls["cli.main"]
        out["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
        return out

    def layer_activity(self, calls: Dict[str, int]) -> Dict[str, int]:
        """Spans plus counts recorded per layer."""
        out = {layer: 0 for layer in LAYERS}
        for name, n in list(calls.items()) + list(self.counts.items()):
            layer = name.split(".")[0]
            if layer in out:
                out[layer] += n
        return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_shares(self_s: Dict[str, float]) -> Dict[str, float]:
    """Each layer's share of the traced job time; spans outside every layer
    (the benchmark's own glue and untraced crtypes code) land in ``other``."""
    total = sum(self_s.values())
    shares: Dict[str, float] = defaultdict(float)
    for name, s in self_s.items():
        layer = name.split(".")[0]
        shares[layer if layer in LAYERS else "other"] += s / total if total else 0.0
    return dict(shares)


def coverage_failures(workload: str, activity: Dict[str, int]) -> Sequence[str]:
    """Layers designed to be busy on ``workload`` that recorded nothing."""
    return [
        layer for layer, (_, workloads) in LAYERS.items()
        if workload in workloads and not activity.get(layer)
    ]
