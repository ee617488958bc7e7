"""Benchmark jobs as a Tier-1 gate: one cycle of the bracket-ladder
workload and the fixture contact jobs of model-corpus.

Builds the job list of a perfbench workload for its default seed, runs the
selected jobs once, and checks each output byte for byte against the
reference recorded in perfbench/expected and against the job's known
answer, as the benchmark does.  perfbench is imported, never edited.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("gaussian", "poly", "grammar", "linalg", "vfield", "normalize",
           "invariants", "psh", "tangency", "fixtures", "cli")
SEED = 1902  # the seed the references are recorded for


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _run_cycle(monkeypatch, workload, selected=lambda key: True):
    """Run the selected jobs of one cycle; every one must match the recorded
    reference byte for byte and pass its known-answer check."""
    ct = SimpleNamespace(package=importlib.import_module("crtypes"))
    for name in MODULES:
        setattr(ct, name, importlib.import_module(f"crtypes.{name}"))
    jobs = [job for job in _workloads(monkeypatch).build(workload, SEED, ct)
            if selected(job.key)]
    reference = json.loads((PERFBENCH / "expected" / f"{workload}.json").read_text())
    assert jobs and all(job.key in reference for job in jobs)
    failures = []
    for job in jobs:
        code, out = job.run()
        ref = reference[job.key]
        if (code, out) != (ref["code"], ref["out"]):
            failures.append((job.key, "output differs from the recorded reference"))
        reason = job.check(code, out)
        if reason:
            failures.append((job.key, reason))
    assert not failures
    return jobs


def test_bracket_ladder_cycle_matches_reference(monkeypatch):
    _run_cycle(monkeypatch, "bracket-ladder")


def test_model_corpus_contact_jobs_match_reference(monkeypatch):
    """The ten `crtypes contact --model <fixture>` jobs of model-corpus."""
    jobs = _run_cycle(monkeypatch, "model-corpus",
                      lambda key: key.startswith("crtypes contact --model "))
    assert len(jobs) == 10
