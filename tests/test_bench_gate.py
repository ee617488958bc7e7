"""One cycle of the bracket-ladder benchmark workload as a Tier-1 gate.

Builds the job list of perfbench's bracket-ladder workload for its default
seed, runs every job once, and checks each output byte for byte against the
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


def test_bracket_ladder_cycle_matches_reference(monkeypatch):
    ct = SimpleNamespace(package=importlib.import_module("crtypes"))
    for name in MODULES:
        setattr(ct, name, importlib.import_module(f"crtypes.{name}"))
    jobs = _workloads(monkeypatch).build("bracket-ladder", SEED, ct)
    reference = json.loads((PERFBENCH / "expected" / "bracket-ladder.json").read_text())
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
