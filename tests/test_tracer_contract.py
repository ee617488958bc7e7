"""The benchmark's tracing shim still installs over the crtypes modules.

perfbench/tracer.py wraps the scalar operations and the polynomial methods
through the class dicts, and refuses to install when a crtypes module holds
an unwrapped copy of a traced function.  This runs one scalar product and
one Poly product under the shim and uninstalls it again, so that a change
to crtypes breaking that contract fails here rather than in the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from crtypes.gaussian import GaussianRational, gr
from crtypes.poly import Poly, hypersurface_ring

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ("gaussian", "poly", "grammar", "linalg", "vfield", "normalize",
           "invariants", "psh", "tangency", "fixtures", "cli")
SCALAR_METHODS = ("__init__", "__mul__", "__add__", "__sub__", "__truediv__")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts():
    tracer = _load_tracer().Tracer()
    ct = SimpleNamespace(package=importlib.import_module("crtypes"))
    for name in MODULES:
        setattr(ct, name, importlib.import_module(f"crtypes.{name}"))
    originals = {a: GaussianRational.__dict__[a] for a in SCALAR_METHODS}
    poly_mul = Poly.__dict__["__mul__"]
    ring = hypersurface_ring(2)
    left = ring.var("z1") + ring.one()
    right = ring.conj_var("z1") - ring.one()

    tracer.install(ct)
    try:
        assert all(GaussianRational.__dict__[a] is not originals[a] for a in SCALAR_METHODS)
        scalar = gr(1, 2) * gr(3, -1)
        product = left * right
    finally:
        tracer.uninstall()

    assert all(GaussianRational.__dict__[a] is originals[a] for a in SCALAR_METHODS)
    assert Poly.__dict__["__mul__"] is poly_mul
    assert scalar == gr(5, 5)
    assert len(product.terms) == 4
    # one scalar product, then four term pairs in the Poly product
    assert tracer.counts["gaussian.mul_ops"] == 5
    assert tracer.counts["gaussian.objects_created"] == 2
    calls, _ = tracer.self_times()
    assert calls["poly.mul"] == 1
