"""The names the benchmark's tracer wraps must keep existing.

``bench/tracing.py`` wraps public functions of the package by module and
attribute name and reads fields of their results; a rename would only
show up as a failing ``bench/run.py --trace 1``.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import otrepair.approx
from otrepair.measure import dataset_from_rows

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_resolve():
    for name, module, attr, _ in load_tracing().TRACED:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{name}: {module}.{attr} is gone"


def test_tracer_hooks_see_the_barycenter_backends():
    tracer = load_tracing().Tracer()
    one_d = dataset_from_rows([("a", 0.0), ("a", 2.0), ("b", 1.0), ("b", 3.0)])
    two_d = dataset_from_rows([("a", np.array([0.0, 0.0])), ("a", np.array([1.0, 0.0])),
                               ("b", np.array([0.0, 1.0])), ("b", np.array([1.0, 1.0]))])
    tracer.install()
    try:
        # looked up at call time, so the wrapped function runs
        otrepair.approx.build(one_d)
        otrepair.approx.build(two_d)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"approx.build", "barycenter.quantile_exact_measure",
            "barycenter.fixed_support_weights"} <= names
    # the build hook reads barycenter_iterations and nu0.n; the LP hook
    # reads the family and the grid as positional arguments
    assert tracer.counters["barycenter.lp_variables"] == 2 * 2 * 4 + 4
    assert tracer.counters["barycenter.support_points"] == 2 + 4
