"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` replaces each traced public function of otrepair by a
wrapper at every module that binds it (``solve_exact`` is bound in ``ot``,
``approx``, ``barycenter`` and the package itself; ``Dataset.group_rows``
is a method on the class) and ``uninstall`` puts the originals back.  A
wrapper records one span (name, start, end, parent, operation) and feeds
the counters from the call's public arguments and return value.  Spans
stay in memory until ``write``.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _coupling_counts(counters, args, out):
    weights = out.coupling.weights
    counters["ot.coupling_entries"] += weights.size
    counters["ot.coupling_nonzeros"] += int(np.count_nonzero(weights))


def _solve_exact(counters, args, out):
    counters["ot.pivots"] += out.iterations
    _coupling_counts(counters, args, out)


def _build(counters, args, out):
    counters["barycenter.lp_iterations"] += out.barycenter_iterations
    counters["barycenter.support_points"] += out.nu0.n


def _fixed_support_weights(counters, args, out):
    family, support = args[0], args[1]
    k = len(support)
    counters["barycenter.lp_variables"] += sum(a.law.n for a in family.atoms) * k + k


# (span name, module, attribute, counter hook): the public functions behind
# the per-layer metrics below
TRACED = [
    ("cli.main", "otrepair.cli", "main", None),
    ("measure.group_rows", "otrepair.measure", "Dataset.group_rows", None),
    ("approx.build", "otrepair.approx", "build", _build),
    ("approx.estimate_conditionals", "otrepair.approx", "estimate_conditionals", None),
    ("approx.lower_bound", "otrepair.approx", "lower_bound", None),
    ("approx.transform", "otrepair.approx", "transform", None),
    ("barycenter.quantile_exact_measure", "otrepair.barycenter",
     "quantile_exact_measure", None),
    ("barycenter.fixed_support_weights", "otrepair.barycenter",
     "fixed_support_weights", _fixed_support_weights),
    ("ot.solve_exact", "otrepair.ot", "solve_exact", _solve_exact),
    ("ot.solve_comonotone_1d", "otrepair.ot", "solve_comonotone_1d", _coupling_counts),
    ("diagnostics.verify", "otrepair.diagnostics", "verify", None),
]

# per-layer metrics printed for every workload: times in s, then counts
TIME_METRICS = [
    "cli.main.self_s",
    "measure.group_rows.self_s",
    "approx.estimate_conditionals.self_s",
    "approx.build.total_s",
    "approx.build.self_s",
    "approx.lower_bound.total_s",
    "approx.transform.total_s",
    "approx.transform.self_s",
    "barycenter.quantile_exact_measure.self_s",
    "barycenter.fixed_support_weights.self_s",
    "ot.solve_exact.self_s",
    "ot.solve_comonotone_1d.self_s",
    "diagnostics.verify.total_s",
    "diagnostics.verify.self_s",
]
COUNT_METRICS = [
    "measure.group_rows.calls",
    "ot.solve_exact.calls",
    "barycenter.lp_iterations",
    "barycenter.lp_variables",
    "barycenter.support_points",
    "ot.pivots",
    "ot.coupling_entries",
    "ot.coupling_nonzeros",
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.operation = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.operation)
            if hook is not None:
                hook(counters, args, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "otrepair" or n.startswith("otrepair.")]
        for name, module, attr, hook in TRACED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[module], cls_name)
                self._undo.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth], hook))
                continue
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self, cycles: int) -> dict:
        """Every per-layer metric, per cycle of the workload's operations."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[sid]
            calls[name] += 1
        counts = {**self.counters,
                  "measure.group_rows.calls": calls["measure.group_rows"],
                  "ot.solve_exact.calls": calls["ot.solve_exact"]}
        out = {}
        for metric in TIME_METRICS:
            span, kind = metric.rsplit(".", 1)
            value = (total if kind == "total_s" else own)[span]
            out[metric] = {"value": value / cycles, "unit": "s"}
        for metric in COUNT_METRICS:
            value, rest = divmod(counts.get(metric, 0), cycles)
            if rest:
                raise RuntimeError(f"{metric} differs between cycles")
            out[metric] = {"value": value, "unit": "count"}
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "operation"],
                       "spans": self.spans, "counters": dict(self.counters)}, fh)
