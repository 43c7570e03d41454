"""Span tracing of nflower's public functions, from outside the program.

The tracer replaces each traced function at every name its callers look it
up by (a function imported into another module is replaced there too, and
methods are replaced on their class), so calls between layers are seen
without touching the package.  A span is (id, name, start, end, parent id,
operation id).  Self time is a span's duration minus the time its child
spans cover.  Totals are kept for every span; the spans themselves are kept
in memory up to a cap and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

MODULES = ("euclid", "hyperbolic", "descartes", "polynomial", "document", "svg", "cli")

# (module, attribute path) of each traced function; the span is named
# "<module>.<attribute path>".
TRACED = (
    ("euclid", "angle_sum"),
    ("euclid", "solve_central_radius"),
    ("euclid", "layout_flower"),
    ("hyperbolic", "disc_horocycle_to_uhp"),
    ("hyperbolic", "circumcircle"),
    ("descartes", "solve_report"),
    ("descartes", "m_from_normalized"),
    ("descartes", "residual_with_scale"),
    ("descartes", "descartes_residual_complex"),
    ("descartes", "geometric_spinor_chain"),
    ("descartes", "spinor_recursion"),
    ("descartes", "closure_residuals"),
    ("descartes", "descartes_polynomial"),
    ("polynomial", "PolynomialZZ.__mul__"),
    ("polynomial", "PolynomialZZ.from_dict"),
    ("polynomial", "PolynomialZZ.serialize"),
    ("document", "FlowerDocument.to_json"),
    ("document", "FlowerDocument.from_json"),
    ("svg", "flower_svg"),
    ("cli", "main"),
)

_FROM_DICT = "polynomial.PolynomialZZ.from_dict"

# Per-layer metrics and their units, per operation of the workload.  A zero
# means the layer does not run in that workload.
PER_LAYER = {
    "euclid.angle_sum.calls_per_op": "calls/op",
    "euclid.angle_sum.self_ms_per_op": "ms/op",
    "euclid.solve_central_radius.ms_per_op": "ms/op",
    "descartes.residual_with_scale.ms_per_op": "ms/op",
    "descartes.descartes_residual_complex.calls_per_op": "calls/op",
    "descartes.descartes_residual_complex.self_ms_per_op": "ms/op",
    "descartes.m_from_normalized.calls_per_op": "calls/op",
    "descartes.m_from_normalized.self_ms_per_op": "ms/op",
    "descartes.solve_report.self_ms_per_op": "ms/op",
    "euclid.layout_flower.ms_per_op": "ms/op",
    "descartes.geometric_spinor_chain.ms_per_op": "ms/op",
    "descartes.spinor_recursion.ms_per_op": "ms/op",
    "hyperbolic.disc_horocycle_to_uhp.calls_per_op": "calls/op",
    "hyperbolic.disc_horocycle_to_uhp.self_ms_per_op": "ms/op",
    "hyperbolic.circumcircle.calls_per_op": "calls/op",
    "descartes.descartes_polynomial.ms_per_op": "ms/op",
    "polynomial.PolynomialZZ.__mul__.self_ms_per_op": "ms/op",
    "polynomial.PolynomialZZ.from_dict.self_ms_per_op": "ms/op",
    "polynomial.PolynomialZZ.serialize.self_ms_per_op": "ms/op",
    "polynomial.terms_per_op": "terms/op",
    "document.FlowerDocument.to_json.ms_per_op": "ms/op",
    "document.FlowerDocument.from_json.ms_per_op": "ms/op",
    "svg.flower_svg.ms_per_op": "ms/op",
    "cli.main.ms_per_op": "ms/op",
    "cli.startup_ms": "ms/op",
}

# Spans kept for the trace file; totals cover every span.
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.op = 0
        self.calls = Counter()
        self.total = Counter()  # seconds, inclusive
        self.self_time = Counter()  # seconds, minus child spans
        self.terms = 0  # terms canonicalised by PolynomialZZ.from_dict
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append([span_id, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, child = self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - child
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, start, end, parent, self.op))
            if name == _FROM_DICT:
                self.terms += len(result.terms)
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in the imported nflower modules."""
        mods = {m: importlib.import_module(f"nflower.{m}") for m in MODULES}
        namespaces = [vars(sys.modules["nflower"])] + [vars(m) for m in mods.values()]
        for mod, path in TRACED:
            name = f"{mod}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mods[mod], cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            fn = getattr(mods[mod], path)
            new = self._wrap(name, fn)
            for ns in namespaces:
                for key, val in list(ns.items()):
                    if val is fn:
                        self._restore.append((ns, key, fn))
                        ns[key] = new

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = val
            else:
                setattr(owner, key, val)
        self._restore.clear()

    def write(self, path) -> None:
        """Kept spans as JSON lines: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op"), s))))
                fh.write("\n")


def per_layer_metrics(tracer: Tracer, ops: int, startup_ms: float) -> dict[str, float]:
    """Value of each per-layer metric, per operation; startup_ms is the mean
    child wall time minus cli.main, measured by the cli workload."""
    out = {}
    for metric in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if metric == "polynomial.terms_per_op":
            value = tracer.terms / ops
        elif metric == "cli.startup_ms":
            value = startup_ms
        elif kind == "calls_per_op":
            value = tracer.calls[span] / ops
        elif kind == "self_ms_per_op":
            value = 1e3 * tracer.self_time[span] / ops
        elif kind == "ms_per_op":
            value = 1e3 * tracer.total[span] / ops
        else:
            raise KeyError(metric)
        out[metric] = value
    return out
