"""Spans around polymat's public functions, recorded from outside.

``install`` wraps every listed function and rebinds it in every polymat
namespace that imported it (``polymat.factorize.buchberger`` as well as
``polymat.groebner.buchberger``), and methods on their class.  Each call
becomes a span with its parent; the tracer keeps per-function call counts
and self time (the span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer -> public functions; "Class.method" names a method.
LAYERS = {
    "poly": ["Polynomial.__add__", "Polynomial.__sub__",
             "Polynomial.__mul__", "Polynomial.mul_term", "divides",
             "exact_div", "gcd", "gcd_many"],
    "matrix": ["PolyMatrix.determinant", "PolyMatrix.rank", "all_minors",
               "gcd_chain", "column_reduced_minors", "minor_ideal_generators",
               "PolyMatrix.inverse_unimodular"],
    "groebner": ["buchberger", "normal_form", "is_unit_ideal"],
    "modules": ["syzygy", "module_groebner", "rank_of_module",
                "module_equal", "module_quotient_by_poly"],
    "completion": ["is_zlp", "zlp_factorize", "complete_to_unimodular"],
    "factorize": ["classify", "factorize", "factorize_general_variable",
                  "decide_equivalence", "verify_factorization",
                  "verify_equivalence"],
    "parsing": ["parse_polynomial"],
    "cli": ["main"],
}

OPS_USED = "completion.complete_to_unimodular.ops_used"
OVERHEAD = "trace.ops_per_s_ratio"

# Arithmetic runs millions of times a round: it is counted and timed, but
# its spans are not kept, or the span list would not fit in memory.
UNKEPT = {"poly.add", "poly.sub", "poly.mul", "poly.mul_term"}


def span_name(layer: str, target: str) -> str:
    return f"{layer}.{target.split('.')[-1].strip('_')}"


def span_names() -> list[str]:
    return [span_name(layer, t) for layer, ts in LAYERS.items() for t in ts]


def metric_names() -> list[str]:
    """Every per-layer metric, in the order they are reported."""
    names = [f"{s}.{k}" for s in span_names() for k in ("calls", "self_s")]
    return names + [OPS_USED, OVERHEAD]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.ops_used = 0
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.keep = True
        self.request = 0
        self._stack: list[list] = []  # [name, start, child seconds, id]
        self._next_id = 0

    def wrap(self, name: str, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        kept = name not in UNKEPT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [name, clock(), 0.0, self._next_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if name == "completion.complete_to_unimodular":
                    self.ops_used += result.ops_used
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if kept and self.keep:
                    parent = next((f[3] for f in reversed(stack)
                                   if f[0] not in UNKEPT), None)
                    self.spans.append((frame[3], parent, self.request, name,
                                       frame[1], end))

        traced.__wrapped__ = fn
        return traced

    def reset_stack(self):
        """Drop frames left open by an operation cut off at its deadline."""
        self._stack.clear()


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS in the currently imported polymat."""
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "polymat" or name.startswith("polymat.")]
    for layer, targets in LAYERS.items():
        module = sys.modules[f"polymat.{layer}"]
        for target in targets:
            name = span_name(layer, target)
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                wrapped = tracer.wrap(name, orig)
                for attr, value in list(cls.__dict__.items()):
                    if value is orig:
                        setattr(cls, attr, wrapped)
                continue
            orig = getattr(module, target)
            wrapped = tracer.wrap(name, orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapped)
