"""Per-layer spans around fractree's public functions, installed from outside.

The tracer rebinds every reference to each target function across the
loaded ``fractree.*`` modules -- package re-exports and ``from .x import y``
copies included -- to a wrapper that times the call, and restores the
originals on uninstall.  No file of the package changes.

Self time is a span's duration minus the time of the traced spans it
called.  Hot per-vertex calls (``local_clustering``, ``Graph.add_*``) are
left unwrapped; their work is reported as counts read from the return
values of the functions that drive them.
"""

from __future__ import annotations

import sys
from time import perf_counter
from types import FunctionType

TARGETS = {
    "construct": ("build", "ept", "glv"),
    "graph": ("blocks", "laplacian_minor", "to_edgelist_text", "to_json_dict", "to_dot"),
    "exact": ("bareiss_determinant", "factored_expand"),
    "spanning": ("tau_oracle", "tau_blocks", "tau_closed"),
    "sequences": ("entropy_limit", "size_sequences"),
    "clustering": ("average_clustering",),
    "verify": ("verify_suite",),
    "cli": ("main",),
}


def _bareiss_work(args, result):
    n = len(args[0])
    # inner-loop updates of one-step Bareiss: sum over k < n-1 of (n-k-1)^2
    return {"exact.bareiss_determinant.updates": (n - 1) * n * (2 * n - 1) // 6,
            "exact.bareiss_determinant.order_max": n}


# span name -> function(args, result) -> {counter metric: amount}
COUNTERS = {
    "construct.build": lambda a, r: {"construct.vertices_built": r.vertex_count},
    "graph.blocks": lambda a, r: {"graph.blocks.found": len(r)},
    "graph.laplacian_minor": lambda a, r: {"graph.laplacian_minor.cells": len(r) ** 2},
    "exact.bareiss_determinant": _bareiss_work,
    "exact.factored_expand": lambda a, r: {"exact.factored_expand.bits": r.bit_length()},
    "clustering.average_clustering":
        lambda a, r: {"clustering.average_clustering.vertices": r.vertex_count},
    "verify.verify_suite": lambda a, r: {"verify.verify_suite.checks": len(r.checks)},
}
COUNTER_NAMES = (
    "construct.vertices_built", "graph.blocks.found", "graph.laplacian_minor.cells",
    "exact.bareiss_determinant.updates", "exact.bareiss_determinant.order_max",
    "exact.factored_expand.bits", "clustering.average_clustering.vertices",
    "verify.verify_suite.checks",
)

# counters reported as maxima; every other counter is summed
MAXIMA = {"exact.bareiss_determinant.order_max"}


def _references():
    """(module, attribute, function) for every plain function that a loaded
    fractree module holds at top level."""
    return [(module, attr, value)
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "fractree" or name.startswith("fractree."))
            for attr, value in vars(module).items()
            if isinstance(value, FunctionType)]


class Tracer:
    """Call counts, total and self time per target, plus work counters."""

    def __init__(self):
        self.stats = {}      # span name -> [calls, total_s, self_s]
        self.counters = {}   # metric name -> value
        self._stack = []     # child time accumulated by each open span
        self._wrappers = {}   # original function -> its traced wrapper
        self._bindings = []   # (module, attribute, original)

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        count = COUNTERS.get(name)
        stack = self._stack
        counters = self.counters

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - children
            if count is not None:
                for metric, amount in count(args, result).items():
                    if metric in MAXIMA:
                        counters[metric] = max(counters.get(metric, 0), amount)
                    else:
                        counters[metric] = counters.get(metric, 0) + amount
            return result

        return traced

    def install(self):
        """Rebind every reference to every target; verify none is missed."""
        if not self._wrappers:
            for module_name, functions in TARGETS.items():
                module = sys.modules[f"fractree.{module_name}"]
                for fn_name in functions:
                    fn = getattr(module, fn_name)
                    self._wrappers[fn] = self._wrap(f"{module_name}.{fn_name}", fn)
        self._bindings = [(module, attr, value) for module, attr, value in _references()
                          if value in self._wrappers]
        for module, attr, original in self._bindings:
            setattr(module, attr, self._wrappers[original])
        leftover = [f"{module.__name__}.{attr}" for module, attr, value in _references()
                    if value in self._wrappers]
        if leftover:
            self.uninstall()
            raise RuntimeError(f"unwrapped references remain: {leftover}")

    def uninstall(self):
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings = []

    def metrics(self, passes: int) -> dict:
        """Per-pass stats for every target and counter, zeros included."""
        out = {}
        for module_name, functions in TARGETS.items():
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
                out[f"{name}.calls"] = calls / passes
                out[f"{name}.total_s"] = total / passes
                out[f"{name}.self_s"] = self_s / passes
        for metric in COUNTER_NAMES:
            value = self.counters.get(metric, 0)
            out[metric] = value if metric in MAXIMA else value / passes
        return out

    def self_time_sum(self) -> float:
        return sum(s[2] for s in self.stats.values())
