"""Span tracer for the benchmark's traced run.

Wraps the public functions of every adasg module from outside the library:
each call becomes a span with a name, and per name the tracer keeps the call
count and the self time (the span's time minus the time covered by the
spans it called).  Optional hooks add work counters taken from
the call's arguments and result, such as points evaluated or bytes written.

A function is patched under every name it is looked up by: in its defining
module and in each module (and the package) that imported it by name, such
as `adasg.driver` importing `build_interpolant`.  `restore()` puts every
original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import defaultdict

LAYERS = ("rules1d", "multiindex", "sparse_grid", "spectral", "fitting",
          "driver", "targets", "cli")

# Methods traced as spans of their class's layer: (module, class, method, span).
METHODS = (("multiindex", "IndexSet", "__init__", "multiindex.IndexSet"),
           ("targets", "TargetSpec", "evaluate", "targets.evaluate"))

# The CLI's output-file writers are defined elsewhere but count as cli work:
# the copy the cli module imports is traced under the cli layer.
CALLER_NAMES = {("cli", "write_history_csv"), ("cli", "save_interpolant")}


class Tracer:
    """Accumulates calls and self time per span name, and work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # per open span: [child time]

    def wrap(self, name: str, fn, hook=None):
        """Return `fn` wrapped in a span called `name`.

        `hook(args, kwargs, result)` returns {counter suffix: increment}; it
        runs after the span closes, so its cost lands on the caller.
        """
        stack, clock = self._stack, self.clock
        calls, self_s, counters = self.calls, self.self_s, self.counters

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                self_s[name] += dt - frame[0]
            if hook is not None:
                for key, inc in hook(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += inc
            return result

        return span


# ---------------------------------------------------------------------------
# work counters taken at the span boundary


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _save_state_hook(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _evaluate_batch_hook(args, kwargs, result):
    interp = _arg(args, kwargs, 0, "interp")
    return {"pairs": len(result) * interp.node_count}


def _legendre_coeffs_hook(args, kwargs, result):
    interp = _arg(args, kwargs, 0, "interp")
    lam = _arg(args, kwargs, 1, "lam")
    degs = zip(interp.range.max_degrees(), lam.max_degrees())
    return {"quad_points": math.prod(max(a, b) + 1 for a, b in degs),
            "coeffs": len(lam)}


def _mc_linf_error_hook(args, kwargs, result):
    return {"points": _arg(args, kwargs, 2, "count")}


def _target_evaluate_hook(args, kwargs, result):
    return {"points": len(result)}


HOOKS = {
    "driver.save_state": _save_state_hook,
    "sparse_grid.evaluate_batch": _evaluate_batch_hook,
    "spectral.legendre_coeffs": _legendre_coeffs_hook,
    "driver.mc_linf_error": _mc_linf_error_hook,
    "targets.evaluate": _target_evaluate_hook,
}


def install(tracer: Tracer):
    """Patch every public adasg function and the traced methods with spans.

    Returns a `restore()` callable that undoes every patch.
    """
    pkg = importlib.import_module("adasg")
    modules = {layer: importlib.import_module(f"adasg.{layer}") for layer in LAYERS}
    home = {}  # original function -> span name in its defining module
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                home[obj] = f"{layer}.{attr}"
    wrappers = {fn: tracer.wrap(name, fn, HOOKS.get(name)) for fn, name in home.items()}

    patched = []  # (namespace, attribute, original)
    namespaces = [(None, pkg)] + list(modules.items())
    for layer, ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if not inspect.isfunction(obj) or obj not in wrappers:
                continue
            if (layer, attr) in CALLER_NAMES:
                wrapper = tracer.wrap(f"{layer}.{attr}", obj)
            else:
                wrapper = wrappers[obj]
            setattr(ns, attr, wrapper)
            patched.append((ns, attr, obj))
    for layer, cls_name, meth, name in METHODS:
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(name, original, HOOKS.get(name)))
        patched.append((cls, meth, original))

    def restore():
        for ns, attr, original in reversed(patched):
            setattr(ns, attr, original)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics of one traced rep

SELF_TIME_SPANS = (
    "driver.save_state", "sparse_grid.evaluate_batch", "sparse_grid.combination_weights",
    "spectral.legendre_coeffs", "multiindex.IndexSet", "multiindex.margin",
    "multiindex.lambda_curved", "sparse_grid.grid_nodes", "sparse_grid.polynomial_range",
    "sparse_grid.grid_size", "sparse_grid.theta_curved", "driver.next_level",
    "sparse_grid.build_interpolant", "sparse_grid.load_interpolant", "rules1d.family_nodes",
    "fitting.fit_curved", "driver.mc_linf_error", "cli.write_history_csv",
    "cli.save_interpolant",
)
CALL_SPANS = ("rules1d.growth", "multiindex.IndexSet", "sparse_grid.theta_curved",
              "targets.evaluate")
COUNTERS = ("driver.save_state.bytes", "sparse_grid.evaluate_batch.pairs",
            "spectral.legendre_coeffs.quad_points", "targets.evaluate.points")
# the outermost driver span: its self time is driver glue no other span covers
DRIVER_ROOT = "driver.run"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, window_s: float, final_nodes: int | None) -> dict:
    """Per-layer metrics from the spans of one rep; absent spans read 0.

    `window_s` is the wall time the tracer was installed; `final_nodes` is
    the node count an adaptive run ended with (None for a read-only rep).
    """
    c = tracer.counters
    out = {f"{name}.self_s": tracer.self_s.get(name, 0.0) for name in SELF_TIME_SPANS}
    out.update({f"{name}.calls": tracer.calls.get(name, 0) for name in CALL_SPANS})
    out.update({name: c.get(name, 0.0) for name in COUNTERS})
    unattributed = tracer.self_s.get(DRIVER_ROOT, 0.0)
    out["driver.unattributed_s"] = unattributed
    out["driver.save_state.bytes_per_new_node"] = _ratio(
        c.get("driver.save_state.bytes", 0.0), final_nodes or 0)
    out["spectral.quad_points_per_coeff"] = _ratio(
        c.get("spectral.legendre_coeffs.quad_points", 0.0),
        c.get("spectral.legendre_coeffs.coeffs", 0.0))
    out["driver.grow.theta_curved_per_iter"] = _ratio(
        tracer.calls.get("sparse_grid.theta_curved", 0),
        tracer.calls.get("driver.next_level", 0))
    # target points beyond one sample per node and the probe points: nested
    # rules never re-sample, so this reads 0
    sampled = c.get("targets.evaluate.points", 0.0) - c.get("driver.mc_linf_error.points", 0.0)
    out["targets.evaluate.resampled_points"] = sampled - final_nodes if final_nodes else 0.0
    covered = sum(tracer.self_s.values()) - unattributed
    out["trace.span_coverage"] = _ratio(covered, window_s)
    out["trace.window_s"] = window_s
    return out
