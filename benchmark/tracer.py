"""Per-layer tracing installed from outside the package.

`Tracer.install()` wraps the layer functions listed in LAYERS and rebinds
every name in every loaded `dickesim` module that refers to the original, so
calls made through `from .register import fidelity` style imports are seen
too. Classes are traced through their `__init__`. Each wrapped call is a span;
its self time is its duration minus the time of the spans it encloses. The
numpy kernels in KERNELS are only counted. Everything stays in memory until
`report()`.

A listed name that does not exist at the measured commit is reported in
`absent`, not raised as an error.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = {
    "witnesses": ("biseparable_bound_result", "_seesaw_once", "_grid_bound",
                  "pauli_decompose", "pauli_matrix"),
    "register": ("apply_gate", "project", "partial_trace", "fidelity", "tensor",
                 "MixedState", "PureState"),
    "protocols": ("run_qtc", "qtc_mixed_band", "bell_measure", "run_odt",
                  "derive_correction_table"),
    "tomography": ("simulate_counts", "tomography_linear", "estimate_correlator",
                   "fidelity_with_error"),
    "states": ("dicke", "werner_dicke", "client_state"),
    "circuits": ("run_circuit",),
    "reporting": ("render_json", "render_csv"),
    "cli": ("main",),
}
KERNELS = {
    "eigh": ("numpy.linalg", "eigh"),
    "eigvalsh": ("numpy.linalg", "eigvalsh"),
    "tensordot": ("numpy", "tensordot"),
    "kron": ("numpy", "kron"),
    "einsum": ("numpy", "einsum"),
}
B4_KEY = "witnesses.biseparable_bound_result"
B4_COUNTERS = ("witnesses.b4.iterations", "witnesses.b4.cap_hits")


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for key in span_names():
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    units.update({name: "count" for name in B4_COUNTERS})
    units.update({f"kernel.{k}.calls": "count" for k in KERNELS})
    return units


class Tracer:
    def __init__(self):
        self.spans = {key: [0, 0.0] for key in span_names()}  # calls, self seconds
        self.kernels = dict.fromkeys(KERNELS, 0)
        self.b4 = dict.fromkeys(B4_COUNTERS, 0)
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._b4_seen: set[int] = set()
        self._b4_cap = None

    def install(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if name == "dickesim" or name.startswith("dickesim.")]
        for module_name, names in LAYERS.items():
            try:
                module = importlib.import_module(f"dickesim.{module_name}")
            except ImportError:
                self.absent += [f"{module_name}.{name}" for name in names]
                continue
            for name in names:
                key = f"{module_name}.{name}"
                target = getattr(module, name, None)
                if target is None:
                    self.absent.append(key)
                elif isinstance(target, type):
                    target.__init__ = self._span(key, target.__init__)
                else:
                    _rebind(modules, target, self._span(key, target))
                    if key == B4_KEY:
                        self._watch_b4(target)
        for name, (module_name, attr) in KERNELS.items():
            module = importlib.import_module(module_name)
            target = getattr(module, attr)
            counter = self._counter(name, target)
            setattr(module, attr, counter)
            _rebind(modules, target, counter)
        return self

    def _span(self, key, fn):
        stats = self.spans[key]
        stack = self._stack
        on_result = self._count_b4 if key == B4_KEY else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if on_result is not None:
                on_result(result, kwargs)
            return result

        return wrapper

    def _counter(self, name, fn):
        kernels = self.kernels

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kernels[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _watch_b4(self, fn):
        try:
            param = inspect.signature(fn).parameters.get("max_iter")
        except (TypeError, ValueError):
            param = None
        if param is not None and param.default is not inspect.Parameter.empty:
            self._b4_cap = param.default

    def _count_b4(self, result, kwargs):
        iterations = getattr(result, "max_iterations_used", None)
        if iterations is None:
            for name in B4_COUNTERS:
                if name not in self.absent:
                    self.absent.append(name)
            return
        if id(result) in self._b4_seen:  # an lru_cache hit returns the same object
            return
        self._b4_seen.add(id(result))
        self.b4["witnesses.b4.iterations"] += int(iterations)
        cap = kwargs.get("max_iter", self._b4_cap)
        if cap is not None and iterations >= cap:
            self.b4["witnesses.b4.cap_hits"] += 1

    def report(self) -> dict:
        metrics = {}
        for key, (calls, self_s) in self.spans.items():
            metrics[f"{key}.calls"] = calls
            metrics[f"{key}.self_s"] = self_s
        metrics.update(self.b4)
        metrics.update({f"kernel.{k}.calls": n for k, n in self.kernels.items()})
        return {"metrics": metrics, "absent": sorted(self.absent)}


def _rebind(modules, original, replacement) -> None:
    """Point every module-level name bound to `original` at `replacement`."""
    for module in modules:
        names = [name for name, value in vars(module).items() if value is original]
        for name in names:
            setattr(module, name, replacement)
