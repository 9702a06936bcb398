"""Per-layer tracing of ``phaseclone`` from outside the package.

Each traced function is replaced by a wrapper that counts its calls and
times it. Self time is a call's duration minus the time spent in traced
calls it made, so the self times of all traced functions add up to the
traced wall time of ``cli.main``. Work in untraced code (numpy, private
helpers) counts toward the nearest traced caller.

``audit`` and ``cli`` bind names with ``from .cloner import ...``, so a
wrapper replaces the name in every ``phaseclone`` module that holds the
original, not only in the module that defines it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# layer (= module of phaseclone) -> public functions traced in it
FUNCTIONS = {
    "cli": ("main",),
    "audit": ("run_audit",),
    "cloner": ("build_machine", "clone_state", "reduced_clone", "simulate_fidelity", "fidelity_report"),
    "linalg": ("partial_trace", "fidelity_pure", "frobenius_distance"),
    "states": ("random_phase_vector", "phase_state", "mub_basis", "gram_residual", "unbiasedness_residual"),
    "optimize": ("optimum_residual", "sweep_alpha"),
}
METHODS = {"cloner.unitarity_residual": ("cloner", "CloningMachine", "unitarity_residual")}
# numpy.linalg.eigvalsh, timed only when phaseclone.audit is the caller
EIGVALSH = "audit.eigvalsh"

# computed from the sizes of returned arrays, not measured
SIZES = {
    "cloner.build_machine": ("cloner.isometry_bytes_max", lambda machine: machine.isometry.nbytes),
    "cloner.clone_state": ("cloner.output_state_bytes_max", lambda rho: rho.mat.nbytes),
}

NAMES = tuple(f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns) + tuple(METHODS) + (EIGVALSH,)


class Tracer:
    """Call counts, self times and computed array sizes of the traced functions."""

    def __init__(self):
        self.calls = dict.fromkeys(NAMES, 0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.bytes_max = {metric: 0 for metric, _ in SIZES.values()}
        self._child_s = []  # per open call: time spent in traced callees so far

    def wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._child_s
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[name] += elapsed - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if size is not None:
                metric, nbytes = size
                self.bytes_max[metric] = max(self.bytes_max[metric], nbytes(result))
            return result

        return traced

    def install(self):
        """Swap the wrappers in; the process is expected to exit rather than uninstall."""
        homes = {layer: importlib.import_module(f"phaseclone.{layer}") for layer in FUNCTIONS}
        modules = [*homes.values(), importlib.import_module("phaseclone")]
        for layer, fns in FUNCTIONS.items():
            for fn in fns:
                original = getattr(homes[layer], fn)
                wrapped = self.wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        for name, (layer, cls, method) in METHODS.items():
            owner = getattr(homes[layer], cls)
            setattr(owner, method, self.wrap(name, getattr(owner, method)))

        eigvalsh = np.linalg.eigvalsh
        traced_eigvalsh = self.wrap(EIGVALSH, eigvalsh)

        @functools.wraps(eigvalsh)
        def dispatch(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "phaseclone.audit":
                return traced_eigvalsh(*args, **kwargs)
            return eigvalsh(*args, **kwargs)

        np.linalg.eigvalsh = dispatch

    def snapshot(self) -> dict:
        """Per-function calls and self time, per-layer self time, and the computed sizes."""
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for layer in FUNCTIONS:
            out[f"{layer}.self_s"] = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
        out.update(self.bytes_max)
        return out


def unit(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_s"):
        return "s"
    return "bytes-computed"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, ``trace.overhead_s`` included."""
    return list(Tracer().snapshot()) + ["trace.overhead_s"]
