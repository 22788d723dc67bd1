"""Span tracing of projcone's public functions, from outside the package.

``Tracer.install`` rebinds every function named in a layer module's
``__all__`` to a wrapper that records a span, in every ``projcone.*``
namespace that holds it, so calls between modules and within a module are
both seen.  ``uninstall`` restores the originals.  The projcone modules
must be imported before a Tracer is made.  Only the traced sends of the
benchmark worker install it; untraced runs patch nothing.

A span holds its name, start, end, parent span and request id.  Spans are
kept in flat arrays in memory and written out once, at the end.  A span's
self time is its duration minus the durations of its direct children
(calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYER_MODULES = ("cli", "matrices", "perron", "cone", "kernels")


def _contraction_coeff_counts(counters, args, kwargs, result):
    # Computed, not measured: the scan divides every column by each column
    # over that column's support, and each division reads two float64
    # operands and writes one quotient.
    M = np.asarray(args[0], dtype=float)
    zero_tol = args[1] if len(args) > 1 else kwargs.get("zero_tol", 0.0)
    n = M.shape[1]
    if n > 1:
        divisions = int(np.count_nonzero(M > zero_tol)) * n
        counters["matrices.scan.divisions"] += divisions
        counters["matrices.scan.bytes_computed"] += 24 * divisions


def _read_matrix_counts(counters, args, kwargs, result):
    counters["cli.read_matrix.bytes_in"] += os.path.getsize(args[0])


def _dumps_counts(counters, args, kwargs, result):
    counters["cli.dumps.bytes_out"] += len(result)


def _perron_counts(counters, args, kwargs, result):
    counters["perron.iterations"] += result.iterations


COUNTERS = (
    "matrices.scan.divisions",
    "matrices.scan.bytes_computed",
    "cli.read_matrix.bytes_in",
    "cli.dumps.bytes_out",
    "perron.iterations",
)

HOOKS = {
    "matrices.contraction_coeff": _contraction_coeff_counts,
    "cli.read_matrix": _read_matrix_counts,
    "cli.dumps": _dumps_counts,
    "perron.perron_iterate": _perron_counts,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._stack: list[int] = []
        self.bindings = self._bindings()

    def _wrap(self, span_name: str, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        hook = HOOKS.get(span_name)
        start, end, names, parents, requests, stack = (
            self.start, self.end, self.name, self.parent, self.request, self._stack)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every binding of a traced function."""
        wrappers = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"projcone.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        bindings = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "projcone" and not mod_name.startswith("projcone."):
                continue
            for attr, value in vars(module).items():
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    bindings.append((module, attr, value, pair[1]))
        return bindings

    def install(self) -> None:
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
        }

    def save(self, fh) -> None:
        np.savez(fh, names=np.array(self.names), **self.arrays())

    def per_span(self) -> dict[str, dict[str, float]]:
        """Calls, self time and inclusive time summed per span name."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(a["name"], minlength=k)
        self_sum = np.bincount(a["name"], weights=self_time, minlength=k)
        total_sum = np.bincount(a["name"], weights=dur, minlength=k)
        return {
            name: {"calls": float(calls[i]), "self_s": float(self_sum[i]), "total_s": float(total_sum[i])}
            for i, name in enumerate(self.names)
        }
