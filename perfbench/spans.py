"""In-memory span tracing of tce's public functions, applied from outside.

Each public function of a layer module is wrapped once; every module
attribute in the ``tce`` package that binds the original (its defining module,
``tce.__init__``, and modules that imported it by name) is pointed at the
wrapper, so calls are seen however the caller reaches the function. Spans hold
(name, start, end, parent, bytes, bytes_computed) and stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "scenario",
    "zoning",
    "markov",
    "_kernels",
    "aggregation",
    "metrics",
    "csvio",
    "svgplot",
    "pipeline",
    "cli",
    "config",
)


def _writes_files(module: str, func: str) -> bool:
    return module in ("csvio", "svgplot") and not func.startswith("load_")


def _array_bytes(values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += _array_bytes(v)
    return total


def _file_bytes(args) -> int:
    return sum(os.path.getsize(a) for a in args if isinstance(a, (str, Path)) and os.path.isfile(a))


def _public_functions(module):
    """Public callables defined in ``module``, keyed by their shortest name
    (``nearest_labels`` rather than its alias ``nearest_labels_np``)."""
    found = {}
    for attr, value in vars(module).items():
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        best = found.get(id(value))
        if best is None or len(attr) < len(best[0]):
            found[id(value)] = (attr, value)
    return {attr: value for attr, value in found.values()}


class Tracer:
    """Wraps the layer functions; ``install``/``uninstall`` switch tracing on
    and off between operations."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.names: set[str] = set()
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules.get(f"tce.{layer}")
            if module is None:
                continue
            for func, fn in _public_functions(module).items():
                name = f"{layer}.{func}"
                self.names.add(name)
                self._wrappers[id(fn)] = self._wrap(name, fn, layer, func)
        self._bindings = [
            (module, attr, value)
            for mod_name, module in list(sys.modules.items())
            if mod_name == "tce" or mod_name.startswith("tce.")
            for attr, value in vars(module).items()
            if id(value) in self._wrappers
        ]

    def _wrap(self, name, fn, layer, func):
        spans, stack = self.spans, self._stack
        files = _writes_files(layer, func)
        kernel = layer == "_kernels"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, perf_counter()
                stack.pop()
            if files:
                span[4] = _file_bytes(args)
            if kernel:
                span[5] = _array_bytes(args) + _array_bytes((result,))
            return result

        return traced

    def install(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, self._wrappers[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)


def layer_stats(spans, first: int = 0) -> dict[str, float]:
    """Per-function totals over ``spans[first:]``: inclusive seconds ``s``,
    ``self_s`` (span time not covered by child spans), ``calls``, ``bytes``
    (file size after a write) and ``bytes_computed`` (array bytes in and out
    of a kernel, from argument shapes)."""
    child_time = [0.0] * len(spans)
    for i in range(first, len(spans)):
        name, start, end, parent, _, _ = spans[i]
        if parent >= first:
            child_time[parent] += end - start
    stats: dict[str, float] = {}
    for i in range(first, len(spans)):
        name, start, end, _, nbytes, computed = spans[i]
        for stat, value in (
            ("s", end - start),
            ("self_s", end - start - child_time[i]),
            ("calls", 1),
            ("bytes", nbytes),
            ("bytes_computed", computed),
        ):
            key = f"{name}.{stat}"
            stats[key] = stats.get(key, 0) + value
    return stats
