"""In-memory spans around calls into coulomb-kit's public functions.

The program itself is not instrumented.  :meth:`Tracer.installed` swaps
every public function of the four layer modules for a recording wrapper,
in every ``coulomb_kit`` module namespace that refers to it, so calls the
layers make to each other (``series_amplitude`` -> ``s_matrix_sequence``
-> ``s_matrix`` -> ``log_gamma``) are recorded too, each with the span
that caused it as its parent.  The originals are put back on exit.

A span is four integers in one flat ``array``: name index, start and end
in ``perf_counter_ns`` and the index of the parent span (-1 for none).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "coulomb_kit"
LAYERS = ("special_functions", "coulomb_core", "summation", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans = array("q")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        name_id = self._name_id(name)
        idx = len(self.spans) // 4
        self.spans.extend((name_id, time.perf_counter_ns(), 0, self._stack[-1]))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[4 * idx + 2] = time.perf_counter_ns()

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans) // 4
            spans.extend((name_id, time.perf_counter_ns(), 0, stack[-1]))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[4 * idx + 2] = time.perf_counter_ns()

        return wrapper

    @contextmanager
    def installed(self, layers=LAYERS):
        """Wrap the public functions of the given layer modules while inside."""
        wrappers = {}
        for layer in layers:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, attr, wrappers[id(obj)][1])
                    patched.append((module, attr, obj))
        try:
            yield
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    @contextmanager
    def recording(self, name: str):
        """Wrap every layer and record the enclosed block as span ``name``."""
        with self.installed(), self.span(name):
            yield

    def table(self) -> np.ndarray:
        """Spans as an (n, 4) int64 array: name, start_ns, end_ns, parent."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4).copy()

    def _select(self, name: str, parent: str | None):
        """The span table and the rows of ``name`` (directly under ``parent``)."""
        t = self.table()
        if name not in self._index or (parent is not None and parent not in self._index):
            return t, np.empty(0, dtype=int)
        sel = t[:, 0] == self._index[name]
        if parent is not None:
            up = t[:, 3]
            sel &= (up >= 0) & (t[np.maximum(up, 0), 0] == self._index[parent])
        return t, np.flatnonzero(sel)

    def durations(self, name: str, parent: str | None = None) -> np.ndarray:
        """Durations in seconds of the spans of a name, in the order recorded."""
        t, rows = self._select(name, parent)
        return (t[rows, 2] - t[rows, 1]) * 1e-9

    def self_times(self, name: str, parent: str | None = None) -> np.ndarray:
        """Durations minus the time covered by direct children, in seconds."""
        t, rows = self._select(name, parent)
        covered = np.zeros(len(t))
        kids = t[:, 3] >= 0
        np.add.at(covered, t[kids, 3], t[kids, 2] - t[kids, 1])
        return (t[rows, 2] - t[rows, 1] - covered[rows]) * 1e-9

    def save(self, path) -> None:
        np.savez_compressed(path, spans=self.table(), names=np.array(self.names))
