"""Span tracer that wraps the package's public functions from outside.

Every public function defined in a `qstarlab` module, plus the methods in
METHODS, is replaced by a wrapper that records one span: name, start, end
and the enclosing span (on the same thread, or the main thread's outermost
span for a worker thread's first span).  Each name the package binds to
an original function is rebound to its wrapper, in every module, so a
`from .rates import fit_trend` elsewhere is traced too.  Spans stay in
memory until `export()`.  A few wrappers also count something about the
result (bytes of matrices built, zero residual cells, floor-decided fits).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time

MODULES = ("algebra", "ccr", "cli", "forms", "function_lab", "gns",
           "matrix_lab", "rates", "scenarios", "serialize", "topologies")
METHODS = {"ccr": ("TrigPoly.__mul__",), "topologies": ("BoundedSet.stack",)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: dict[int, tuple] = {}
        self.counters: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        # The outermost span of the main thread; spans that open on an empty
        # stack in a worker thread (the CLI's --jobs pool) hang below it.
        self._root = -1
        self._lock = threading.Lock()

    def _count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, post=None):
        index = len(self.names)
        self.names.append(name)
        local, spans, ids = self._local, self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is threading.main_thread():
                parent = -1
                self._root = sid
            else:
                parent = self._root
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (index, t0, t1, parent)
            if post is not None:
                post(result)
            return result

        return wrapper

    def _post_hooks(self) -> dict:
        from qstarlab import rates

        def matrix_bytes(key):
            return lambda op: self._count(key, op.matrix.nbytes)

        def zero_cells(result):
            trace = result.residual_trace
            self._count("topologies.extend_by_closure.zero_cells",
                        float((trace == 0.0).sum()))
            self._count("topologies.extend_by_closure.cells", float(trace.size))

        def floor_fit(fit):
            self._count("rates.fit_trend.floor",
                        float(fit.tail_max <= rates.VALUE_FLOOR))

        def written(paths):
            self._count("scenarios.write_outcome.bytes",
                        float(sum(os.path.getsize(p) for p in paths)))

        return {"ccr.ccr_represent": matrix_bytes("ccr.ccr_represent.bytes"),
                "function_lab.mult_operator":
                    matrix_bytes("function_lab.mult_operator.bytes"),
                "topologies.extend_by_closure": zero_cells,
                "rates.fit_trend": floor_fit,
                "scenarios.write_outcome": written}

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qstarlab.{name}")
                   for name in MODULES}
        hooks = self._post_hooks()
        wrappers = {}  # id(original) -> wrapper
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(value)] = self.wrap(name, value, hooks.get(name))
            for qualname in METHODS.get(short, ()):
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(f"{short}.{qualname}",
                                               getattr(cls, method)))
        package = importlib.import_module("qstarlab")
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def export(self) -> dict:
        return {"names": self.names,
                "spans": [[sid, *span] for sid, span in self.spans.items()],
                "counters": self.counters}
