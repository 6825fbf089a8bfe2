"""In-memory span tracing of the diffprod layers, from outside the package.

`Tracer` replaces every public function of the layer modules with a
wrapper at every module binding that refers to it: the defining module,
the `from .x import y` copies in other modules, and the package
re-exports.  Each call records a span (function, start, end, parent) in
flat arrays; nothing is written until `write`.  Leaving the `with` block
puts every original binding back; the same tracer can be entered again.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("exactpoly", "nodes", "symmetric", "partfrac", "cli")


class Tracer:
    def __init__(self, package, observers=None):
        """`package` is the imported top-level module; `observers` maps a
        span name such as "nodes.diff_products" to a callback
        `(args, result, parent_name)` run after each call."""
        self.package = package
        self.observers = observers or {}
        self.names: list = []
        self.name_ids: array = array("i")
        self.parents: array = array("q")
        self.starts: array = array("q")
        self.ends: array = array("q")
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)
        prefix = package.__name__ + "."
        self._wrappers = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = f"{mod.__name__.removeprefix(prefix)}.{attr}"
                    self._wrappers[fn] = self._wrap(fn, name)

    def __enter__(self) -> "Tracer":
        for mod in [self.package, *(getattr(self.package, layer) for layer in LAYERS)]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, self._wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        observer = self.observers.get(name)
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name_ids)
            parent = stack[-1] if stack else -1
            self.name_ids.append(name_id)
            self.parents.append(parent)
            self.ends.append(0)
            stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                stack.pop()
            if observer is not None:
                parent_name = self.names[self.name_ids[parent]] if parent >= 0 else None
                observer(args, result, parent_name)
            return result

        return wrapper

    def mark(self) -> int:
        """Span count so far; pass two marks to `summary` to cover the spans
        recorded between them."""
        return len(self.name_ids)

    def summary(self, start: int = 0, end: int | None = None) -> dict:
        """Per-function calls and self time, and per-layer self time, over
        the spans in [start, end).  Self time is a span's duration minus
        the durations of its direct children."""
        end = self.mark() if end is None else end
        child_ns = defaultdict(int)
        for i in range(start, end):
            p = self.parents[i]
            if p >= start:
                child_ns[p] += self.ends[i] - self.starts[i]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for i in range(start, end):
            name = self.names[self.name_ids[i]]
            calls[name] += 1
            self_ns[name] += self.ends[i] - self.starts[i] - child_ns[i]
        layer_ns = defaultdict(int)
        for name, ns in self_ns.items():
            layer_ns[name.split(".")[0]] += ns
        return {
            "calls": dict(calls),
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "layer_self_s": {layer: layer_ns[layer] / 1e9 for layer in LAYERS},
        }

    def write(self, path) -> None:
        """Write all spans once, as gzipped JSON: names plus rows of
        [name index, start ns, end ns, parent row or -1]."""
        rows = zip(self.name_ids, self.starts, self.ends, self.parents)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": [list(r) for r in rows]}, fh,
                      separators=(",", ":"))
