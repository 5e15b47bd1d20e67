"""Outside-in tracing of relhomalg: spans around the public functions and
methods of each module, installed from outside the package.

Modules bind each other's functions at import time (``from .rep import
hom_space``), so a wrapper replaces every module-level binding of the same
function object across ``relhomalg.*``. Methods are patched on the class that
defines them. Per-scalar ``Field`` methods and ``Matrix.__init__``/``at`` are
never wrapped: they run tens of millions of times, and a span around them
would measure the wrapper.

Each span records its caller through a stack, so the time spent in child
spans is subtracted and every span reports its self time. Spans read
``perf_counter``; ``summary`` scales the times, so that a caller can convert
them to reference host speed. A layer's self
time is the sum over its spans; time in unwrapped helpers goes to the
nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# Module (under relhomalg.) -> layer.
LAYERS = {
    "fields": "matrix",
    "matrix": "matrix",
    "quiver": "rep",
    "rep": "rep",
    "relative": "relative",
    "complexes": "complexes",
    "tilting": "tilting",
    "algebra": "algebra",
    "reports": "bounds",
    "bounds": "bounds",
    "schema": "schema",
    "cli": "cli",
}

# Dunder methods that do real work and are wrapped like public methods.
WRAPPED_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__")

NEVER_WRAPPED = {"Matrix.__init__", "Matrix.at"}


class Tracer:
    """Span statistics for one process: calls and self time per span name,
    plus the counters that need a look at arguments or results."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.stats: list[list] = []      # per span: [calls, self s, total s, depth]
        self.stack: list[float] = [0.0]  # child time of each open span; root first
        self.hom_seen: dict = {}         # (id(m), id(n)) -> (m, n, result)
        self.hom_hits = 0
        self.products = 0

    def install(self):
        """Wrap every traced function and method of relhomalg."""
        modules = {short: importlib.import_module(f"relhomalg.{short}") for short in LAYERS}
        modules[""] = importlib.import_module("relhomalg")
        replaced: dict[int, object] = {}
        for short, layer in LAYERS.items():
            mod = modules[short]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{obj.__qualname__}", layer)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and short != "fields"):
                    self._wrap_class(obj, layer)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, layer: str):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            if f"{cls.__name__}.{attr}" in NEVER_WRAPPED:
                continue
            if isinstance(raw, staticmethod):
                fn = raw.__func__
                setattr(cls, attr, staticmethod(self._wrap(fn, f"{layer}.{fn.__qualname__}", layer)))
            elif isinstance(raw, classmethod):
                fn = raw.__func__
                setattr(cls, attr, classmethod(self._wrap(fn, f"{layer}.{fn.__qualname__}", layer)))
            elif inspect.isfunction(raw) and raw.__module__ == cls.__module__:
                setattr(cls, attr, self._wrap(raw, f"{layer}.{raw.__qualname__}", layer))

    def _wrap(self, fn, name: str, layer: str):
        self.names.append(name)
        self.layers.append(layer)
        stat = [0, 0.0, 0.0, 0]
        self.stats.append(stat)
        stack = self.stack
        clock = time.perf_counter
        post = None
        if name == "rep.hom_space":
            post = self._count_hom_hit
        elif name == "tilting.end_algebra":
            post = self._count_products

        def span(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            stat[3] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stack[-1] += dt
                stat[3] -= 1
                if not stat[3]:  # a recursive call's time is already in its caller's
                    stat[2] += dt
            if post is not None:
                post(args, result)
            return result

        return functools.wraps(fn)(span)

    def _count_hom_hit(self, args, result):
        m, n = args[0], args[1]
        key = (id(m), id(n))
        seen = self.hom_seen.get(key)
        if seen is not None and seen[0] is m and seen[1] is n and seen[2] is result:
            self.hom_hits += 1
        else:
            self.hom_seen[key] = (m, n, result)

    def _count_products(self, args, result):
        self.products += result.dim * result.dim

    def summary(self, scale: float = 1.0) -> dict:
        """[calls, self s, total s] per span name and self s per layer, all
        times multiplied by ``scale``."""
        spans = {}
        layers = {layer: 0.0 for layer in LAYERS.values()}
        for name, layer, (calls, self_s, total_s, _) in zip(self.names, self.layers, self.stats):
            if calls:
                spans[name] = [calls, self_s * scale, total_s * scale]
            layers[layer] += self_s * scale
        return {"spans": spans, "layers": layers,
                "hom_hits": self.hom_hits, "products": self.products}
