"""Outside-in tracer: spans and counters set around functions of a package.

The tracer patches module and class attributes for one traced run and puts
the originals back on ``uninstall``. Spans nest through a stack, so the
self time of a span is its duration minus the durations of the spans it
directly encloses. It is single-threaded by design: spans recorded in
forked pool workers would be lost, so traced runs use one thread.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.ends[idx] = self.clock()

    def inside(self, name: str) -> bool:
        """True when a span called `name` is open."""
        return any(self.names[i] == name for i in self._stack)

    def durations(self, name: str) -> list[float]:
        return [self.ends[i] - self.starts[i] for i, n in enumerate(self.names) if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += (self.ends[i] - self.starts[i]) - covered[i]
        return dict(out)

    # -- patching --------------------------------------------------------
    def wrap(self, original, span_name: str, after=None):
        """`original` inside a span; `after(tracer, args, kwargs, result)` counts."""

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(span_name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def patch_function(self, module_name: str, attr: str, span_name: str, after=None) -> None:
        """Replace a module-level function everywhere the package refers to it.

        Modules that did ``from x import f`` hold their own reference, so every
        loaded module of the same top-level package is searched for the object.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = self.wrap(original, span_name, after)
        package = module_name.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper, original)

    def patch_method(self, module_name: str, qualname: str, span_name: str, after=None) -> None:
        cls_name, attr = qualname.split(".")
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        self._set(cls, attr, self.wrap(original, span_name, after), original)

    def _set(self, owner, attr, wrapper, original) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])
