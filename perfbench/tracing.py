"""Per-layer tracing of kgl from outside the package.

A layer is a module of the kgl package. Every public module-level function
is replaced, on every kgl module that binds it (so `from .numlin import frob`
bindings are covered too), by a wrapper that records a span: name, start,
end and the index of the enclosing span. Leaf functions called thousands of
times per report are counted instead of spanned. `np.linalg.eigh` is
counted as well, with the number of distinct input matrices and the sum of
n^3 over calls. Spans stay in memory until the traced call returns.

Installing a tracer patches the imported package for the rest of the
process, so it is only ever done in a child that exits afterwards.
"""

import collections
import functools
import hashlib
import importlib
import time
import types

LAYERS = ("bundle", "cli", "errors", "formats", "generators", "hilbert_lin", "kernel",
          "krein_core", "krein_lin", "numlin", "reports", "sgpd")

# counted, not spanned: called thousands of times per report
COUNTED = {"numlin.frob"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index]
        self.counts = collections.Counter()
        self.eigh_calls = 0
        self.eigh_n3 = 0
        self._eigh_inputs = set()
        self._stack = []

    # -- installation ------------------------------------------------

    def install(self) -> None:
        import numpy as np

        import kgl
        modules = [importlib.import_module(f"kgl.{name}") for name in LAYERS]
        wrappers = {}
        for mod in modules + [kgl]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.split(".")
                if owner[0] != "kgl" or len(owner) != 2:
                    continue
                if id(obj) not in wrappers:
                    name = f"{owner[1]}.{obj.__name__}"
                    wrappers[id(obj)] = (self._counted(obj, name) if name in COUNTED
                                         else self._spanned(obj, name, owner[1]))
                setattr(mod, attr, wrappers[id(obj)])
        kernel = importlib.import_module("kgl.kernel")
        kernel.OpKernel.block = self._counted(kernel.OpKernel.block, "kernel.block")
        np.linalg.eigh = self._eigh(np.linalg.eigh)

    def _spanned(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _eigh(self, fn):
        import numpy as np

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            m = np.ascontiguousarray(a)
            self.eigh_calls += 1
            self.eigh_n3 += int(m.shape[-1]) ** 3
            h = hashlib.blake2b(m.tobytes(), digest_size=16)
            h.update(repr((m.shape, m.dtype.str)).encode())
            self._eigh_inputs.add(h.digest())
            return fn(a, *args, **kwargs)
        return wrapper

    # -- results -----------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay installed)."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self._eigh_inputs.clear()
        self.eigh_calls = self.eigh_n3 = 0

    def summary(self) -> dict:
        """Per-layer self time, per-function calls and inclusive time, eigh work."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = collections.defaultdict(float)
        incl_s = collections.defaultdict(float)
        calls = collections.Counter(self.counts)
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            self_s[layer] += (end - start) - child[i]
            incl_s[name] += end - start
            calls[name] += 1
        return {
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "calls": dict(calls),
            "eigh": {"calls": self.eigh_calls, "distinct": len(self._eigh_inputs),
                     "n3": self.eigh_n3},
        }

    def span_rows(self, origin: float) -> list:
        """Spans as [name, start_us, end_us, parent], relative to origin."""
        return [[name, round((start - origin) * 1e6), round((end - origin) * 1e6), parent]
                for name, layer, start, end, parent in self.spans]
