"""Per-layer tracing of reflarr, installed from outside its source.

The tracer replaces the public functions and methods of each reflarr
module with timing wrappers, at every place they are bound: a name
imported with ``from .kappa import a_indices`` is a second binding in
``cli`` and ``repfamily``, and ``cyclo`` binds the active coefficient
kernel as ``_mul_reduce``.  Patching only the defining module would
miss those calls.

Calls into the scalar and linear-algebra layers (``cyclo``, ``linalg``)
run millions of times a pass, so they only add to per-function and
per-(parent span, function) totals.  Calls at ``matgroup`` level and
above are also kept as individual spans: name, start, end, parent span
and job id.  Self time is a call's duration minus the time of the
wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = (
    "cyclo", "linalg", "matgroup", "arrangement", "catalog",
    "quadmap", "kappa", "repfamily", "monodromy", "cli",
)
AGGREGATED_LAYERS = ("cyclo", "linalg")
KERNEL_FUNCTIONS = ("mul_reduce", "poly_reduce")
ARITHMETIC_DUNDERS = ("__mul__", "__add__", "__sub__", "__truediv__", "__pow__", "__neg__")
# One-line predicates called around every scalar operation: a wrapper
# would cost several times the call and bury the layer's real work.
UNWRAPPED = ("is_zero", "is_rational")
MAX_SPANS = 1_000_000


class Tracer:
    """Timing wrappers over reflarr, with their totals and spans."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.by_parent = {}  # (parent span name, name) -> [calls, total_s]
        self.counters = {"generate.new_elements": 0, "proportionality.hits": 0}
        self.spans = []  # [name, start, end, parent span id, job id]
        self.spans_dropped = 0
        self.job = None
        self._frames = [0.0]  # time in wrapped children, per open call
        self._open_spans = [(-1, "root")]  # (span id, name)
        self._patches = []  # (owner, attribute, original value)

    # -- wrapping -----------------------------------------------------

    def _wrapper(self, fn, name, is_span, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        by_parent = self.by_parent
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_id, parent_name = open_spans[-1]
            frames.append(0.0)
            if is_span:
                if len(spans) < MAX_SPANS:
                    span = [name, 0.0, 0.0, parent_id, self.job]
                    open_spans.append((len(spans), name))
                    spans.append(span)
                else:
                    span = None
                    self.spans_dropped += 1
                    open_spans.append((parent_id, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                t1 = clock()
                dur = t1 - t0
                children = frames.pop()
                frames[-1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - children
                key = (parent_name, name)
                agg = by_parent.get(key)
                if agg is None:
                    by_parent[key] = [1, dur]
                else:
                    agg[0] += 1
                    agg[1] += dur
                if is_span:
                    open_spans.pop()
                    if span is not None:
                        span[1], span[2] = t0, t1

        return wrapper

    def _result_hook(self, name):
        counters = self.counters
        if name == "matgroup.GroupModel.generate":
            def hook(group):
                counters["generate.new_elements"] += group.order - 1
            return hook
        if name == "linalg.proportionality":
            def hook(c):
                if c is not None:
                    counters["proportionality.hits"] += 1
            return hook
        return None

    def _targets(self, layer, module):
        """(owner, attribute, function, kind) for each traced callable."""
        out = []
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((module, attr, obj, "function"))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for mattr, mobj in vars(obj).items():
                    public = not mattr.startswith("_") and mattr not in UNWRAPPED
                    wanted = public or mattr in ARITHMETIC_DUNDERS or (
                        layer == "cyclo" and mattr == "__init__"
                    )
                    if not wanted:
                        continue
                    if isinstance(mobj, staticmethod):
                        out.append((obj, mattr, mobj.__func__, "staticmethod"))
                    elif isinstance(mobj, functools.cached_property):
                        out.append((obj, mattr, mobj.func, "cached_property"))
                    elif inspect.isfunction(mobj):
                        out.append((obj, mattr, mobj, "function"))
        return out

    def install(self):
        """Wrap every traced callable at every module binding site."""
        modules = {layer: importlib.import_module(f"reflarr.{layer}") for layer in LAYERS}
        replaced = {}  # id(original function) -> wrapper
        for layer, module in modules.items():
            for owner, attr, fn, kind in self._targets(layer, module):
                name = f"{layer}.{fn.__qualname__}"
                wrapper = self._wrapper(
                    fn, name, layer not in AGGREGATED_LAYERS, self._result_hook(name)
                )
                replaced[id(fn)] = wrapper
                if kind == "staticmethod":
                    new = staticmethod(wrapper)
                elif kind == "cached_property":
                    new = functools.cached_property(wrapper)
                    new.__set_name__(owner, attr)
                else:
                    new = wrapper
                if inspect.isclass(owner):
                    self._patch(owner, attr, new)
        kernel = modules["cyclo"]._kernel
        for fname in KERNEL_FUNCTIONS:
            fn = getattr(kernel, fname)
            replaced[id(fn)] = self._wrapper(fn, f"cyclo.kernel.{fname}", False)
        # rebind module globals last, so every alias of a wrapped
        # function, public or private, gets the same wrapper
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and not inspect.isclass(obj):
                    self._patch(module, attr, replaced[id(obj)])
        return self

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready totals: per function, per (parent, function), counters."""
        return {
            "functions": {k: list(v) for k, v in sorted(self.stats.items())},
            "by_parent": [
                [parent, name, calls, total]
                for (parent, name), (calls, total) in sorted(self.by_parent.items())
            ],
            "counters": dict(self.counters),
            "spans": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }

    def write_spans(self, path, jobs):
        """One JSON line per span, after a header naming the jobs."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                                 "jobs": jobs, "dropped": self.spans_dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
