"""In-memory span recorder around the public functions of each corepaths layer.

A layer is a module of the package.  Every public function defined in it is
wrapped, and the wrapper is rebound under every name that refers to the
original in any loaded corepaths module: ``from .bijection import
core_from_path`` copies the binding, so ``enumeration.core_from_path`` must
be patched as well as ``bijection.core_from_path``.  Generator functions
are left alone, because their work runs lazily inside the caller's span.

Self time is a span's duration minus the time its child spans cover, kept
exactly with a stack.  Aggregates cover every span; the span log itself is
capped (``SPAN_CAP``) to bound memory, and the number dropped is reported.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time

from workloads import partitions_up_to

LAYERS = {
    "partitions": "corepaths.partitions",
    "bijection": "corepaths.bijection",
    "enumeration": "corepaths.enumeration",
    "identities": "corepaths.identities",
    "oracles": "corepaths.oracles",
    "kernels": "corepaths._kernels",
    "cli": "corepaths.cli",
}
# public methods timed as spans of their layer
METHODS = {"partitions": [("Partition", "contains")]}
SPAN_CAP = 20000


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# counters taken at layer boundaries: span name -> (counter, amount)
COUNTERS = {
    "enumeration.fold_path_sizes": (
        "enumeration.paths_folded",
        lambda a, k, r: math.comb(_arg(a, k, 0, "s") // 2 + _arg(a, k, 1, "t") // 2, _arg(a, k, 0, "s") // 2),
    ),
    "oracles.survey_partitions": (
        "oracles.partitions_covered",
        lambda a, k, r: partitions_up_to(_arg(a, k, 2, "limit")),
    ),
    "oracles.cores_within": ("oracles.cores_found", lambda a, k, r: len(r)),
    "oracles.brute_force_sc_cores": ("oracles.sc_cores_found", lambda a, k, r: len(r)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.job = -1
        self.top_level_s = 0.0  # span time at the top of the stack during jobs
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0

    def install(self) -> None:
        """Wrap every layer that imports; a layer that does not is absent."""
        wrappers = {}
        for layer, modname in LAYERS.items():
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.append(layer)
                continue
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == modname
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name, method in METHODS.get(layer, []):
                cls = getattr(mod, cls_name, None)
                fn = getattr(cls, method, None)
                if fn is not None:
                    setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "corepaths" or modname.startswith("corepaths.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                elif self.job >= 0:
                    self.top_level_s += dur
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[1]
                self.total_s[nid] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, name, start, end, parent, self.job))
                else:
                    self.dropped += 1
            if counter is not None:
                key, amount = counter
                self.counts[key] = self.counts.get(key, 0) + amount(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def report(self) -> dict:
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "total_s": dict(zip(self.names, self.total_s)),
            "counts": self.counts,
            "spans": [
                {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "job": job}
                for sid, name, start, end, parent, job in self.spans
            ],
            "top_level_s": self.top_level_s,
            "spans_dropped": self.dropped,
            "absent_layers": self.absent,
        }
