"""Span tracing of corecov from outside the package.

`Tracer` replaces named module functions of corecov with wrappers that record
one span per call (name, start, end, parent span, operation id) in flat
in-memory arrays, together with the counts the per-layer metrics need.  The
wrappers are installed as module attributes, so calls made inside the package
through `module.function` or through a module-global name are traced too.
Nothing under src/ is changed; leaving the `with` block restores every
original function.
"""

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Context manager tracing the functions named "module.function".

    under:     {child: ancestor}; counts the calls of child made while a call
               of ancestor is open (for example flip-flops inside a retraction).
    nbytes:    names whose results' `nbytes` are summed (bytes computed from
               output shapes, not measured traffic).
    observers: {name: callable(result)}, run after each call that returns.
    A name whose function no longer exists is listed in `absent` and skipped.
    Set `op` to tag the spans of each benchmark operation.
    """

    def __init__(self, names, under=None, nbytes=(), observers=None):
        self.names = list(names)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.under = dict(under or {})
        self.nbytes_names = set(nbytes)
        self.observers = dict(observers or {})
        self.absent = []
        self.op = -1
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.under_counts = [0] * len(self.names)
        self.nbytes = [0] * len(self.names)
        self._active = [0] * len(self.names)
        self._stack = []
        self._originals = []

    def __enter__(self):
        for name in self.names:
            module_name, func_name = name.rsplit(".", 1)
            module = importlib.import_module(f"corecov.{module_name}")
            fn = getattr(module, func_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self._originals.append((module, func_name, fn))
            setattr(module, func_name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for module, func_name, fn in reversed(self._originals):
            setattr(module, func_name, fn)
        self._originals.clear()
        return False

    def _wrap(self, name, fn):
        nid = self.ids[name]
        ancestor = self.ids.get(self.under.get(name))
        observe = self.observers.get(name)
        track_bytes = name in self.nbytes_names
        names, parents, ops = self.name, self.parent, self.op_id
        starts, ends = self.start, self.end
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            if ancestor is not None and active[ancestor]:
                self.under_counts[nid] += 1
            active[nid] += 1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[nid] -= 1
                starts[idx] = t0
                ends[idx] = t1
            if track_bytes:
                self.nbytes[nid] += result.nbytes
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def spans(self):
        """All spans as numpy arrays, one entry per call in call order."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def durations(self, name):
        """Wall time of every span of one function, in call order."""
        sp = self.spans()
        mask = sp["name"] == self.ids[name]
        return sp["end"][mask] - sp["start"][mask]

    def summary(self):
        """Per-function calls and inclusive time, per-module self time.

        A span's self time is its duration minus that of its direct child
        spans, so summing self time over every span gives the time covered by
        root spans.  A module's self time is the sum over its functions'
        spans: time in a child span of the same module stays with the module.
        """
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        child = np.zeros_like(dur)
        inner = sp["parent"] >= 0
        np.add.at(child, sp["parent"][inner], dur[inner])
        k = len(self.names)
        calls = np.bincount(sp["name"], minlength=k)
        total = np.bincount(sp["name"], weights=dur, minlength=k)
        own = np.bincount(sp["name"], weights=dur - child, minlength=k)
        modules = {}
        for i, name in enumerate(self.names):
            module = name.split(".", 1)[0]
            modules[module] = modules.get(module, 0.0) + float(own[i])
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "total_s": {n: float(total[i]) for i, n in enumerate(self.names)},
            "module_self_s": modules,
            "root_s": float(dur[~inner].sum()),
        }

    def save(self, path):
        """Write the spans and the name table to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.spans())
