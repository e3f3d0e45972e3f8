"""In-memory span tracing of the library's public functions.

The tracer replaces functions with wrappers in the namespaces that call
them (a class attribute for methods, every module that imported a function
by name) and records one span per call: name, parent span, start and end.
Spans stay in typed arrays (`array.array`) until the run ends; `summary`
turns them into per-layer calls and self times, and `save` writes them out.

Self time is a span's duration minus the time its child spans cover.  The
process is single threaded, so children never overlap and the covered time
is the sum of the child durations.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np


class Tracer:
    """Span recorder with patch/restore of traced functions."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {}
        self._stack = [-1]
        self._patches = []

    # ------------------------------------------------------------------
    # recording

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, nid, func, args, kwargs):
        """Run ``func`` inside a span named by ``nid``."""
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.span_start[sid] = start
            self.span_end[sid] = end

    def unwind(self):
        """Drop stack entries that an interrupted call left behind (an
        alarm can land between a wrapper's bookkeeping steps)."""
        del self._stack[1:]

    # ------------------------------------------------------------------
    # patching

    def wrap(self, owner, attr, name, hook=None):
        """Replace ``owner.attr`` by a traced wrapper.

        ``name`` is a span name or a callable ``name(bound_arguments)``
        returning one; ``hook(tracer, bound_arguments, result)`` adds
        computed counts after each call.  Both callables receive the call's
        arguments bound to the original signature.
        """
        original = getattr(owner, attr)
        tracer = self
        if callable(name) or hook is not None:
            signature = inspect.signature(original)

            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                label = name(bound) if callable(name) else name
                result = tracer.call(tracer.name_id(label), original, args, kwargs)
                if hook is not None:
                    hook(tracer, bound, result)
                return result
        else:
            nid = self.name_id(name)

            def wrapper(*args, **kwargs):
                return tracer.call(nid, original, args, kwargs)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put every patched function back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results

    def arrays(self):
        names = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parents = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        starts = np.frombuffer(self.span_start, dtype=np.float64).copy()
        ends = np.frombuffer(self.span_end, dtype=np.float64).copy()
        return names, parents, starts, ends

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        names, parents, starts, ends = self.arrays()
        dur = ends - starts
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                              minlength=len(names))
        self_time = dur - covered
        stats = {}
        for nid, label in enumerate(self.names):
            mask = names == nid
            stats[label] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return stats

    def save(self, path):
        names, parents, starts, ends = self.arrays()
        np.savez(path, name=names, parent=parents, start=starts, end=ends,
                 names=np.array(self.names))
