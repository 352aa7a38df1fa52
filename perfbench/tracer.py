"""Outside-in span tracer.

Wraps functions and methods of the program by rebinding the name at the
site that calls it (a module attribute or a class attribute), so the program
itself is not edited. Every call of a wrapped name becomes a span: name,
start, end, parent span and run id, kept in flat in-memory arrays and
written out once, when the run ends.
"""
from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Records spans of wrapped calls; single-threaded by design."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def count(self, key: str):
        self.counts[key] = self.counts.get(key, 0) + 1

    def traced(self, fn, span: str, on_result=None):
        """Return ``fn`` wrapped so that every call records a span."""
        nid = self._name_id(span)
        start, end, name, parent, run = (self.start, self.end, self.name,
                                         self.parent, self.run)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(self, out)
            return out

        return wrapper

    def wrap(self, owner, attr: str, span: str, on_result=None, adapt=None):
        """Rebind ``owner.attr`` to a traced wrapper; a missing target is
        noted and skipped, so a renamed function only drops its span.
        ``adapt(fn)``, when given, returns the callable to trace instead."""
        # class attributes are read from __dict__ so methods stay unbound
        raw = (owner.__dict__.get(attr) if isinstance(owner, type)
               else getattr(owner, attr, None))
        if raw is None or not callable(raw):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, raw))
        fn = adapt(raw) if adapt is not None else raw
        setattr(owner, attr, self.traced(fn, span, on_result))

    def restore(self):
        """Undo every rebinding, newest first."""
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()
        if self.missing:
            print("tracer: targets not found: " + ", ".join(self.missing),
                  file=sys.stderr)

    # -- analysis ---------------------------------------------------------

    def durations(self, span: str, first: int = 0, last: int | None = None):
        """Durations of the spans named ``span`` with index in [first, last)."""
        a = self.arrays()
        sel = slice(first, last)
        mask = a["name"][sel] == self._ids.get(span, -1)
        return (a["end"][sel] - a["start"][sel])[mask].tolist()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path):
        """Write the spans and the name table as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(tracer: Tracer, first: int = 0, last: int | None = None) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Only spans with index in [first, last) count, which selects the subtree
    of one root span because spans are recorded in call order. Self time is
    a span's duration minus the durations of its direct children.
    """
    a = tracer.arrays()
    last = len(a["start"]) if last is None else last
    dur = (a["end"] - a["start"])[first:last]
    name = a["name"][first:last]
    parent = a["parent"][first:last] - first
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_t = dur - child
    k = len(tracer.names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    excl = np.bincount(name, weights=self_t, minlength=k)
    return {n: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                "self_s": float(excl[i])}
            for i, n in enumerate(tracer.names)}
