"""Span recording from outside the library.

A Tracer wraps public callables of fistalab; `patched` puts the wrappers in
place for the length of a block and restores the originals after it.  Each call
of a wrapped callable appends one span (name, start, end, parent) to flat
integer arrays, so a traced pass of a few hundred thousand oracle calls
stays a few megabytes.  Spans are written out once, at the end of the run.

A layer's self time is its span time minus the time its direct children
cover.  A span's time includes the cost of starting and ending the spans of
its children, which `span_cost_ns` measures so that per-call figures can be
read against it.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        # work done inside spans, keyed "<span name>.<unit>", e.g. rows written
        self.work: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, work=None):
        """`fn` recorded as span `name`; `work(args, kwargs, result)` may return
        a {unit: count} dict added to `self.work`."""
        nid = self._id(name)
        ids, starts, ends, parents, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns
        wk = self.work

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                for unit, count in work(args, kwargs, result).items():
                    wk[f"{name}.{unit}"] += count
            return result

        traced.__wrapped__ = fn
        return traced

    # -- summaries ---------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in nanoseconds."""
        if not self.start:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        covered = np.zeros(dur.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_ns = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            mask = ids == nid
            out[name] = {"calls": int(mask.sum()), "total_ns": float(dur[mask].sum()),
                         "self_ns": float(self_ns[mask].sum())}
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int64),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64))


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the block; restore on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_cost_ns(repeats: int = 20000) -> float:
    """Median cost one child span adds to its parent's time, in nanoseconds."""
    samples = []
    for _ in range(5):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: None)

        def body():
            for _ in range(repeats):
                inner()

        def bare():
            for _ in range(repeats):
                (lambda: None)()

        t0 = time.perf_counter_ns()
        bare()
        t_bare = time.perf_counter_ns() - t0
        tracer.wrap("outer", body)()
        outer_self = tracer.table()["outer"]["self_ns"]
        samples.append(max(0.0, (outer_self - t_bare) / repeats))
    return float(np.median(samples))
