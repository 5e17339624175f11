"""In-memory spans and per-op values for the benchmark's traced runs.

A span records (op, id, parent, name, start, end); spans of one op share the
op identifier. Self time is a span's duration minus the durations of its
direct children (children run inside their parent and one after another,
so their intervals never overlap). Nothing is written until ``dump``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans and per-op values when enabled; otherwise does nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []           # [op, id, parent, name, start, end]
        self.values = []          # one {name: value} dict per op
        self._stack = []
        self._op = -1

    def begin_op(self):
        if self.enabled:
            self._op += 1
            self.values.append(defaultdict(float))

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = [self._op, len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[1])
        try:
            yield
        finally:
            self._stack.pop()
            rec[5] = time.perf_counter()

    def add(self, name, value):
        """Accumulate a count into the current op."""
        if self.enabled:
            self.values[self._op][name] += value

    def set(self, name, value):
        """Record a per-op value (a ratio, a maximum, a size)."""
        if self.enabled:
            self.values[self._op][name] = value

    def self_times(self):
        """{span name: self seconds} summed per op, one dict per op."""
        out = [defaultdict(float) for _ in self.values]
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for op, sid, _, name, start, end in self.spans:
            out[op][name] += (end - start) - child_time[sid]
        return out

    def dump(self, path, meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "meta": meta,
                "spans": [dict(zip(("op", "id", "parent", "name", "start", "end"), s))
                          for s in self.spans],
                "values": self.values,
            }, fh)
