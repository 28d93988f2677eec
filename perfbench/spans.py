"""Spans recorded around the benchmark's calls into lasekit.

A span is (id, op, name, parent, start_ns, end_ns, count): ``op`` is the
operation the call belongs to, shared by all its spans; ``parent`` is the
id of the span open when the call began (-1 for none); ``count`` is the
number of items the call handled (rows, points), 1 unless given.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import time

KEYS = ("id", "op", "name", "parent", "start_ns", "end_ns", "count")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self.op = 0

    def begin_op(self) -> None:
        self.op += 1

    def call(self, name: str, fn, *args, _n: int = 1, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[sid] = (sid, self.op, name, parent, start, end, _n)

    def wrap(self, name: str, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def durations(self, name: str) -> list[tuple[float, int]]:
        """(seconds, count) of every span called ``name``, leaving out the
        warm-up (operation 0)."""
        return [
            ((s[5] - s[4]) * 1e-9, s[6])
            for s in self.spans
            if s is not None and s[2] == name and s[1] > 0
        ]

    def write(self, path: str) -> None:
        """Gzipped JSON lines: the field names, then one list per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write(json.dumps(KEYS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    def begin_op(self) -> None:
        pass

    def call(self, name: str, fn, *args, _n: int = 1, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name: str, fn):
        return fn
