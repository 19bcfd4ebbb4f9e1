"""In-memory spans around the benchmark's calls into qmet's layers.

A span holds a name ("<layer>.<function>"), start and end (perf_counter
seconds), the index of its parent span, the id of the operation it belongs
to, and optional counters (rows, nodes, ...).  Spans are kept in a list and
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class NullTracer:
    """Used for the measured runs: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, **counts):
        yield {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = None

    def begin_op(self, op_id):
        self._op = op_id

    @contextmanager
    def span(self, name, **counts):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            **counts,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path):
        path.write_text(json.dumps(self.spans))


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict[str, float]:
    """Total self time per layer: each span's duration minus the time its
    children cover (children of one span never overlap)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += duration(s)
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + duration(s) - child[i]
    return out
