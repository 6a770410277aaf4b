"""In-memory spans and counters for the traced benchmark run.

A span covers one call from the benchmark into a library function (or one
whole task).  Spans are kept in a list while the run goes on and written
out once at the end.  Counters are attached to the span that was open when
they were recorded, so a ratio such as paths per ``dual_value`` call is
measured where the work happens.  A span left by an exception counts one
``failed``.

The untraced run uses ``NULL_TRACER``, whose spans record nothing.
"""

from __future__ import annotations

import json
import time

__all__ = ["Tracer", "NULL_TRACER", "span_cost_s"]


class _Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "task", "counters")

    def __init__(self, tracer, name, parent, task):
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.task = task
        self.counters = {}
        self.start = self.end = 0.0

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def __enter__(self):
        tr = self.tracer
        tr.spans.append(self)
        tr._stack.append(len(tr.spans) - 1)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        self.end = time.perf_counter()
        self.tracer._stack.pop()
        if exc_type is not None:
            self.count("failed")
        return False


class Tracer:
    """Records spans (name, start, end, parent span, task id) and counters."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.task_id = None

    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        return _Span(self, name, parent, self.task_id)

    def self_times(self):
        """Per span: duration minus the time its direct children cover.

        Spans come from one thread and nest, so children never overlap and
        the covered time is the sum of their durations.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def aggregate(self):
        """name -> {"calls", "busy_s", "self_s", <counter>: total}."""
        out = {}
        for s, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += s.end - s.start
            agg["self_s"] += self_s
            for k, v in s.counters.items():
                agg[k] = agg.get(k, 0) + v
        return out

    def write(self, path, t0):
        """Write every span as one JSON object, times relative to t0."""
        rows = [
            {
                "name": s.name,
                "start": s.start - t0,
                "end": s.end - t0,
                "parent": s.parent,
                "task": s.task,
                "counters": s.counters,
            }
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"spans": rows}, f)
            f.write("\n")


class _NullSpan:
    __slots__ = ()

    def count(self, key, value=1):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    enabled = False
    task_id = None
    _span = _NullSpan()

    def span(self, name):
        return self._span


NULL_TRACER = _NullTracer()


def span_cost_s(n=5000):
    """Mean wall time one recorded span adds, measured on a scratch tracer."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("calibrate"):
            pass
    return (time.perf_counter() - t0) / n
