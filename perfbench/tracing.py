"""Spans around wattbench's public entry points, recorded from outside.

A wrapper replaces a module or class attribute for the life of the
process; nothing inside ``src/wattbench`` changes. Spans are kept in
memory as tuples and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # (span_id, parent_id, name, start_s, end_s, info)
        self.spans: list[tuple] = []
        # spans are dropped while False, e.g. while the benchmark checks results
        self.recording = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``info(args, kwargs, result)``, when given, returns a dict stored
        with the span; it runs after the span has ended.
        """
        fn = getattr(owner, attr)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if tracer.recording:
                spans.append((span_id, parent, name, start, end,
                              info(args, kwargs, result) if info else None))
            return result

        setattr(owner, attr, traced)

    def durations_ms(self, name: str) -> list[float]:
        return [(s[4] - s[3]) * 1e3 for s in self.spans if s[2] == name]

    def infos(self, name: str) -> list[dict]:
        return [s[5] for s in self.spans if s[2] == name]

    def per_ancestor_ms(self, ancestor: str, *names: str) -> list[float]:
        """Total time of spans named any of ``names`` under each ``ancestor`` span."""
        by_id = {s[0]: s for s in self.spans}
        totals: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[2] not in names:
                continue
            parent = s[1]
            while parent is not None and by_id[parent][2] != ancestor:
                parent = by_id[parent][1]
            if parent is not None:
                totals[parent] += (s[4] - s[3]) * 1e3
        for s in self.spans:
            if s[2] == ancestor:
                totals.setdefault(s[0], 0.0)
        return list(totals.values())

    def median_ms(self, name: str) -> float:
        return statistics.median(self.durations_ms(name))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, info in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_s": start, "end_s": end, "info": info}) + "\n")


def span_cost_ms(calls: int = 20_000) -> float:
    """Measured cost of recording one span: a wrapped no-op against a bare one."""

    class Probe:
        @staticmethod
        def noop():
            return None

    bare = Probe.noop
    start = time.perf_counter()
    for _ in range(calls):
        bare()
    bare_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.wrap(Probe, "noop", "probe")
    wrapped = Probe.noop
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    wrapped_s = time.perf_counter() - start
    return max(wrapped_s - bare_s, 0.0) / calls * 1e3
