"""In-memory spans and per-pass counters recorded around calls into switchlab.

A span holds its name, start, end, parent span and pass id.  Spans stay in
memory until the run ends; ``Tracer.dump`` then writes them out.  The
untraced passes use ``NULL_TRACER``, whose span and counter calls do nothing,
so both kinds of pass run the same workload code.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "span_id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.span_id = len(t.spans) + len(t.stack)
        self.parent = t.stack[-1].span_id if t.stack else None
        t.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t.stack.pop()
        t.spans.append((self.span_id, self.parent, t.pass_id, self.name, self.start, end))
        return False


class Tracer:
    """Records spans and named per-pass counters; one per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id, pass id, name, start, end)
        self.stack: list[_Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id: int | None = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, value: float) -> None:
        self.counts[self.pass_id][name] += value

    def self_times(self, pass_id: int) -> dict[str, float]:
        """Seconds per span name in one pass: each span's duration minus the
        part of it that its child spans cover."""
        spans = [s for s in self.spans if s[2] == pass_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, start, end in spans:
            out[name] += end - start - child_time[span_id]
        return out

    def calls(self, pass_id: int) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if s[2] == pass_id:
                out[s[3]] += 1
        return out

    def dump(self, path) -> None:
        """Write every span and counter recorded in this run as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["id", "parent", "pass", "name", "start", "end"],
                "spans": self.spans,
                "counts": {str(k): dict(v) for k, v in self.counts.items()},
            }, fh)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def add(self, name: str, value: float) -> None:
        pass


NULL_TRACER = _NullTracer()
