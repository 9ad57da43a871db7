"""In-memory spans recorded by the benchmark around its own calls.

A span is ``(name, start, end, parent, request)``: ``start``/``end`` are
``time.perf_counter()`` seconds, ``parent`` is the index of the span
that caused it (``None`` for a root) and ``request`` ties the spans of
one unit of work together.  Spans stay in a list for the whole run and
are written out once, at exit, so recording never touches the disk
while something is being timed.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Tuple


class _Span:
    """Context manager that records one span on exit."""

    __slots__ = ("tracer", "name", "request", "index", "start")

    def __init__(self, tracer: "Tracer", name: str, request: Any) -> None:
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer._stack
        # The slot is reserved on entry so children can name their
        # parent by index before the parent has ended.
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        self.start = time.perf_counter()
        stack.append(self.index)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        parent = tracer._stack[-1] if tracer._stack else None
        tracer.spans[self.index] = (
            self.name, self.start, end, parent, self.request
        )


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans; nesting of ``with`` blocks gives the parent."""

    enabled = True

    def __init__(self) -> None:
        self.spans: "List[Optional[Tuple[str, float, float, Optional[int], Any]]]" = []
        self._stack: "List[int]" = []

    def span(self, name: str, request: Any = None) -> _Span:
        return _Span(self, name, request)

    def add(self, name: str, start: float, end: float,
            parent: "Optional[int]" = None, request: Any = None) -> int:
        """Record a span from timestamps taken elsewhere (a request
        whose end is stamped by the thread that resolved it)."""
        self.spans.append((name, start, end, parent, request))
        return len(self.spans) - 1

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is None:
                    continue  # a span still open when the run ended
                name, start, end, parent, request = span
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


class NullTracer:
    """The untraced run: every call is a no-op."""

    enabled = False
    spans: "List[Any]" = []

    def span(self, name: str, request: Any = None) -> _NullSpan:
        return _NULL_SPAN

    def add(self, name: str, start: float, end: float,
            parent: "Optional[int]" = None, request: Any = None) -> None:
        return None


def self_times(spans: "List[Any]") -> "Dict[str, Tuple[int, float]]":
    """Per span name: ``(count, total self seconds)``.

    A span's self time is its duration minus the part of it covered by
    its direct children (children never overlap here: the generator is
    one thread).
    """
    child_time: "Dict[int, float]" = {}
    for span in spans:
        if span is None or span[3] is None:
            continue
        child_time[span[3]] = child_time.get(span[3], 0.0) + span[2] - span[1]
    totals: "Dict[str, Tuple[int, float]]" = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        own = max(0.0, span[2] - span[1] - child_time.get(index, 0.0))
        count, total = totals.get(span[0], (0, 0.0))
        totals[span[0]] = (count + 1, total + own)
    return totals
