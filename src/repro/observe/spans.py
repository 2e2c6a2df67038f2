"""Span tracing: nested, attributed wall-clock windows over query processing.

A :class:`SpanTracer` attached to an
:class:`~repro.planner.executor.Executor` records the planning phases
(``plan`` → ``lower`` → ``fragment`` → ``execute``) as they run, measured
with ``time.perf_counter``, plus anything a caller wraps in
:meth:`SpanTracer.span`.  The *simulated* timeline of a finished run is
not re-derived here: it already lives in
``ExecutionMetrics.fragments`` (:class:`~repro.execution.metrics.FragmentActuals`),
which the Perfetto export, the query log and explain render directly.

Tracing is strictly passive: a tracer never touches
``ExecutionMetrics``, so simulated charges and results are bit-identical
with tracing on or off (pinned by ``tests/observe/test_spans.py``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["Span", "SpanTracer"]


@dataclass
class Span:
    """One nested time window.

    ``start_seconds``/``end_seconds`` are relative to the owning trace's
    origin (tracer birth for wall spans, query start for simulated
    ones)."""

    name: str
    category: str = "phase"      # "phase" | "query" | "fragment" | "operator"
    clock: str = "wall"          # "wall" | "simulated"
    start_seconds: float = 0.0
    end_seconds: float = 0.0
    attributes: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_seconds(self) -> float:
        return max(self.end_seconds - self.start_seconds, 0.0)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "clock": self.clock,
            "start_seconds": self.start_seconds,
            "end_seconds": self.end_seconds,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }


class SpanTracer:
    """Collects live wall-clock spans.

    Attach one to an executor (``Executor(..., tracer=tracer)`` or
    ``executor.tracer = tracer``): the executor wraps its planning and
    execution phases in :meth:`span`.  The tracer
    is reusable across executors and queries; ``roots`` accumulates
    top-level wall spans in completion order."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._stack: List[Span] = []
        #: completed top-level wall spans, in completion order.
        self.roots: List[Span] = []

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    @contextmanager
    def span(self, name: str, category: str = "phase", **attributes):
        """Open a wall-clock span; nests under any currently open span."""
        span = Span(
            name=name,
            category=category,
            clock="wall",
            start_seconds=self._now(),
            attributes=dict(attributes),
        )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_seconds = self._now()
            self._stack.pop()
