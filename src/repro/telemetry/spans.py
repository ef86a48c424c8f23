"""Span tracing: nested timed regions with wall-clock and CPU durations.

A :class:`Span` is a context manager; entering pushes it onto the tracer's
stack (so spans opened inside it become children), exiting records wall and
CPU time.  The :class:`Tracer` keeps two views:

* per-name aggregates in the owning :class:`~repro.telemetry.metrics.MetricsRegistry`
  (count / total wall / total CPU / max wall), which is what snapshots and
  worker merge-back carry;
* the most recent completed root-span *trees* (bounded), for drill-down in
  tests and interactive debugging.

Timing invariant: a child span opens after and closes before its parent,
both on the same monotonic clock, so ``child.wall_s <= parent.wall_s``
always holds within a tree (property-tested).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque

__all__ = ["Span", "Tracer", "NOOP_SPAN"]


class Span:
    """One timed region.  Created via :meth:`Tracer.span`, used as ``with``.

    Attributes (populated on exit):
        wall_s: elapsed wall-clock seconds (monotonic clock).
        cpu_s: elapsed process CPU seconds.
        children: spans fully nested inside this one.
    """

    __slots__ = (
        "name", "attributes", "tracer", "children",
        "wall_s", "cpu_s", "_wall_start", "_cpu_start",
    )

    def __init__(self, name: str, tracer: "Tracer", attributes: dict[str, Any]):
        self.name = name
        self.attributes = attributes
        self.tracer = tracer
        self.children: list[Span] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall_start = 0.0
        self._cpu_start = 0.0

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self._cpu_start = time.process_time()
        self._wall_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self._wall_start
        self.cpu_s = time.process_time() - self._cpu_start
        self.tracer._pop(self)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def tree(self) -> dict:
        """This span and its descendants as nested plain dicts."""
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "children": [child.tree() for child in self.children],
        }


class _NoopSpan:
    """Shared do-nothing span returned whenever telemetry is disabled.

    One module-level instance; entering/exiting touches nothing, so an
    instrumented hot path costs a single global load plus an attribute
    check when telemetry is off.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Builds span trees and feeds per-name aggregates into a registry.

    Args:
        registry: destination for per-name span aggregates.
        max_roots: how many completed root-span trees to retain (oldest
            dropped first) — bounds memory on long runs.
    """

    def __init__(self, registry, max_roots: int = 64) -> None:
        self.registry = registry
        self.roots: Deque[Span] = deque(maxlen=max_roots)
        self._stack: list[Span] = []

    def span(self, name: str, **attributes: Any) -> Span:
        """Open a new span; nests under the currently active span."""
        return Span(name, self, attributes)

    @property
    def active(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- bookkeeping (driven by Span.__enter__/__exit__) ---------------
    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exits arriving out of order (a span kept alive past its
        # parent): unwind to — and including — the exiting span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if not self._stack:
            self.roots.append(span)
        self.registry.record_span(span.name, span.wall_s, span.cpu_s)

    def trees(self) -> list[dict]:
        """The retained completed root spans, oldest first."""
        return [root.tree() for root in self.roots]
