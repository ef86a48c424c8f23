"""Telemetry: spans and metrics for the whole pipeline.

(Named ``telemetry`` — not ``tracing`` — because :mod:`repro.tracing` is
the *program-trace* substrate; this package is about observing the
detector pipeline itself.)

Everything routes through one module-level switch:

* **Disabled (the default)** — every helper below is a no-op: ``span()``
  returns a shared do-nothing context manager and the metric writers
  return immediately after a single global load + ``None`` check.  The
  golden-number suite (``tests/test_golden.py``) proves results are
  bit-identical with telemetry on or off.
* **Enabled** (:func:`enable`, :func:`session`, or the CLI's
  ``--metrics-out`` / ``REPRO_METRICS_OUT``) — spans build timed trees and
  counters/gauges/histograms accumulate in a
  :class:`~repro.telemetry.metrics.MetricsRegistry`.

:func:`snapshot` exports the registry as a plain JSON-safe dict (see
``docs/telemetry.md`` for the schema and metric catalog), and
:func:`merge_snapshot` folds worker-process snapshots back into the
coordinating process — :class:`repro.runtime.ParallelExecutor` does this
automatically, so ``--jobs N`` produces the same merged counters as a
serial run.

Typical use::

    from repro import telemetry

    with telemetry.session() as registry:
        run_accuracy_comparison("gzip", CallKind.SYSCALL)
        print(registry.snapshot()["spans"]["hmm.train.iteration"])
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from .metrics import (
    DEFAULT_SCORE_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import NOOP_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_SCORE_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "counter_add",
    "disable",
    "enable",
    "enabled",
    "gauge_set",
    "get",
    "merge_snapshot",
    "observe",
    "observe_many",
    "session",
    "snapshot",
    "span",
    "write_snapshot",
]


@dataclass
class Telemetry:
    """One enabled telemetry context: registry + tracer."""

    registry: MetricsRegistry
    tracer: Tracer


#: The active context, or ``None`` when telemetry is off.  Instrumented
#: code never touches this directly — it calls the helpers below, whose
#: disabled cost is one global load and a ``None`` check.
_STATE: Telemetry | None = None


def enabled() -> bool:
    """Whether telemetry is currently recording."""
    return _STATE is not None


def get() -> Telemetry | None:
    """The active :class:`Telemetry` context, or ``None`` when disabled."""
    return _STATE


def enable(
    registry: MetricsRegistry | None = None, max_roots: int = 64
) -> Telemetry:
    """Switch telemetry on (replacing any active context) and return it."""
    global _STATE
    registry = registry if registry is not None else MetricsRegistry()
    _STATE = Telemetry(registry=registry, tracer=Tracer(registry, max_roots=max_roots))
    return _STATE


def disable() -> Telemetry | None:
    """Switch telemetry off; returns the context that was active (its
    registry keeps the recorded values, so a final snapshot still works)."""
    global _STATE
    state = _STATE
    _STATE = None
    return state


@contextmanager
def session(
    registry: MetricsRegistry | None = None, max_roots: int = 64
) -> Iterator[MetricsRegistry]:
    """Enable telemetry for a ``with`` block, then restore the previous
    state (which is how tests isolate their telemetry)."""
    global _STATE
    previous = _STATE
    state = enable(registry=registry, max_roots=max_roots)
    try:
        yield state.registry
    finally:
        _STATE = previous


# ---------------------------------------------------------------------------
# Instrumentation helpers (no-ops while disabled)
# ---------------------------------------------------------------------------


def span(name: str, **attributes: Any):
    """A timed span context manager, or the shared no-op when disabled."""
    state = _STATE
    if state is None:
        return NOOP_SPAN
    return state.tracer.span(name, **attributes)


def counter_add(name: str, amount: float = 1) -> None:
    """Increment a counter (created on first use)."""
    state = _STATE
    if state is None:
        return
    state.registry.counter(name).inc(amount)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge to a point-in-time value."""
    state = _STATE
    if state is None:
        return
    state.registry.gauge(name).set(value)


def observe(
    name: str, value: float, boundaries: Iterable[float] = DEFAULT_SCORE_BUCKETS
) -> None:
    """Record one observation into a fixed-bucket histogram."""
    state = _STATE
    if state is None:
        return
    state.registry.histogram(name, boundaries).observe(value)


def observe_many(
    name: str,
    values: Iterable[float],
    boundaries: Iterable[float] = DEFAULT_SCORE_BUCKETS,
) -> None:
    """Record a batch of observations into a fixed-bucket histogram."""
    state = _STATE
    if state is None:
        return
    state.registry.histogram(name, boundaries).observe_many(values)


# ---------------------------------------------------------------------------
# Export / merge
# ---------------------------------------------------------------------------


def snapshot() -> dict:
    """The active registry as a plain JSON-safe dict (empty schema when
    disabled), plus the retained span trees."""
    state = _STATE
    if state is None:
        payload = MetricsRegistry().snapshot()
        payload["enabled"] = False
        payload["span_trees"] = []
        return payload
    payload = state.registry.snapshot()
    payload["enabled"] = True
    payload["span_trees"] = state.tracer.trees()
    return payload


def merge_snapshot(payload: dict) -> None:
    """Fold a worker-process snapshot into the active registry (no-op when
    disabled).  Span trees are not merged — only the aggregates travel."""
    state = _STATE
    if state is None:
        return
    state.registry.merge(payload)


def write_snapshot(path: str | Path) -> Path:
    """Write :func:`snapshot` as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(snapshot(), indent=2) + "\n", encoding="utf-8")
    return path


def _begin_worker_capture() -> Telemetry:
    """(Internal) Install a fresh enabled context in a worker process.

    Forked workers inherit the coordinator's registry contents; capturing
    into a fresh registry makes each task's snapshot a clean *delta* that
    the coordinator can merge exactly once.  Called by
    :class:`repro.runtime.ParallelExecutor`'s task wrapper.
    """
    return enable()
