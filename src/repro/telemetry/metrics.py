"""Metric primitives: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` owns every metric recorded in one process.  Its
:meth:`~MetricsRegistry.snapshot` is a plain-``dict`` (JSON- and
pickle-safe) view of the current values, and :meth:`~MetricsRegistry.merge`
folds one snapshot into another registry — the mechanism
:class:`repro.runtime.ParallelExecutor` uses to carry worker-process
metrics back to the coordinator, mirroring how
:class:`repro.runtime.cache.CacheStats` deltas merge back after a fold.

Merge algebra (exercised by ``tests/test_properties_telemetry.py``):

* counters and histograms merge by elementwise addition — associative and
  commutative, so the merged totals are independent of worker scheduling;
* span aggregates merge by summing counts/durations and taking the max of
  maxima — likewise order-independent;
* gauges are *last-writer-wins* in merge order; the executor merges worker
  snapshots in submission order, so the surviving value matches a serial
  run's final write.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SCORE_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
]

#: Default bucket upper bounds for per-symbol log-likelihood scores (the
#: quantity every detector thresholds; more negative means more anomalous).
DEFAULT_SCORE_BUCKETS: tuple[float, ...] = (
    -50.0, -20.0, -10.0, -7.5, -5.0, -4.0, -3.0, -2.5,
    -2.0, -1.5, -1.0, -0.75, -0.5, -0.25, -0.1, 0.0,
)

#: Default bucket upper bounds for wall-clock durations in seconds.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge instead")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    value: float = 0.0
    updates: int = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1


class Histogram:
    """Fixed-boundary histogram of observed values.

    ``boundaries`` are ascending upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the implicit overflow
    bucket past the last bound, so ``len(counts) == len(boundaries) + 1``
    and the bucket counts always sum to the observation count.
    """

    __slots__ = ("boundaries", "counts", "count", "total", "min", "max")

    def __init__(self, boundaries: Iterable[float]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("bucket boundaries must be strictly ascending")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)


@dataclass
class SpanAggregate:
    """Accumulated timing for every completed span of one name."""

    count: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    max_wall_s: float = 0.0

    def record(self, wall_s: float, cpu_s: float) -> None:
        self.count += 1
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        if wall_s > self.max_wall_s:
            self.max_wall_s = wall_s


@dataclass
class MetricsRegistry:
    """All metrics recorded in one process, addressable by name.

    Metric accessors create on first use, so instrumented code never
    pre-registers anything.  The registry holds no locks, thread-locals, or
    open handles — it pickles cleanly across process boundaries.
    """

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    spans: dict[str, SpanAggregate] = field(default_factory=dict)

    # -- accessors (create on first use) -------------------------------
    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        return gauge

    def histogram(
        self, name: str, boundaries: Iterable[float] = DEFAULT_SCORE_BUCKETS
    ) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(boundaries)
        return histogram

    def record_span(self, name: str, wall_s: float, cpu_s: float) -> None:
        aggregate = self.spans.get(name)
        if aggregate is None:
            aggregate = self.spans[name] = SpanAggregate()
        aggregate.record(wall_s, cpu_s)

    # -- export / merge ------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-dict (JSON- and pickle-safe) view of every metric."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {
                k: {"value": g.value, "updates": g.updates}
                for k, g in sorted(self.gauges.items())
            },
            "histograms": {
                k: {
                    "boundaries": list(h.boundaries),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                }
                for k, h in sorted(self.histograms.items())
            },
            "spans": {
                k: {
                    "count": s.count,
                    "wall_s": s.wall_s,
                    "cpu_s": s.cpu_s,
                    "max_wall_s": s.max_wall_s,
                }
                for k, s in sorted(self.spans.items())
            },
        }

    def merge(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this
        registry.  Counter/histogram/span merges are associative and
        commutative; gauges take the snapshot's value when it recorded any
        update (last writer wins in merge order)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, payload in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            if payload["updates"]:
                gauge.value = payload["value"]
            gauge.updates += payload["updates"]
        for name, payload in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, payload["boundaries"])
            if list(histogram.boundaries) != list(payload["boundaries"]):
                raise ValueError(
                    f"histogram {name!r}: bucket boundaries differ; "
                    "cannot merge"
                )
            histogram.counts = [
                a + b for a, b in zip(histogram.counts, payload["counts"])
            ]
            histogram.count += payload["count"]
            histogram.total += payload["sum"]
            if payload["count"]:
                histogram.min = min(histogram.min, payload["min"])
                histogram.max = max(histogram.max, payload["max"])
        for name, payload in snapshot.get("spans", {}).items():
            aggregate = self.spans.get(name)
            if aggregate is None:
                aggregate = self.spans[name] = SpanAggregate()
            aggregate.count += payload["count"]
            aggregate.wall_s += payload["wall_s"]
            aggregate.cpu_s += payload["cpu_s"]
            aggregate.max_wall_s = max(aggregate.max_wall_s, payload["max_wall_s"])

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.spans.clear()
