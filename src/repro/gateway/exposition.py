"""Prometheus text exposition of the telemetry registry + service stats.

The gateway's ``/metrics`` endpoint renders whatever the in-process
telemetry snapshot holds — counters, gauges, fixed-bucket histograms, span
aggregates — plus the service's :class:`~repro.service.service.ServiceStats`
into the `Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ (version
0.0.4), with no client-library dependency:

* dotted repro metric names flatten to legal Prometheus names under the
  ``repro_`` namespace (``service.shed.queue_full`` →
  ``repro_service_shed_queue_full_total``);
* per-entity suffixes become labels (``service.queue.depth.gzip`` →
  ``repro_service_queue_depth{detector="gzip"}``), so a fleet of detectors
  is one metric family, not a family per detector;
* telemetry histograms convert from per-bucket counts to Prometheus's
  cumulative ``_bucket{le=...}`` form with the mandatory ``+Inf`` bucket,
  ``_sum`` and ``_count``;
* span aggregates export as two counters (``repro_span_total``,
  ``repro_span_duration_seconds_total``) labeled by span name.

``scripts/validate_prometheus.py`` holds the line-grammar validator CI
scrapes this output through.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Mapping

__all__ = ["render_prometheus"]

#: Dotted-prefix families whose final dotted component is an entity name,
#: exported as a label instead of being baked into the metric name.
_LABELED_PREFIXES: tuple[tuple[str, str, str], ...] = (
    ("service.queue.depth.", "repro_service_queue_depth", "detector"),
    ("registry.versions.", "repro_registry_versions", "lineage"),
    ("registry.active.", "repro_registry_active_version", "lineage"),
    ("gateway.responses.", "repro_gateway_responses_total", "status"),
)

#: ServiceStats keys that are monotone counters (exported ``_total``);
#: everything else in the stats dict exports as a gauge.
_STATS_COUNTERS = frozenset(
    {
        "submitted",
        "scored",
        "streamed",
        "absorbed",
        "failed",
        "shed_queue_full",
        "shed_oldest",
        "shed_deadline",
        "shed_shutdown",
        "shed_total",
        "batches",
    }
)

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _sanitize(raw: str) -> str:
    name = re.sub(r"[^a-zA-Z0-9_:]", "_", raw)
    if not name or not _NAME_OK.match(name):
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Family:
    """One metric family: TYPE/HELP header plus its grouped samples."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.samples: list[tuple[str, Mapping[str, str], float]] = []
        self._seen: set[tuple] = set()

    def add(self, value: float, labels: Mapping[str, str] | None = None,
            suffix: str = "") -> None:
        """Add one sample; the first writer of a (suffix, labels) key wins.

        Service stats render before the telemetry snapshot, so when both
        carry the same counter (e.g. ``submitted`` and the
        ``service.submitted`` telemetry counter) the stats value — this
        service's own count, where the telemetry counter spans every
        service in the process — is the one exposed, and the output never
        holds duplicate samples (which scrapers reject).
        """
        labels = labels or {}
        key = (suffix, tuple(sorted(labels.items())))
        if key in self._seen:
            return
        self._seen.add(key)
        self.samples.append((suffix, labels, float(value)))

    def render(self) -> Iterable[str]:
        yield f"# HELP {self.name} {_escape_help(self.help_text)}"
        yield f"# TYPE {self.name} {self.kind}"
        for suffix, labels, value in self.samples:
            label_str = ""
            if labels:
                inner = ",".join(
                    f'{key}="{_escape_label(str(val))}"'
                    for key, val in labels.items()
                )
                label_str = "{" + inner + "}"
            yield f"{self.name}{suffix}{label_str} {_format_value(value)}"


class _Exposition:
    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def family(self, name: str, kind: str, help_text: str) -> _Family:
        existing = self._families.get(name)
        if existing is None:
            existing = self._families[name] = _Family(name, kind, help_text)
        return existing

    def render(self) -> str:
        lines: list[str] = []
        for name in sorted(self._families):
            lines.extend(self._families[name].render())
        return "\n".join(lines) + "\n"


def _route(raw: str, default_suffix: str) -> tuple[str, dict[str, str]]:
    """Map one dotted repro metric name to (family name, labels)."""
    for prefix, family, label in _LABELED_PREFIXES:
        if raw.startswith(prefix):
            return family, {label: raw[len(prefix):]}
    name = "repro_" + _sanitize(raw)
    if default_suffix and not name.endswith(default_suffix):
        name += default_suffix
    return name, {}


def render_prometheus(
    snapshot: Mapping | None = None,
    service_stats: Mapping | None = None,
    extra_gauges: Mapping[str, float] | None = None,
) -> str:
    """Render a telemetry snapshot (+ service stats) as exposition text.

    Args:
        snapshot: a :func:`repro.telemetry.snapshot` payload (or ``None``
            for none — e.g. a deployment running with telemetry off still
            exposes its service stats).
        service_stats: a ``ServiceStats.as_dict()`` payload, exported
            under ``repro_service_*``.
        extra_gauges: ad-hoc point-in-time values (``repro_<name>``),
            e.g. the gateway's uptime and inflight-request count.
    """
    expo = _Exposition()
    snapshot = snapshot or {}

    # Stats first: where a stats key and a telemetry counter name the same
    # family, the stats value wins (see _Family.add).
    for key, value in (service_stats or {}).items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if key in _STATS_COUNTERS:
            family = expo.family(
                f"repro_service_{_sanitize(key)}_total",
                "counter",
                f"service stats counter {key}",
            )
        else:
            family = expo.family(
                f"repro_service_{_sanitize(key)}",
                "gauge",
                f"service stats gauge {key}",
            )
        family.add(value)

    for raw, value in snapshot.get("counters", {}).items():
        name, labels = _route(raw, "_total")
        family = expo.family(name, "counter", f"repro counter {raw.rsplit('.', 1)[0] if labels else raw}")
        family.add(value, labels)

    for raw, payload in snapshot.get("gauges", {}).items():
        name, labels = _route(raw, "")
        family = expo.family(name, "gauge", f"repro gauge {raw.rsplit('.', 1)[0] if labels else raw}")
        family.add(payload["value"], labels)

    for raw, payload in snapshot.get("histograms", {}).items():
        name, labels = _route(raw, "")
        family = expo.family(name, "histogram", f"repro histogram {raw}")
        cumulative = 0
        for bound, count in zip(payload["boundaries"], payload["counts"]):
            cumulative += count
            family.add(
                cumulative,
                {**labels, "le": _format_value(bound)},
                suffix="_bucket",
            )
        family.add(payload["count"], {**labels, "le": "+Inf"}, suffix="_bucket")
        family.add(payload["sum"], labels, suffix="_sum")
        family.add(payload["count"], labels, suffix="_count")

    spans = snapshot.get("spans", {})
    if spans:
        count_family = expo.family(
            "repro_span_total", "counter", "completed spans by name"
        )
        wall_family = expo.family(
            "repro_span_duration_seconds_total",
            "counter",
            "cumulative span wall time by name",
        )
        for raw, payload in spans.items():
            count_family.add(payload["count"], {"span": raw})
            wall_family.add(payload["wall_s"], {"span": raw})

    for key, value in (extra_gauges or {}).items():
        family = expo.family(
            f"repro_{_sanitize(key)}", "gauge", f"gateway gauge {key}"
        )
        family.add(value)

    return expo.render()
