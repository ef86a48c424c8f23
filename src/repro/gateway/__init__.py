"""Async HTTP gateway over the detection service + versioned model registry.

The network edge of the serving stack (see ``docs/gateway.md``):

* :class:`~repro.gateway.server.DetectionGateway` — stdlib-only asyncio
  HTTP/1.1 front end feeding the service's bounded admission queues;
* :func:`~repro.gateway.exposition.render_prometheus` — ``/metrics`` in
  Prometheus text exposition format (validated by
  ``scripts/validate_prometheus.py``).

Quick start::

    from repro.gateway import DetectionGateway, GatewayConfig

    # the gateway's loop drains the service; no service.start() needed
    with DetectionGateway(service, registry, GatewayConfig(port=0)) as gw:
        print(f"listening on http://127.0.0.1:{gw.port}")
        ...
"""

from .exposition import render_prometheus
from .server import (
    DetectionGateway,
    GatewayConfig,
    GatewayError,
    outcome_status,
    outcome_to_json,
)

__all__ = [
    "DetectionGateway",
    "GatewayConfig",
    "GatewayError",
    "outcome_status",
    "outcome_to_json",
    "render_prometheus",
]
