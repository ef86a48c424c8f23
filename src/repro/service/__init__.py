"""Micro-batched multi-tenant detection service.

The serving layer over the reproduction's detectors: many concurrent trace
streams (sessions) score against a fleet of pretrained models through
bounded per-detector queues, drained in micro-batches so each drain is one
vectorized forward pass — the batched hot path :mod:`repro.hmm.forward`
was built for.  Load sheds through typed
:class:`~repro.service.outcomes.Overloaded` outcomes (never silent drops),
and shutdown drains gracefully by default.

Quick start::

    from repro import api
    from repro.service import DetectionService, ServiceConfig

    service = DetectionService(ServiceConfig(max_batch=128))
    service.register("gzip", api.load_pretrained("gzip.npz"), threshold=-4.0)
    tickets = [
        service.submit("gzip", f"tenant-{i}", window=w)
        for i, w in enumerate(windows)
    ]
    service.pump()                       # one drain = one (B, 15) batch
    outcomes = [t.result() for t in tickets]

See ``docs/service.md`` for architecture, knobs, and the telemetry catalog.
"""

from .config import AdmissionPolicy, ServiceConfig
from .fleet import load_fleet, rebuild_detector, resolve_model
from .outcomes import (
    Absorbed,
    Failed,
    Overloaded,
    ScoreOutcome,
    Scored,
    ShedReason,
    Streamed,
    Ticket,
)
from .scheduler import BATCH_SIZE_BUCKETS, MicroBatchScheduler
from .service import DetectionService, ServiceStats
from .sessions import Session, SessionMode

__all__ = [
    "Absorbed",
    "AdmissionPolicy",
    "BATCH_SIZE_BUCKETS",
    "DetectionService",
    "Failed",
    "MicroBatchScheduler",
    "Overloaded",
    "ScoreOutcome",
    "Scored",
    "ServiceConfig",
    "ServiceStats",
    "Session",
    "SessionMode",
    "ShedReason",
    "Streamed",
    "Ticket",
    "load_fleet",
    "rebuild_detector",
    "resolve_model",
]
