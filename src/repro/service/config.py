"""Service configuration: batching, queue bounds, and admission policy."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ServiceError
from ..tracing.segments import DEFAULT_SEGMENT_LENGTH


class AdmissionPolicy(enum.Enum):
    """What to do when a detector queue is at ``max_queue_depth``."""

    #: Refuse the new arrival (it resolves ``Overloaded(QUEUE_FULL)``).
    REJECT_NEW = "reject-new"
    #: Evict the oldest pending request (it resolves
    #: ``Overloaded(SHED_OLDEST)``) and admit the new one — fresher data
    #: wins, the deployment stance for live monitoring feeds.
    SHED_OLDEST = "shed-oldest"


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one :class:`~repro.service.service.DetectionService`.

    Attributes:
        max_batch: most windows scored in one drain's forward pass; the
            drain loops until the queue is empty, so this bounds *batch
            shape*, not throughput.
        max_queue_depth: pending-request bound per detector; arrivals
            beyond it trigger ``admission_policy``.
        admission_policy: see :class:`AdmissionPolicy`.
        latency_budget_s: optional enqueue-to-score budget; requests older
            than this at drain time resolve ``Overloaded(DEADLINE)``
            instead of being scored late.
        default_window: sliding-window length for monitor/stream sessions
            (the paper's 15).
    """

    max_batch: int = 256
    max_queue_depth: int = 1024
    admission_policy: AdmissionPolicy = AdmissionPolicy.REJECT_NEW
    latency_budget_s: float | None = None
    default_window: int = DEFAULT_SEGMENT_LENGTH

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ServiceError("max_batch must be positive")
        if self.max_queue_depth <= 0:
            raise ServiceError("max_queue_depth must be positive")
        if self.latency_budget_s is not None and self.latency_budget_s <= 0:
            raise ServiceError("latency_budget_s must be positive (or None)")
        if self.default_window <= 0:
            raise ServiceError("default_window must be positive")
