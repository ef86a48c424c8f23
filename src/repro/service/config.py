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


@dataclass(frozen=True)
class ShardConfig:
    """Process-sharding knobs for
    :class:`~repro.service.sharded.ShardedDetectionService`.

    Attributes:
        shards: worker-process count.  Every registered detector gets a
            lane in every shard; sessions route to one shard by consistent
            hashing of the session id, so each shard's effective admission
            limit is the per-lane ``ServiceConfig.max_queue_depth``.
        virtual_nodes: ring points per shard for the consistent-hash
            router — more points, smoother balance (and smaller remap when
            the shard count changes between deployments).
        restart_crashed_shards: respawn a worker whose process dies.  The
            replacement re-registers the fleet from the shared-memory store
            and re-opens previously opened monitor/stream sessions with
            fresh (gap-marked) sticky state.  When ``False`` the service
            degrades: submissions routed to a dead shard raise
            ``ServiceError`` while the surviving shards keep scoring.
        start_method: ``multiprocessing`` start method for workers
            (default: ``fork`` where available, else the platform default —
            the same preference :class:`repro.runtime.ParallelExecutor`
            uses).
    """

    shards: int = 1
    virtual_nodes: int = 64
    restart_crashed_shards: bool = True
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ServiceError("shards must be positive")
        if self.virtual_nodes <= 0:
            raise ServiceError("virtual_nodes must be positive")
