"""The detection service: many sessions, a fleet of detectors, one batcher.

:class:`DetectionService` is the deployment front door the paper's Section V
points at ("offline/parallel evaluation" of 15-call windows): concurrent
trace streams (*sessions*) submit windows or raw symbols against pretrained
detectors; a micro-batching scheduler drains each detector's bounded queue
and scores every ready window of a drain in **one** vectorized forward
pass.  Admission control sheds load with typed
:class:`~repro.service.outcomes.Overloaded` outcomes instead of blocking or
dropping.

Two deployment shapes:

* **synchronous** — call :meth:`DetectionService.pump` (or
  :meth:`drain_pending`) from your own loop; tickets resolve before pump
  returns.  Deterministic; what the tests and benchmarks drive, and what
  the HTTP gateway's event loop does.
* **threaded** — :meth:`start` launches a background drain loop that
  sleeps until a ``submit`` wakes it (no idle polling) and drains until a
  round resolves nothing; tickets resolve as the loop gets to them, and
  the loop survives scoring errors (a crashed drain resolves its tickets
  ``Failed`` and keeps going).  ``submit`` never waits for a *future*
  batch, but it does share one service lock with the drain, so a producer
  can block for up to one in-flight micro-batch's forward pass: a producer
  that finds the lock busy waits at a gate the drain loop passes before
  each round, so it goes next instead of losing the lock to the loop's
  next round.
  :meth:`close` stops the loop and (by default) gracefully drains
  everything still queued.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .. import telemetry
from ..core.detector import Detector
from ..errors import (
    NotFittedError,
    ServiceClosedError,
    ServiceError,
    SessionNotOpenError,
    UnknownDetectorError,
)
from ..hmm.model import HiddenMarkovModel
from .config import ServiceConfig
from .outcomes import Overloaded, ShedReason, Ticket
from .scheduler import DetectorLane, MicroBatchScheduler, PendingRequest
from .sessions import Session, SessionMode

log = logging.getLogger(__name__)


@dataclass
class ServiceStats:
    """Aggregate counters for one service instance (all detectors)."""

    submitted: int = 0
    scored: int = 0
    streamed: int = 0
    absorbed: int = 0
    failed: int = 0
    shed_queue_full: int = 0
    shed_oldest: int = 0
    shed_deadline: int = 0
    shed_shutdown: int = 0
    batches: int = 0
    max_batch_size: int = 0
    max_depth_seen: int = 0
    _shed_counter: dict = field(default_factory=dict, repr=False)

    @property
    def shed_total(self) -> int:
        return (
            self.shed_queue_full
            + self.shed_oldest
            + self.shed_deadline
            + self.shed_shutdown
        )

    @property
    def shed_rate(self) -> float:
        """Shed requests as a fraction of submissions (0 when idle)."""
        return self.shed_total / self.submitted if self.submitted else 0.0

    def count_shed(self, reason: ShedReason) -> None:
        attr = f"shed_{reason.value}".replace("shed_shed_", "shed_")
        setattr(self, attr, getattr(self, attr) + 1)
        telemetry.counter_add(f"service.shed.{reason.value}")

    def count_failed(self) -> None:
        self.failed += 1
        telemetry.counter_add("service.failed")

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.max_batch_size = max(self.max_batch_size, size)
        telemetry.counter_add("service.batches")

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "scored": self.scored,
            "streamed": self.streamed,
            "absorbed": self.absorbed,
            "failed": self.failed,
            "shed_queue_full": self.shed_queue_full,
            "shed_oldest": self.shed_oldest,
            "shed_deadline": self.shed_deadline,
            "shed_shutdown": self.shed_shutdown,
            "shed_total": self.shed_total,
            "shed_rate": self.shed_rate,
            "batches": self.batches,
            "max_batch_size": self.max_batch_size,
            "max_depth_seen": self.max_depth_seen,
        }


class DetectionService:
    """Micro-batched, multi-tenant scoring over a fleet of detectors.

    Args:
        config: batching/queueing knobs (:class:`ServiceConfig`).
        clock: monotonic time source; injectable so tests can steer the
            latency budget deterministically.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self.clock = clock
        self.stats = ServiceStats()
        self._lanes: dict[str, DetectorLane] = {}
        self._sessions: dict[tuple[str, str], Session] = {}
        self._scheduler = MicroBatchScheduler(self.config, clock)
        self._lock = threading.RLock()
        # The lock is not fair: the drain loop releases it and takes it
        # back for its next round before a woken waiter runs, so a
        # submitter could wait out a whole backlog.  A submitter that finds
        # the lock busy waits for it holding this gate, and the drain loop
        # passes the gate before each round, so the waiter goes first.
        self._gate = threading.Lock()
        self._closed = False
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._wake = threading.Event()

    # ------------------------------------------------------------------
    # Fleet registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        detector: Detector,
        threshold: float | None = None,
        window: int | None = None,
    ) -> None:
        """Add a fitted detector to the fleet under ``name``.

        Args:
            name: routing key used by :meth:`submit` / :meth:`open_session`.
            detector: a fitted (or pretrained-loaded) detector.
            threshold: operating threshold; required for monitor sessions,
                and when present every :class:`Scored` outcome carries the
                ``score < threshold`` verdict.
            window: sliding-window length for monitor/stream sessions
                (defaults to ``config.default_window``).
        """
        if not detector.is_fitted:
            raise NotFittedError(
                f"detector {name!r} is not fitted; the service only scores"
            )
        # Fail at the door, not at drain time: the scheduler's batched
        # forward pass needs an HMM (mirrors StreamingScorer.for_detector).
        if not isinstance(getattr(detector, "model", None), HiddenMarkovModel):
            raise ServiceError(
                f"detector {name!r} exposes no HiddenMarkovModel via .model; "
                "the micro-batched service scores HMM-backed detectors only "
                "(n-gram/ensemble baselines are not servable)"
            )
        with self._lock:
            self._require_open()
            if name in self._lanes:
                raise ServiceError(f"detector {name!r} already registered")
            self._lanes[name] = DetectorLane(
                name=name,
                detector=detector,
                threshold=threshold,
                window=window if window is not None else self.config.default_window,
            )

    def register_fleet(
        self, detectors: Mapping[str, Detector], thresholds: Mapping[str, float] | None = None
    ) -> None:
        """Register many detectors at once (e.g. from
        :func:`repro.service.fleet.load_fleet`)."""
        thresholds = thresholds or {}
        for name, detector in detectors.items():
            self.register(name, detector, threshold=thresholds.get(name))

    def swap_detector(self, name: str, detector: Detector) -> int:
        """Warm-swap a retrained detector into a live lane.

        The **swap barrier**: the lane's queue is drained to empty first,
        so every window admitted before the swap scores bit-identically to
        what the pre-swap detector would have produced; only requests
        admitted after the barrier see the new model.  Open sessions are
        rebound in place (:meth:`Session.swap_detector`) — they are neither
        dropped nor gap-marked, because no symbol of their stream was lost.

        Returns how many pending requests the barrier drain resolved.

        Same validation as :meth:`register`; the lane's threshold and
        window settings are retained (operating points outlive retrains —
        re-register to change them).
        """
        if not detector.is_fitted:
            raise NotFittedError(
                f"detector {name!r} is not fitted; the service only scores"
            )
        if not isinstance(getattr(detector, "model", None), HiddenMarkovModel):
            raise ServiceError(
                f"detector {name!r} exposes no HiddenMarkovModel via .model; "
                "the micro-batched service scores HMM-backed detectors only "
                "(n-gram/ensemble baselines are not servable)"
            )
        with self._lock:
            self._require_open()
            lane = self._lane(name)
            drained = 0
            while lane.queue:
                drained += self._scheduler.drain([lane], self.stats)
            lane.detector = detector
            for (detector_name, _), session in self._sessions.items():
                if detector_name == name:
                    session.swap_detector(detector)
            telemetry.counter_add("service.swaps")
            return drained

    @property
    def detectors(self) -> tuple[str, ...]:
        return tuple(self._lanes)

    def queue_depth(self, name: str) -> int:
        return self._lane(name).depth

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def open_session(
        self,
        detector: str,
        session_id: str,
        mode: SessionMode | str = SessionMode.WINDOW,
    ) -> Session:
        """Open (or fetch) the sticky session for ``(detector, session_id)``.

        Window-mode sessions are implicit — submitting a window creates
        one — but monitor/stream sessions must be opened so their sticky
        state (sliding window, filtering distribution) exists before the
        first symbol.
        """
        mode = SessionMode(mode)
        lane = self._lane(detector)
        key = (detector, session_id)
        with self._lock:
            self._require_open()
            existing = self._sessions.get(key)
            if existing is not None:
                if existing.mode is not mode:
                    raise ServiceError(
                        f"session {session_id!r} on {detector!r} is open in "
                        f"{existing.mode.value} mode, not {mode.value}"
                    )
                return existing
            session = Session.open(
                session_id=session_id,
                detector_name=detector,
                detector=lane.detector,
                mode=mode,
                window=lane.window,
                threshold=lane.threshold,
            )
            self._sessions[key] = session
            return session

    def close_session(self, detector: str, session_id: str) -> bool:
        """Discard the sticky state for ``(detector, session_id)``.

        Returns whether a session existed.  Requests already queued for the
        session still resolve normally — they hold their own reference —
        but the next ``open_session`` for this id starts fresh.
        """
        self._lane(detector)  # unknown detector raises, mirroring open
        with self._lock:
            self._require_open()
            return self._sessions.pop((detector, session_id), None) is not None

    def note_gap(self, detector: str, session_id: str, count: int = 1) -> None:
        """Report ``count`` lost symbols on an open monitor/stream session.

        Admission-control sheds mark gaps internally; this is the same
        path for losses the *collector* knows about — a dropped audit
        buffer, lossy transport, or (in the robustness harness) an
        attacker suppressing events.  Every subsequent outcome on the
        session carries ``gap=True``, so downstream consumers can tell a
        verdict over a discontinuous stream from a clean one.
        """
        if count < 1:
            raise ServiceError("note_gap count must be >= 1")
        lane = self._lane(detector)
        with self._lock:
            self._require_open()
            session = self._sessions.get((detector, session_id))
            if session is None or session.mode is SessionMode.WINDOW:
                raise ServiceError(
                    f"session {session_id!r} on {detector!r} is not an open "
                    "monitor/stream session; gaps apply to symbol streams"
                )
            # Order barrier: symbols submitted before the gap are still
            # queued; drain them into the session first so the gap lands
            # at its true position in the stream (same barrier as
            # swap_detector).
            while lane.queue:
                self._scheduler.drain([lane], self.stats)
            for _ in range(count):
                session.note_gap()
            telemetry.counter_add("service.gaps.reported", count)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        detector: str,
        session_id: str,
        *,
        window: Sequence[str] | None = None,
        symbol: str | None = None,
    ) -> Ticket:
        """Enqueue one scoring request; returns its :class:`Ticket`.

        Exactly one of ``window`` (window-mode sessions) or ``symbol``
        (monitor/stream sessions) must be given.  The ticket resolves at
        the request's drain — immediately under admission-control shed.
        """
        if (window is None) == (symbol is None):
            raise ServiceError("submit takes exactly one of window= or symbol=")
        lane = self._lane(detector)
        self._lock_in_turn()
        try:
            self._require_open()
            key = (detector, session_id)
            session = self._sessions.get(key)
            if session is None:
                if symbol is not None:
                    raise SessionNotOpenError(
                        f"session {session_id!r} on {detector!r} is not open; "
                        "open_session(..., mode='monitor'|'stream') before "
                        "submitting symbols"
                    )
                session = self.open_session(detector, session_id, SessionMode.WINDOW)
            if window is not None and session.mode is not SessionMode.WINDOW:
                raise ServiceError(
                    f"session {session_id!r} is a {session.mode.value} session; "
                    "submit symbol=... instead of window=..."
                )
            if symbol is not None and session.mode is SessionMode.WINDOW:
                raise ServiceError(
                    f"session {session_id!r} is a window session; "
                    "submit window=... instead of symbol=..."
                )
            ticket = Ticket()
            request = PendingRequest(
                ticket=ticket,
                session=session,
                enqueued_at=self.clock(),
                window=tuple(window) if window is not None else None,
                symbol=symbol,
            )
            self.stats.submitted += 1
            telemetry.counter_add("service.submitted")
            shed = lane.admit(request, self.config)
            if shed is not None:
                reason = (
                    ShedReason.QUEUE_FULL
                    if shed is request
                    else ShedReason.SHED_OLDEST
                )
                self.stats.count_shed(reason)
            self.stats.max_depth_seen = max(self.stats.max_depth_seen, lane.depth)
            telemetry.gauge_set(f"service.queue.depth.{detector}", lane.depth)
        finally:
            self._lock.release()
        self._wake.set()
        return ticket

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pump(self, detector: str | None = None) -> int:
        """Run one drain round; returns how many requests were resolved.

        One round drains up to ``config.max_batch`` requests per lane —
        every lane, or just ``detector``'s — through
        :meth:`MicroBatchScheduler.drain`: same-shape detectors' windows
        share one scoring pass, and every score is bit-identical to
        ``Detector.score`` whichever lanes share the round.
        """
        with self._lock:
            self._require_open()
            lanes = (
                [self._lane(detector)]
                if detector is not None
                else list(self._lanes.values())
            )
            return self._scheduler.drain(lanes, self.stats)

    def drain_pending(self) -> int:
        """Pump until every queue is empty; returns total resolved."""
        total = 0
        while True:
            resolved = self.pump()
            if resolved == 0:
                return total
            total += resolved

    @property
    def pending(self) -> int:
        with self._lock:
            return sum(lane.depth for lane in self._lanes.values())

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run; a closed service refuses work."""
        return self._closed

    # ------------------------------------------------------------------
    # Threaded deployment + shutdown
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the background drain loop (idempotent)."""
        with self._lock:
            self._require_open()
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-service", daemon=True
            )
            self._thread.start()

    def _run(self) -> None:
        while True:
            # Clear before the round, wait only after an empty one: a submit
            # admitted after the clear sets the event again, and one admitted
            # before it is in the queue this round drains, so no wake-up is
            # lost.  close() sets _stop before the event for the same reason.
            self._wake.clear()
            if self._stop.is_set():
                return
            with self._gate:
                self._lock.acquire()
            try:
                resolved = self.pump()
            except Exception:
                # drain() already resolved its popped tickets Failed; keep
                # the loop alive so the rest of the backlog still drains
                # (possibly also as Failed) instead of hanging forever.
                log.exception("service drain loop: drain crashed; continuing")
                telemetry.counter_add("service.drain_errors")
                continue
            finally:
                self._lock.release()
            if resolved == 0:
                self._wake.wait()

    def close(self, drain: bool = True) -> int:
        """Shut down; returns how many pending requests were handled.

        ``drain=True`` (graceful) scores everything still queued before
        refusing new work; ``drain=False`` resolves the backlog with
        ``Overloaded(SHUTDOWN)`` so no ticket is ever left hanging.
        """
        with self._lock:
            if self._closed:
                return 0
            thread = self._thread
            self._stop.set()
            self._wake.set()
        if thread is not None:
            thread.join()
        with self._lock:
            self._thread = None
            handled = 0
            if drain:
                # Keep draining even if a batch crashes: drain() resolves
                # its popped tickets Failed before raising, so every loop
                # iteration makes progress and no ticket is left hanging.
                while True:
                    try:
                        resolved = self.pump()
                    except Exception:
                        log.exception("close(): drain crashed; continuing")
                        continue
                    if resolved == 0:
                        break
                    handled += resolved
            else:
                for lane in self._lanes.values():
                    while lane.queue:
                        request = lane.queue.popleft()
                        request.session.note_gap()
                        request.ticket._resolve(
                            Overloaded(
                                detector=lane.name,
                                session=request.session.session_id,
                                reason=ShedReason.SHUTDOWN,
                                depth=lane.depth,
                                queued_s=max(
                                    0.0, self.clock() - request.enqueued_at
                                ),
                            )
                        )
                        self.stats.count_shed(ShedReason.SHUTDOWN)
                        handled += 1
            self._closed = True
            return handled

    def __enter__(self) -> "DetectionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=exc_info[0] is None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _lane(self, name: str) -> DetectorLane:
        lane = self._lanes.get(name)
        if lane is None:
            raise UnknownDetectorError(
                f"no detector {name!r} registered; have {sorted(self._lanes)}"
            )
        return lane

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("service is closed")

    def _lock_in_turn(self) -> None:
        """Take the service lock, waiting at the gate when it is busy.

        The first try also succeeds when this thread already holds the
        lock (a done-callback that submits from inside a drain), which
        must not queue at a gate another waiter holds.
        """
        if not self._lock.acquire(blocking=False):
            with self._gate:
                self._lock.acquire()
