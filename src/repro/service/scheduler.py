"""Micro-batching scheduler: per-detector queues drained into one forward
pass.

The hot path the batched :mod:`repro.hmm.forward` recursions were written
for: instead of one ``log_likelihood`` call per request (a (1, 15) matrix
product per time step), a drain collects every ready window across all
sessions of one detector and scores them as a single (B, 15) batch —
unequal window lengths fall back to one call per *length group* via
:func:`repro.hmm.forward.log_likelihood_ragged`.  Each length group is
scored duplicate-aware (:func:`repro.hmm.kernels.log_likelihood_unique`):
when many sessions watch the same hot code path, identical windows in a
drain run the forward recursion once and share the result, bit-identical
to scoring every row (``hmm.score.unique_ratio`` reports the effect).

On top of the per-lane batch, :meth:`MicroBatchScheduler.drain_many`
fuses one round's drains **across detectors** (the default ``pump()``
path when ``ServiceConfig.cross_detector_batching`` is on): same-shape
(N, M) detectors' length groups stack into one batched tensor
contraction (:func:`repro.hmm.kernels.log_likelihood_fleet`), so a
100-detector fleet drains in a handful of kernel launches instead of one
GEMM sequence per detector.  Mixed-shape fleets degrade gracefully — each
``(n_states, n_symbols, length)`` group scores on the fused path when two
or more lanes share it and on the per-lane kernel otherwise — and every
outcome is bit-identical to the per-lane drain.

Admission control lives at the two points where load sheds:

* **at the door** (:meth:`DetectorLane.admit`) — a queue at
  ``max_queue_depth`` either rejects the arrival or evicts its oldest
  pending request, per :class:`~repro.service.config.AdmissionPolicy`;
* **at the drain** (:meth:`MicroBatchScheduler.drain`) — requests older
  than ``latency_budget_s`` resolve ``Overloaded(DEADLINE)`` rather than
  being scored late.

Every shed request resolves with a typed
:class:`~repro.service.outcomes.Overloaded`; accepted requests always
resolve with a scored outcome (or a shutdown shed) — never silence.  A
request scoring *failure* (e.g. a symbol outside a no-UNK model's
alphabet) resolves that request with :class:`~repro.service.outcomes.Failed`
without poisoning the rest of the batch, and an unexpected crash mid-drain
resolves every already-popped ticket ``Failed`` before propagating — no
code path strands a ticket.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..core.detector import Detector
from ..errors import ModelError
from ..hmm.forward import log_likelihood_ragged
from ..hmm.kernels import log_likelihood_fleet, log_likelihood_unique
from .config import AdmissionPolicy, ServiceConfig
from .outcomes import (
    Absorbed,
    Failed,
    Overloaded,
    Scored,
    ShedReason,
    Streamed,
    Ticket,
)
from .sessions import Session, SessionMode

#: Telemetry bucket bounds for drain batch sizes.
BATCH_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)


@dataclass
class PendingRequest:
    """One queued submission awaiting its drain."""

    ticket: Ticket
    session: Session
    enqueued_at: float
    window: tuple[str, ...] | None = None
    symbol: str | None = None


@dataclass
class DetectorLane:
    """One registered detector: its queue, threshold, and window length."""

    name: str
    detector: Detector
    threshold: float | None
    window: int
    queue: deque = field(default_factory=deque)

    @property
    def depth(self) -> int:
        return len(self.queue)

    def admit(
        self, request: PendingRequest, config: ServiceConfig
    ) -> PendingRequest | None:
        """Enqueue ``request``, applying the depth bound.

        Returns the request that was shed (the arrival itself under
        ``REJECT_NEW``, the evicted oldest under ``SHED_OLDEST``), already
        resolved with its :class:`Overloaded` outcome — or ``None`` when
        the queue had room.
        """
        if len(self.queue) < config.max_queue_depth:
            self.queue.append(request)
            return None
        if config.admission_policy is AdmissionPolicy.REJECT_NEW:
            request.session.note_gap()
            request.ticket._resolve(
                Overloaded(
                    detector=self.name,
                    session=request.session.session_id,
                    reason=ShedReason.QUEUE_FULL,
                    depth=len(self.queue),
                )
            )
            return request
        oldest = self.queue.popleft()
        oldest.session.note_gap()
        oldest.ticket._resolve(
            Overloaded(
                detector=self.name,
                session=oldest.session.session_id,
                reason=ShedReason.SHED_OLDEST,
                depth=len(self.queue) + 1,
                queued_s=max(0.0, request.enqueued_at - oldest.enqueued_at),
            )
        )
        self.queue.append(request)
        return oldest


@dataclass
class _LaneDrain:
    """One lane's popped batch moving through the drain phases.

    ``_prepare`` fills the bookkeeping fields (and resolves sheds /
    absorbed pushes / encode failures); scoring fills ``loglik`` for the
    ``rows``; ``_finish`` resolves the scorable and streaming requests.
    Splitting the phases this way is what lets :meth:`drain_many` score
    *many* lanes' prepared rows in one fused pass between its per-lane
    prepare and finish sweeps.
    """

    lane: DetectorLane
    taken: list[PendingRequest]
    scorable: list[tuple[PendingRequest, tuple[str, ...], float]] = field(
        default_factory=list
    )
    rows: list[np.ndarray] = field(default_factory=list)
    streaming: list[tuple[PendingRequest, float]] = field(default_factory=list)
    loglik: np.ndarray | None = None
    resolved: int = 0


class MicroBatchScheduler:
    """Drains lanes; owns no threads (the service does).

    Two drain shapes share the same prepare/score/finish phases:

    * :meth:`drain` — one lane, scored through
      :func:`~repro.hmm.forward.log_likelihood_ragged` exactly as before;
    * :meth:`drain_many` — one fused round over many lanes: every lane is
      prepared, then all prepared rows are grouped by
      ``(n_states, n_symbols, window length)`` **across lanes** and each
      multi-lane group scores through one batched
      :func:`~repro.hmm.kernels.log_likelihood_fleet` contraction
      (single-lane groups keep the per-lane kernel).  Scores, outcomes,
      and per-lane telemetry are bit-identical to per-lane drains — only
      the kernel-launch count changes.
    """

    def __init__(self, config: ServiceConfig, clock) -> None:
        self.config = config
        self.clock = clock

    def drain(self, lane: DetectorLane, stats) -> int:
        """Process up to ``max_batch`` queued requests of one lane.

        Returns the number of requests resolved (scored, streamed,
        absorbed, deadline-shed, or failed).  One drain issues at most one
        forward pass per distinct window length present in the batch — for
        the homogeneous 15-call case, exactly one — and duplicate windows
        within a length group are scored once (see the module docstring).

        Exception safety: a request that cannot be scored (unknown symbol,
        no UNK slot) resolves :class:`Failed` individually; any *other*
        exception resolves every popped-but-unresolved ticket ``Failed``
        before propagating, so the documented "every accepted submission
        resolves" invariant holds even when a drain crashes.
        """
        if not lane.queue:
            return 0
        now = self.clock()

        taken: list[PendingRequest] = []
        while lane.queue and len(taken) < self.config.max_batch:
            taken.append(lane.queue.popleft())

        try:
            return self._process(lane, taken, now, stats)
        except Exception as exc:
            for request in taken:
                if not request.ticket.done():
                    request.session.note_gap()
                    request.ticket._resolve(
                        Failed(
                            detector=lane.name,
                            session=request.session.session_id,
                            error=f"{type(exc).__name__}: {exc}",
                            queued_s=max(0.0, now - request.enqueued_at),
                        )
                    )
                    stats.count_failed()
            raise
        finally:
            telemetry.gauge_set(f"service.queue.depth.{lane.name}", lane.depth)

    def drain_many(self, lanes, stats) -> int:
        """One fused drain round: up to ``max_batch`` requests per lane.

        Pops every non-empty lane's batch first, then runs the shared
        prepare phase per lane and scores all prepared rows together —
        same-shape lanes through one cross-detector contraction per
        distinct window length, mixed shapes falling back per
        ``(n_states, n_symbols, length)`` group.  Returns the total
        resolved across lanes.

        Exception safety matches :meth:`drain` per request — encode and
        streaming failures resolve individual tickets ``Failed`` — but the
        crash backstop is round-wide: an unexpected mid-round exception
        resolves every popped-but-unresolved ticket of **all** popped
        lanes ``Failed`` before propagating (the fused pass is shared
        state; no lane's tickets can be left pending behind it).
        """
        now = self.clock()
        popped: list[tuple[DetectorLane, list[PendingRequest]]] = []
        for lane in lanes:
            if not lane.queue:
                continue
            taken: list[PendingRequest] = []
            while lane.queue and len(taken) < self.config.max_batch:
                taken.append(lane.queue.popleft())
            popped.append((lane, taken))
        if not popped:
            return 0
        try:
            return self._process_many(popped, now, stats)
        except Exception as exc:
            for lane, taken in popped:
                for request in taken:
                    if not request.ticket.done():
                        request.session.note_gap()
                        request.ticket._resolve(
                            Failed(
                                detector=lane.name,
                                session=request.session.session_id,
                                error=f"{type(exc).__name__}: {exc}",
                                queued_s=max(0.0, now - request.enqueued_at),
                            )
                        )
                        stats.count_failed()
            raise
        finally:
            for lane, _ in popped:
                telemetry.gauge_set(f"service.queue.depth.{lane.name}", lane.depth)

    def _process(
        self, lane: DetectorLane, taken: list[PendingRequest], now: float, stats
    ) -> int:
        """Resolve one popped batch: sheds, monitor pushes, forward pass."""
        drain = self._prepare(_LaneDrain(lane=lane, taken=taken), now, stats)
        if drain.scorable:
            drain.loglik = log_likelihood_ragged(lane.detector.model, drain.rows)
        self._finish(drain, stats)
        return drain.resolved

    def _process_many(
        self,
        popped: list[tuple[DetectorLane, list[PendingRequest]]],
        now: float,
        stats,
    ) -> int:
        """Resolve one fused round: per-lane prepare, cross-lane score,
        per-lane finish."""
        drains = [
            self._prepare(_LaneDrain(lane=lane, taken=taken), now, stats)
            for lane, taken in popped
        ]
        # Group every prepared row by (model shape, window length) across
        # lanes — insertion order is lane order then each lane's
        # first-occurrence length order, mirroring log_likelihood_ragged.
        groups: dict[
            tuple[int, int, int], list[tuple[_LaneDrain, np.ndarray, list[int]]]
        ] = {}
        for drain in drains:
            if not drain.scorable:
                continue
            drain.loglik = np.empty(len(drain.rows))
            model = drain.lane.detector.model
            by_length: dict[int, list[int]] = {}
            for position, row in enumerate(drain.rows):
                by_length.setdefault(row.shape[0], []).append(position)
            for length, positions in by_length.items():
                obs = np.stack([drain.rows[position] for position in positions])
                key = (model.n_states, model.n_symbols, length)
                groups.setdefault(key, []).append((drain, obs, positions))
        fused_groups = 0
        for entries in groups.values():
            if len(entries) == 1:
                # One lane in this shape/length group: the per-lane kernel
                # is already a single pass (and uses the full 512-row
                # tile); nothing to fuse.
                drain, obs, positions = entries[0]
                drain.loglik[positions] = log_likelihood_unique(
                    drain.lane.detector.model, obs
                )
                continue
            fused_groups += 1
            scored = log_likelihood_fleet(
                [drain.lane.detector.model for drain, _, _ in entries],
                [obs for _, obs, _ in entries],
            )
            for (drain, _, positions), loglik in zip(entries, scored):
                drain.loglik[positions] = loglik
        if groups:
            telemetry.counter_add("service.drain.fused")
            if fused_groups:
                telemetry.counter_add("service.drain.fused_groups", fused_groups)
        total = 0
        for drain in drains:
            self._finish(drain, stats)
            total += drain.resolved
        return total

    def _prepare(self, drain: _LaneDrain, now: float, stats) -> _LaneDrain:
        """Bookkeeping phase: deadline sheds, monitor pushes, encoding.

        Walks the popped batch in FIFO order, resolving everything that
        never reaches a forward pass (deadline sheds, absorbed monitor
        pushes, encode failures) and collecting the rest into the drain's
        ``scorable``/``rows``/``streaming`` lists.
        """
        lane = drain.lane
        budget = self.config.latency_budget_s
        resolved = 0
        scorable: list[tuple[PendingRequest, tuple[str, ...], float]] = []
        streaming: list[tuple[PendingRequest, float]] = []
        for request in drain.taken:
            queued_s = max(0.0, now - request.enqueued_at)
            if budget is not None and queued_s > budget:
                request.session.note_gap()
                request.ticket._resolve(
                    Overloaded(
                        detector=lane.name,
                        session=request.session.session_id,
                        reason=ShedReason.DEADLINE,
                        depth=lane.depth,
                        queued_s=queued_s,
                    )
                )
                stats.count_shed(ShedReason.DEADLINE)
                resolved += 1
                continue
            session = request.session
            if session.mode is SessionMode.STREAM:
                streaming.append((request, queued_s))
                continue
            if session.mode is SessionMode.MONITOR:
                window = session.monitor.push(request.symbol)
                if window is None:
                    request.ticket._resolve(
                        Absorbed(
                            detector=lane.name,
                            session=session.session_id,
                            queued_s=queued_s,
                        )
                    )
                    stats.absorbed += 1
                    resolved += 1
                    continue
            else:
                window = request.window
            scorable.append((request, window, queued_s))

        if scorable:
            model = lane.detector.model
            # Encode per request so one bad window (symbol outside a no-UNK
            # alphabet, or an empty window) fails alone instead of
            # poisoning the whole batch — in either drain shape.
            rows: list[np.ndarray] = []
            encodable: list[tuple[PendingRequest, tuple[str, ...], float]] = []
            for request, window, queued_s in scorable:
                try:
                    if not window:
                        raise ModelError("cannot score an empty window")
                    rows.append(
                        np.fromiter(
                            (model.encode_symbol(symbol) for symbol in window),
                            dtype=np.int64,
                            count=len(window),
                        )
                    )
                except ModelError as exc:
                    request.ticket._resolve(
                        Failed(
                            detector=lane.name,
                            session=request.session.session_id,
                            error=str(exc),
                            queued_s=queued_s,
                        )
                    )
                    stats.count_failed()
                    resolved += 1
                    continue
                encodable.append((request, window, queued_s))
            scorable = encodable
            drain.rows = rows

        drain.scorable = scorable
        drain.streaming = streaming
        drain.resolved = resolved
        return drain

    def _finish(self, drain: _LaneDrain, stats) -> None:
        """Resolution phase: apply scores, then walk streaming sessions.

        ``drain.loglik`` must hold the raw per-row log-likelihoods for
        ``drain.rows`` (whichever kernel produced them); outcomes carry
        the per-symbol normalization exactly as before.
        """
        lane = drain.lane
        scorable = drain.scorable
        streaming = drain.streaming
        resolved = 0

        if scorable:
            lengths = np.array(
                [row.shape[0] for row in drain.rows], dtype=float
            )
            scores = drain.loglik / lengths
            batch_size = len(scorable)
            telemetry.observe(
                "service.batch.size", batch_size, boundaries=BATCH_SIZE_BUCKETS
            )
            stats.record_batch(batch_size)
            for (request, window, queued_s), score in zip(scorable, scores):
                score = float(score)
                session = request.session
                alert = None
                if session.mode is SessionMode.MONITOR:
                    alert = session.monitor.apply_score(window, score)
                anomalous = (
                    score < lane.threshold if lane.threshold is not None else None
                )
                request.ticket._resolve(
                    Scored(
                        score=score,
                        detector=lane.name,
                        session=session.session_id,
                        batch_size=batch_size,
                        queued_s=queued_s,
                        alert=alert,
                        anomalous=anomalous,
                        gap=session.gaps > 0,
                    )
                )
                telemetry.observe(
                    "service.latency.queue_s",
                    queued_s,
                    boundaries=telemetry.DEFAULT_SECONDS_BUCKETS,
                )
                stats.scored += 1
                resolved += 1

        if streaming:
            # Sequential within a session (the belief update is order
            # dependent); the FIFO walk preserves exactly that order.
            batch_size = len(streaming)
            for request, queued_s in streaming:
                session = request.session
                try:
                    surprise = session.scorer.observe(request.symbol)
                except ModelError as exc:
                    # The symbol never updated the belief state: resolve
                    # this request alone and keep the stream going.
                    session.note_gap()
                    request.ticket._resolve(
                        Failed(
                            detector=lane.name,
                            session=session.session_id,
                            error=str(exc),
                            queued_s=queued_s,
                        )
                    )
                    stats.count_failed()
                    resolved += 1
                    continue
                windowed = (
                    session.scorer.windowed_score
                    if session.scorer.window_full
                    else None
                )
                anomalous = (
                    windowed < lane.threshold
                    if (windowed is not None and lane.threshold is not None)
                    else None
                )
                request.ticket._resolve(
                    Streamed(
                        surprise=surprise,
                        detector=lane.name,
                        session=session.session_id,
                        batch_size=batch_size,
                        queued_s=queued_s,
                        windowed_score=windowed,
                        anomalous=anomalous,
                        gap=session.gaps > 0,
                    )
                )
                telemetry.observe(
                    "service.latency.queue_s",
                    queued_s,
                    boundaries=telemetry.DEFAULT_SECONDS_BUCKETS,
                )
                stats.streamed += 1
                resolved += 1

        drain.resolved += resolved
