"""Typed request outcomes and the ticket handed back by ``submit``.

Every accepted submission resolves to exactly one outcome — the service
never drops a request silently:

* :class:`Scored` — a complete window was scored (window/monitor modes);
* :class:`Streamed` — one symbol's incremental surprisal (stream mode);
* :class:`Absorbed` — a symbol advanced a session's sliding window without
  completing it yet (monitor warm-up);
* :class:`Overloaded` — admission control shed the request (bounded queue
  depth, latency budget, or non-draining shutdown), with a typed reason;
* :class:`Failed` — scoring raised an exception (e.g. a symbol outside a
  no-UNK model's alphabet); the error message rides on the outcome instead
  of stranding the ticket.
"""

from __future__ import annotations

import enum
import logging
import threading
from dataclasses import dataclass
from typing import Callable

from ..core.monitor import Alert

log = logging.getLogger(__name__)


class ShedReason(enum.Enum):
    """Why admission control refused to score a request."""

    #: The detector queue was at ``max_queue_depth`` and the policy rejects
    #: new arrivals.
    QUEUE_FULL = "queue_full"
    #: The detector queue was full and the policy sheds the *oldest* pending
    #: request to admit the new one.
    SHED_OLDEST = "shed_oldest"
    #: The request waited longer than ``latency_budget_s`` before its drain.
    DEADLINE = "deadline"
    #: The service shut down without draining.
    SHUTDOWN = "shutdown"


@dataclass(frozen=True)
class Scored:
    """One window scored under the pinned ``score < threshold`` rule.

    Attributes:
        score: per-symbol mean log-likelihood (higher = more normal).
        detector: registered detector name.
        session: submitting session id.
        batch_size: how many windows shared this drain's forward pass.
        queued_s: enqueue-to-score latency.
        alert: the monitor's alert record (monitor mode, below threshold,
            outside cooldown) — ``None`` otherwise.
        anomalous: threshold verdict, when the detector was registered with
            an operating threshold (``None`` otherwise).
        gap: ``True`` when the session has had monitor-mode symbols shed
            since open/reset, i.e. this score was computed over a
            discontinuous stream (always ``False`` for window sessions).
    """

    score: float
    detector: str
    session: str
    batch_size: int
    queued_s: float
    alert: Alert | None = None
    anomalous: bool | None = None
    gap: bool = False


@dataclass(frozen=True)
class Streamed:
    """One streaming symbol's surprisal (stream mode).

    Attributes:
        surprise: ``-log P[symbol | history]`` — higher = less expected.
        windowed_score: mean negative surprise of the last ``window``
            events (comparable to :class:`Scored` scores); ``None`` until
            the session has seen a full window.
        anomalous: ``windowed_score < threshold`` when both are available.
        gap: ``True`` when the session has had symbols shed since
            open/reset — the filtering distribution and windowed score are
            then computed over a discontinuous stream.
    """

    surprise: float
    detector: str
    session: str
    batch_size: int
    queued_s: float
    windowed_score: float | None = None
    anomalous: bool | None = None
    gap: bool = False


@dataclass(frozen=True)
class Absorbed:
    """A monitor-mode symbol consumed before its window filled."""

    detector: str
    session: str
    queued_s: float


@dataclass(frozen=True)
class Overloaded:
    """Admission control shed this request; it was never scored.

    Attributes:
        reason: the typed shed cause.
        depth: queue depth observed when the decision was made.
        queued_s: how long the request had waited (0 for rejected-at-door).
    """

    detector: str
    session: str
    reason: ShedReason
    depth: int
    queued_s: float = 0.0


@dataclass(frozen=True)
class Failed:
    """Scoring this request raised; it resolves with the error, not silence.

    Produced when the drain cannot score a request — e.g. a submitted
    symbol outside a no-UNK model's alphabet — or as the backstop when a
    drain crashes mid-batch: every already-popped ticket resolves
    :class:`Failed` before the exception propagates, so ``result()`` never
    hangs on an accepted submission.

    Attributes:
        error: the stringified exception.
        queued_s: how long the request had waited when scoring failed.
    """

    detector: str
    session: str
    error: str
    queued_s: float = 0.0


ScoreOutcome = Scored | Streamed | Absorbed | Overloaded | Failed


class Ticket:
    """A one-shot future for a submission's outcome.

    The scheduler resolves each ticket exactly once; ``result()`` blocks
    until then (or raises on timeout), and every callback registered with
    :meth:`add_done_callback` runs once with the outcome.  In synchronous
    deployments (``service.pump()`` called by the same thread, as the
    gateway's event loop does) the outcome is set by the time the ``pump``
    that drains the request returns.
    """

    __slots__ = ("_cond", "_outcome", "_callbacks")

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._outcome: ScoreOutcome | None = None
        self._callbacks: list[Callable[[ScoreOutcome], object]] = []

    def _resolve(self, outcome: ScoreOutcome) -> None:
        with self._cond:
            if self._outcome is not None:  # pragma: no cover - internal invariant
                raise AssertionError("ticket resolved twice")
            self._outcome = outcome
            callbacks, self._callbacks = self._callbacks, []
            self._cond.notify_all()
        for callback in callbacks:
            _run_callback(callback, outcome)

    def add_done_callback(self, callback: Callable[[ScoreOutcome], object]) -> None:
        """Call ``callback(outcome)`` once, when the ticket resolves.

        A ticket that is already resolved calls it immediately, in the
        calling thread; otherwise it runs in the thread that resolves the
        ticket, usually inside a drain that holds the service lock, so it
        must be quick.  An exception it raises is logged, never
        propagated: a callback cannot fail the drain that resolved it.
        """
        with self._cond:
            outcome = self._outcome
            if outcome is None:
                self._callbacks.append(callback)
                return
        _run_callback(callback, outcome)

    def done(self) -> bool:
        return self._outcome is not None

    def result(self, timeout: float | None = None) -> ScoreOutcome:
        with self._cond:
            if not self._cond.wait_for(self.done, timeout):
                raise TimeoutError("outcome not available yet")
        return self._outcome


def _run_callback(callback, outcome: ScoreOutcome) -> None:
    try:
        callback(outcome)
    except Exception:
        log.exception("ticket done-callback %r raised; ignored", callback)
