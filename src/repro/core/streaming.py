"""Streaming surprise: incremental forward filtering over a live call feed.

The windowed monitor (:class:`~repro.core.monitor.OnlineMonitor`) re-runs
the forward algorithm over every 15-call window — ``O(T·N²)`` per event.
For high-rate feeds (the paper quotes 0.038 ms per 15-call segment and
suggests offline/parallel evaluation for production), this module offers
the cheaper alternative: maintain the HMM's *filtering distribution*
``P[state | history]`` across the whole stream and emit, per event, the
instantaneous **surprise**

    surprise_t = -log P[o_t | o_1 .. o_{t-1}]

which is exactly the per-step normalizer of the scaled forward recursion —
one ``O(N²)`` update per event, no window recomputation.  A windowed score
can still be recovered as the mean of the last ``T`` surprisals.

The scorer delegates to the zero-allocation
:class:`~repro.hmm.kernels.StreamingState` kernels: the belief update
writes into preallocated buffers and the last ``window`` surprisals sit in
a ring buffer.  The original allocating filter it replaced is kept only as
a bit-exactness reference — in ``tests/test_streaming_incremental.py``
(property-wise) and ``benchmarks/bench_streaming_forward.py`` (exit-1
gate); surprisals, windowed scores and belief states match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..errors import ModelError
from ..hmm.kernels import (
    StreamingState,
    streaming_rebind,
    streaming_recent,
    streaming_reset,
    streaming_step,
)
from ..hmm.model import HiddenMarkovModel

#: Telemetry bucket bounds for per-event surprise (``-log`` predictive
#: probability: ~0 for expected calls, tens for alphabet-edge surprises).
SURPRISE_BUCKETS: tuple[float, ...] = (
    0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0,
    5.0, 7.5, 10.0, 15.0, 20.0, 30.0, 50.0,
)


class StreamingScorer:
    """Incremental forward filter over one observation stream.

    Args:
        model: the trained HMM.
        window: number of recent surprisals averaged by
            :attr:`windowed_score` (defaults to the paper's 15).
    """

    def __init__(self, model: HiddenMarkovModel, window: int = 15) -> None:
        self.model = model
        self.window = window
        self.events = 0
        # Raises ModelError for a non-positive window.
        self._state = StreamingState(model, window)

    @classmethod
    def for_detector(cls, detector, window: int = 15) -> "StreamingScorer":
        """A scorer over a fitted detector's model.

        The detection service opens one scorer per streaming session; this
        constructor is the supported seam (it works for any detector that
        exposes a ``model`` — i.e. the HMM families).
        """
        model = getattr(detector, "model", None)
        if not isinstance(model, HiddenMarkovModel):
            raise ModelError(
                f"{getattr(detector, 'name', detector)!r} exposes no HMM; "
                "streaming sessions need an HMM-backed detector"
            )
        return cls(model, window=window)

    def observe(self, symbol: str) -> float:
        """Consume one symbol; returns its surprise (-log predictive prob).

        Higher surprise = less expected.  The belief state is updated in
        place, so consecutive calls score the whole history, not a window.

        Telemetry: one ``hmm.forward.incremental.events`` count and one
        ``hmm.forward.incremental.surprise`` histogram sample **per
        event** — batch entry points must not add their own per-call
        samples, or percentile estimates skew toward batch boundaries.
        """
        index = self.model.encode_symbol(symbol)
        surprise = streaming_step(self.model, self._state, index)
        self.events += 1
        if telemetry.enabled():
            telemetry.counter_add("hmm.forward.incremental.events")
            telemetry.observe(
                "hmm.forward.incremental.surprise",
                surprise,
                boundaries=SURPRISE_BUCKETS,
            )
        return surprise

    def observe_many(self, symbols) -> list[float]:
        """Consume a run of symbols in order; returns their surprisals.

        The service's micro-batch drain hands each streaming session its
        queued symbols as one run — sequential within the session (the
        belief update is order-dependent) while *sessions* proceed
        independently of each other.

        Telemetry counts **events, not calls**: every symbol lands its
        own histogram sample via :meth:`observe`; this entry point only
        adds one ``hmm.forward.incremental.batches`` count per non-empty
        run, so latency/surprise percentiles are per-event no matter how
        the stream is chunked.
        """
        surprisals = [self.observe(symbol) for symbol in symbols]
        if surprisals and telemetry.enabled():
            telemetry.counter_add("hmm.forward.incremental.batches")
        return surprisals

    @property
    def windowed_score(self) -> float:
        """Mean negative surprise over the last ``window`` events — on the
        same higher-is-more-normal scale as :meth:`Detector.score`."""
        if self._state.count == 0:
            raise ModelError("no events observed yet")
        # streaming_recent materializes the ring in stream order, so
        # np.mean reduces in arrival order.
        return -float(np.mean(streaming_recent(self._state)))

    @property
    def window_full(self) -> bool:
        return self._state.count >= self.window

    def reset(self) -> None:
        """Restart the filter (process restart / context switch)."""
        streaming_reset(self.model, self._state)
        self.events = 0

    def rebind(self, model: HiddenMarkovModel) -> None:
        """Swap in a retrained model mid-stream (the service's warm-swap).

        The recent-surprisal window survives — :attr:`windowed_score`
        stays continuous across the swap — but the belief state restarts
        from the new model's initial distribution: the old posterior lives
        over the old model's hidden states, which a retrain renumbers or
        resizes, so carrying it over would be meaningless (or shape-wrong).
        This is :func:`~repro.hmm.kernels.streaming_rebind`: the carried
        kernel state (belief, scratch, emission transpose) is invalidated
        and rebuilt while the surprisal ring is kept.
        """
        if not isinstance(model, HiddenMarkovModel):
            raise ModelError(
                f"rebind takes a HiddenMarkovModel, not {type(model).__name__}"
            )
        self.model = model
        streaming_rebind(model, self._state)
