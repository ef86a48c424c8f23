"""Differential tests for the incremental streaming filter.

Three oracles pin the O(1)-per-event filter
(:class:`repro.hmm.kernels.StreamingState` behind
:class:`repro.core.streaming.StreamingScorer`):

* the **reference filter** (:class:`ReferenceFilter` below, the
  allocating filter the kernels replaced, kept verbatim) — surprisals,
  windowed scores, belief states, and lifecycle transitions must match
  bit-for-bit, event by event;
* a **full windowed recompute** — ``windowed_score`` must equal the mean
  of the last ``window`` surprisals materialized as a plain oldest-first
  array (the ring buffer must never reorder the reduction);
* a **fresh replay** — the carried belief after ``t`` events must equal a
  new scorer fed the same prefix (no state leaks across resets/rebinds).

Everything here asserts ``==`` / ``.tolist()`` equality, not ``approx``:
the kernels are a buffer-reuse rewrite of the same float program, and
the benchmark gate (``benchmarks/bench_streaming_forward.py``) enforces
the same contract with exit 1.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.api import load_pretrained
from repro.core.monitor import OnlineMonitor
from repro.core.streaming import StreamingScorer
from repro.errors import ModelError, NotFittedError
from repro.hmm import random_model
from repro.hmm.kernels import SCALE_FLOOR
from repro.service import DetectionService, ServiceConfig

WINDOW = 7

#: The corpus libcall models' state counts (the gateway serves one of
#: them) over a 60-symbol alphabet — far past the small shapes drawn below.
PRODUCTION_SHAPES = ((74, 60), (90, 60), (98, 60), (114, 60))


class ReferenceFilter:
    """The allocating forward filter ``StreamingScorer`` replaced, verbatim.

    A fresh belief array per event and a deque of recent surprisals; the
    bit-exactness oracle for the ring-buffer kernels.
    """

    def __init__(self, model, window=15):
        self.model = model
        self.window = window
        self.events = 0
        self.belief = model.initial.copy()
        self._started = False
        self._recent = deque(maxlen=window)

    def observe(self, symbol):
        index = self.model.encode_symbol(symbol)
        if self._started:
            predictive = self.belief @ self.model.transition
        else:
            predictive = self.belief
            self._started = True
        joint = predictive * self.model.emission[:, index]
        total = float(joint.sum())
        total = max(total, SCALE_FLOOR)
        self.belief = joint / total
        self.events += 1
        surprise = -float(np.log(total))
        self._recent.append(surprise)
        return surprise

    def observe_many(self, symbols):
        return [self.observe(symbol) for symbol in symbols]

    @property
    def windowed_score(self):
        if not self._recent:
            raise ModelError("no events observed yet")
        return -float(np.mean(self._recent))

    @property
    def window_full(self):
        return len(self._recent) == self.window

    def reset(self):
        self.belief = self.model.initial.copy()
        self._started = False
        self._recent.clear()
        self.events = 0

    def rebind(self, model):
        self.model = model
        self.belief = model.initial.copy()
        self._started = False


def make_model(n_states=3, n_symbols=4, seed=0):
    return random_model(
        [f"s{i}" for i in range(n_symbols)], n_states=n_states, seed=seed
    )


def make_feed(model, length, seed=0):
    rng = np.random.default_rng(seed)
    labels = model.symbols
    return [labels[i] for i in rng.integers(0, len(labels), size=length)]


def paired_scorers(model, window):
    return (
        StreamingScorer(model, window=window),
        ReferenceFilter(model, window=window),
    )


def build_case(n_states, n_symbols, seed, window, length, resets):
    model = make_model(n_states, n_symbols, seed)
    return model, make_feed(model, length, seed=seed + 1), window, resets


@st.composite
def stream_case(draw):
    n_states, n_symbols = draw(
        st.one_of(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=2, max_value=6),
            ),
            st.sampled_from(PRODUCTION_SHAPES),
        )
    )
    seed = draw(st.integers(min_value=0, max_value=10_000))
    window = draw(st.integers(min_value=1, max_value=20))
    length = draw(st.integers(min_value=1, max_value=45))
    resets = draw(
        st.sets(st.integers(min_value=1, max_value=length - 1), max_size=3)
        if length > 1
        else st.just(set())
    )
    return build_case(n_states, n_symbols, seed, window, length, resets)


def production_examples(test):
    """Pin one 200-event stream with a mid-stream reset per production
    shape, so every run covers them whatever hypothesis draws."""
    for n_states, n_symbols in PRODUCTION_SHAPES:
        test = example(
            build_case(n_states, n_symbols, n_states, 15, 200, {97})
        )(test)
    return test


class TestDifferential:
    @settings(max_examples=50, deadline=None)
    @production_examples
    @given(stream_case())
    def test_incremental_matches_legacy_and_recompute(self, case):
        """Event-by-event: scorer == reference filter == windowed
        recompute, bitwise, across mid-stream gap resets."""
        model, feed, window, resets = case
        fast, slow = paired_scorers(model, window)
        surprises: list[float] = []  # full history since last reset
        for position, symbol in enumerate(feed):
            if position in resets:
                fast.reset()
                slow.reset()
                surprises.clear()
                assert fast.events == slow.events == 0
            surprise = fast.observe(symbol)
            assert surprise == slow.observe(symbol)
            surprises.append(surprise)
            assert fast.events == slow.events == len(surprises)
            assert fast.window_full == slow.window_full
            assert fast.windowed_score == slow.windowed_score
            # Full recompute oracle: mean over the last `window`
            # surprisals in stream order (same np.mean reduction).
            recomputed = -float(np.mean(np.array(surprises[-window:])))
            assert fast.windowed_score == recomputed
            assert fast._state.belief.tolist() == slow.belief.tolist()

    @settings(max_examples=30, deadline=None)
    @production_examples
    @given(stream_case())
    def test_carried_state_matches_fresh_replay(self, case):
        """The carried filter equals a fresh scorer replaying the suffix
        since the last reset — no cross-event state corruption."""
        model, feed, window, resets = case
        carried = StreamingScorer(model, window=window)
        since_reset: list[str] = []
        for position, symbol in enumerate(feed):
            if position in resets:
                carried.reset()
                since_reset.clear()
            carried.observe(symbol)
            since_reset.append(symbol)
        replay = StreamingScorer(model, window=window)
        replay.observe_many(since_reset)
        assert carried._state.belief.tolist() == replay._state.belief.tolist()
        assert carried.windowed_score == replay.windowed_score
        assert carried.window_full == replay.window_full


class TestRingWraparound:
    """The ring buffer's seam: exactly at W, and one either side."""

    @pytest.mark.parametrize(
        "n_events", [WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW + 2]
    )
    def test_windowed_score_across_the_seam(self, n_events):
        model = make_model(seed=11)
        feed = make_feed(model, n_events, seed=12)
        fast, slow = paired_scorers(model, WINDOW)
        surprises = []
        for symbol in feed:
            surprises.append(fast.observe(symbol))
            slow.observe(symbol)
        assert fast.window_full == slow.window_full == (n_events >= WINDOW)
        assert fast.windowed_score == slow.windowed_score
        assert fast.windowed_score == -float(
            np.mean(np.array(surprises[-WINDOW:]))
        )

    def test_score_before_any_event_raises_in_both_modes(self):
        """Both modes: the scorer and the reference filter."""
        model = make_model(seed=11)
        for scorer in paired_scorers(model, WINDOW):
            with pytest.raises(ModelError):
                scorer.windowed_score

    def test_reset_clears_the_ring_in_both_modes(self):
        """Both modes: the scorer and the reference filter."""
        model = make_model(seed=11)
        for scorer in paired_scorers(model, WINDOW):
            scorer.observe_many(make_feed(model, 2 * WINDOW, seed=13))
            scorer.reset()
            assert scorer.events == 0
            with pytest.raises(ModelError):
                scorer.windowed_score


class TestRebind:
    def test_rebind_restarts_filter_but_keeps_window(self):
        """Warm-swap semantics: the belief restarts from the new model's
        prior (old posterior is meaningless over renumbered states), the
        surprisal window survives for score continuity."""
        old = make_model(n_states=3, seed=21)
        new = make_model(n_states=5, seed=22)  # resize forces realloc
        pre = make_feed(old, WINDOW + 3, seed=23)
        post = make_feed(new, WINDOW - 2, seed=24)

        scorer = StreamingScorer(old, window=WINDOW)
        scorer.observe_many(pre)
        before_swap = scorer.windowed_score
        scorer.rebind(new)
        assert scorer.windowed_score == before_swap  # ring untouched

        fresh = StreamingScorer(new, window=WINDOW)
        assert scorer.observe_many(post) == fresh.observe_many(post)
        assert scorer._state.belief.tolist() == fresh._state.belief.tolist()

    def test_rebind_matches_legacy_across_the_swap(self):
        old = make_model(n_states=4, seed=25)
        new = make_model(n_states=4, seed=26)
        pre = make_feed(old, 9, seed=27)
        post = make_feed(new, 9, seed=28)
        fast, slow = paired_scorers(old, WINDOW)
        assert fast.observe_many(pre) == slow.observe_many(pre)
        fast.rebind(new)
        slow.rebind(new)
        assert fast.observe_many(post) == slow.observe_many(post)
        assert fast._state.belief.tolist() == slow.belief.tolist()

    def test_rebind_rejects_non_models(self):
        scorer = StreamingScorer(make_model())
        with pytest.raises(ModelError, match="HiddenMarkovModel"):
            scorer.rebind(object())


class TestServiceSwapInvalidation:
    def test_swap_to_resized_model_restarts_stream_filter(self):
        """`swap_detector` must invalidate the carried kernel state: the
        post-swap stream scores like a fresh filter on the new model,
        even when the retrain changed the state-space size."""
        old_model = make_model(n_states=4, seed=31)
        new_model = make_model(n_states=6, seed=32)
        service = DetectionService(ServiceConfig())
        service.register("svc", load_pretrained(old_model, name="svc"))
        service.open_session("svc", "proc", "stream")
        feed = make_feed(old_model, 12, seed=33)

        def observe(symbol):
            ticket = service.submit("svc", "proc", symbol=symbol)
            service.drain_pending()
            return ticket.result()

        for symbol in feed[:6]:
            observe(symbol)
        service.swap_detector("svc", load_pretrained(new_model, name="svc2"))
        post = [observe(s).surprise for s in feed[6:]]
        expected = StreamingScorer(new_model, window=15).observe_many(feed[6:])
        assert post == expected

    def test_monitor_rebind_validates_like_construction(self):
        detector = load_pretrained(make_model(seed=34), name="mon")
        monitor = OnlineMonitor(detector, threshold=-2.0)

        class Unfitted:
            is_fitted = False

        with pytest.raises(NotFittedError):
            monitor.rebind(Unfitted())
        assert monitor.detector is detector  # rejected swap leaves it bound


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def _telemetry_off_before_and_after(self):
        telemetry.disable()
        yield
        telemetry.disable()

    def test_observe_many_counts_events_not_calls(self):
        """The satellite fix: 7 + 0 + 3 symbols across three calls must
        record 10 events (and 10 surprise samples), not 3."""
        model = make_model(seed=41)
        with telemetry.session():
            scorer = StreamingScorer(model)
            scorer.observe_many(make_feed(model, 7, seed=42))
            scorer.observe_many([])
            scorer.observe_many(make_feed(model, 3, seed=43))
            snap = telemetry.snapshot()
        assert snap["counters"]["hmm.forward.incremental.events"] == 10
        # Empty runs record no batch.
        assert snap["counters"]["hmm.forward.incremental.batches"] == 2
        histogram = snap["histograms"]["hmm.forward.incremental.surprise"]
        assert sum(histogram["counts"]) == 10
