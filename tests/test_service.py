"""Tests for the micro-batched multi-tenant detection service.

The load-bearing guarantees:

* **score equivalence** — a micro-batched drain produces bit-identical
  scores to calling ``Detector.score`` directly on the same windows;
* **no silent drops** — every accepted request resolves with a scored
  outcome, every shed request resolves with a typed ``Overloaded``;
* **sticky sessions** — monitor/stream sessions behave exactly like their
  standalone ``OnlineMonitor`` / ``StreamingScorer`` counterparts.
"""

from __future__ import annotations

import http.client
import json
import logging
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import load_pretrained
from repro.core.monitor import OnlineMonitor
from repro.core.streaming import StreamingScorer
from repro.errors import (
    NotFittedError,
    ServiceClosedError,
    ServiceError,
    SessionNotOpenError,
    UnknownDetectorError,
)
from repro.gateway import DetectionGateway, GatewayConfig
from repro.hmm import random_model
from repro.hmm.kernels import log_likelihood_stacked
from repro.hmm.model import HiddenMarkovModel
from repro.service import (
    Absorbed,
    AdmissionPolicy,
    DetectionService,
    Failed,
    Overloaded,
    Scored,
    ServiceConfig,
    ShedReason,
    Streamed,
    Ticket,
    load_fleet,
)

# Tier-2 stress selection: CI's stress-concurrency job loops `-m stress`.
pytestmark = pytest.mark.stress

SYMBOLS = ["open", "read", "write", "mmap", "close"]


@pytest.fixture(scope="module")
def model():
    return random_model(SYMBOLS, n_states=4, seed=3)


@pytest.fixture(scope="module")
def detector(model):
    return load_pretrained(model, name="svc")


def make_windows(n: int, length: int = 15, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        tuple(SYMBOLS[i] for i in rng.integers(0, len(SYMBOLS), size=length))
        for _ in range(n)
    ]


def fresh_service(detector, **config_kwargs) -> DetectionService:
    service = DetectionService(ServiceConfig(**config_kwargs))
    service.register("svc", detector, threshold=-2.0)
    return service


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestScoreEquivalence:
    def test_batched_scores_bit_identical_to_detector_score(self, detector):
        """The acceptance-criterion pin: one (B, 15) drain == serial scores."""
        windows = make_windows(96)
        service = fresh_service(detector, max_batch=128)
        tickets = [
            service.submit("svc", f"tenant-{i % 7}", window=w)
            for i, w in enumerate(windows)
        ]
        assert service.pump() == len(windows)
        batched = np.array([t.result().score for t in tickets])
        direct = detector.score(windows)
        assert batched.tolist() == direct.tolist()  # bitwise, not approx

    def test_single_drain_is_one_batch(self, detector):
        service = fresh_service(detector, max_batch=128)
        tickets = [
            service.submit("svc", "s", window=w) for w in make_windows(40)
        ]
        service.pump()
        outcomes = [t.result() for t in tickets]
        assert {o.batch_size for o in outcomes} == {40}
        assert service.stats.batches == 1
        assert service.stats.max_batch_size == 40

    def test_mixed_length_windows_in_one_drain(self, detector):
        windows = make_windows(10, length=15) + make_windows(10, length=8, seed=1)
        service = fresh_service(detector)
        tickets = [service.submit("svc", "s", window=w) for w in windows]
        service.pump()
        batched = [t.result().score for t in tickets]
        # Each length group matches Detector.score on that group exactly.
        assert batched[:10] == detector.score(windows[:10]).tolist()
        assert batched[10:] == detector.score(windows[10:]).tolist()

    def test_threshold_verdict_on_outcomes(self, detector):
        windows = make_windows(16)
        service = fresh_service(detector)
        tickets = [service.submit("svc", "s", window=w) for w in windows]
        service.pump()
        direct = detector.score(windows)
        for ticket, score in zip(tickets, direct):
            outcome = ticket.result()
            assert outcome.anomalous == (float(score) < -2.0)


class TestAdmissionControl:
    def test_reject_new_sheds_arrivals_and_scores_accepted(self, detector):
        service = fresh_service(
            detector, max_queue_depth=8, admission_policy=AdmissionPolicy.REJECT_NEW
        )
        windows = make_windows(20)
        tickets = [service.submit("svc", "s", window=w) for w in windows]
        # The 12 overflow submissions resolved immediately, typed.
        shed = [t for t in tickets if t.done()]
        assert len(shed) == 12
        assert {t.result().reason for t in shed} == {ShedReason.QUEUE_FULL}
        assert shed == tickets[8:]  # arrivals shed, queue untouched
        service.drain_pending()
        accepted = [t.result() for t in tickets[:8]]
        assert all(isinstance(o, Scored) for o in accepted)
        # Accepted requests kept FIFO order and exact scores.
        assert [o.score for o in accepted] == detector.score(windows[:8]).tolist()
        assert service.stats.shed_queue_full == 12
        assert service.stats.shed_rate == pytest.approx(12 / 20)

    def test_shed_oldest_evicts_head_of_queue(self, detector):
        service = fresh_service(
            detector, max_queue_depth=8, admission_policy=AdmissionPolicy.SHED_OLDEST
        )
        tickets = [
            service.submit("svc", "s", window=w) for w in make_windows(20)
        ]
        service.drain_pending()
        outcomes = [t.result() for t in tickets]
        # The 12 oldest were evicted; the 8 newest scored.
        assert [isinstance(o, Overloaded) for o in outcomes] == \
            [True] * 12 + [False] * 8
        assert {o.reason for o in outcomes[:12]} == {ShedReason.SHED_OLDEST}
        assert service.stats.shed_oldest == 12

    def test_no_shed_below_admission_limit(self, detector):
        service = fresh_service(detector, max_queue_depth=64)
        tickets = [
            service.submit("svc", "s", window=w) for w in make_windows(64)
        ]
        service.drain_pending()
        assert service.stats.shed_total == 0
        assert service.stats.shed_rate == 0.0
        assert all(isinstance(t.result(), Scored) for t in tickets)

    def test_latency_budget_sheds_stale_requests(self, detector):
        clock = FakeClock()
        service = DetectionService(
            ServiceConfig(latency_budget_s=0.5), clock=clock
        )
        service.register("svc", detector)
        stale = service.submit("svc", "s", window=make_windows(1)[0])
        clock.now += 1.0  # past the budget before the drain runs
        fresh = service.submit("svc", "s", window=make_windows(1, seed=2)[0])
        service.pump()
        assert isinstance(stale.result(), Overloaded)
        assert stale.result().reason is ShedReason.DEADLINE
        assert stale.result().queued_s == pytest.approx(1.0)
        assert isinstance(fresh.result(), Scored)
        assert service.stats.shed_deadline == 1

    def test_every_ticket_resolves(self, detector):
        """The no-silent-drop invariant under overload + shutdown."""
        service = fresh_service(detector, max_queue_depth=4, max_batch=4)
        tickets = [
            service.submit("svc", "s", window=w) for w in make_windows(11)
        ]
        service.pump()
        tickets += [
            service.submit("svc", "s", window=w)
            for w in make_windows(3, seed=5)
        ]
        service.close(drain=True)
        assert all(t.done() for t in tickets)
        assert service.stats.submitted == len(tickets)


class TestShutdown:
    def test_graceful_close_scores_backlog(self, detector):
        service = fresh_service(detector)
        tickets = [
            service.submit("svc", "s", window=w) for w in make_windows(10)
        ]
        handled = service.close(drain=True)
        assert handled == 10
        assert all(isinstance(t.result(), Scored) for t in tickets)
        with pytest.raises(ServiceError):
            service.submit("svc", "s", window=make_windows(1)[0])

    def test_non_draining_close_resolves_backlog_overloaded(self, detector):
        service = fresh_service(detector)
        tickets = [
            service.submit("svc", "s", window=w) for w in make_windows(10)
        ]
        handled = service.close(drain=False)
        assert handled == 10
        outcomes = [t.result() for t in tickets]
        assert {type(o) for o in outcomes} == {Overloaded}
        assert {o.reason for o in outcomes} == {ShedReason.SHUTDOWN}
        assert service.stats.shed_shutdown == 10

    def test_close_is_idempotent(self, detector):
        service = fresh_service(detector)
        service.close()
        assert service.close() == 0

    def test_closed_service_refuses_new_sessions(self, detector):
        service = fresh_service(detector)
        assert not service.closed
        service.close()
        assert service.closed
        with pytest.raises(ServiceError, match="^service is closed$"):
            service.open_session("svc", "late", "stream")

    def test_closed_service_refuses_pump_note_gap_and_close_session(
        self, detector
    ):
        service = fresh_service(detector)
        service.open_session("svc", "mon", "monitor")
        ticket = service.submit("svc", "w", window=make_windows(1)[0])
        assert service.close() == 1  # close() still drains its own rounds
        assert isinstance(ticket.result(timeout=0), Scored)
        with pytest.raises(ServiceClosedError, match="^service is closed$"):
            service.pump()
        with pytest.raises(ServiceClosedError, match="^service is closed$"):
            service.note_gap("svc", "mon")
        with pytest.raises(ServiceClosedError, match="^service is closed$"):
            service.close_session("svc", "mon")

    def test_context_manager_drains_on_clean_exit(self, detector):
        with fresh_service(detector) as service:
            ticket = service.submit("svc", "s", window=make_windows(1)[0])
        assert isinstance(ticket.result(), Scored)

    def test_threaded_deployment_resolves_tickets(self, detector):
        service = fresh_service(detector)
        service.start()
        tickets = [
            service.submit("svc", f"t{i}", window=w)
            for i, w in enumerate(make_windows(30))
        ]
        outcomes = [t.result(timeout=10.0) for t in tickets]
        service.close()
        assert [o.score for o in outcomes] == \
            detector.score(make_windows(30)).tolist()


class TestSessions:
    def test_monitor_session_matches_standalone_monitor(self, detector):
        rng = np.random.default_rng(21)
        symbols = [SYMBOLS[i] for i in rng.integers(0, len(SYMBOLS), size=60)]
        reference = OnlineMonitor(detector, threshold=-1.2, segment_length=15)
        expected_alerts = [
            alert for s in symbols if (alert := reference.observe_symbol(s))
        ]

        service = DetectionService(ServiceConfig(max_batch=7))  # force splits
        service.register("svc", detector, threshold=-1.2, window=15)
        service.open_session("svc", "proc", "monitor")
        tickets = [service.submit("svc", "proc", symbol=s) for s in symbols]
        service.drain_pending()
        outcomes = [t.result() for t in tickets]
        assert sum(isinstance(o, Absorbed) for o in outcomes) == 14
        got_alerts = [
            o.alert for o in outcomes if isinstance(o, Scored) and o.alert
        ]
        assert got_alerts == expected_alerts
        scored = [o.score for o in outcomes if isinstance(o, Scored)]
        windows = [tuple(symbols[i - 14:i + 1]) for i in range(14, len(symbols))]
        assert scored == detector.score(windows).tolist()

    def test_stream_session_matches_standalone_scorer(self, detector):
        rng = np.random.default_rng(33)
        symbols = [SYMBOLS[i] for i in rng.integers(0, len(SYMBOLS), size=40)]
        reference = StreamingScorer.for_detector(detector, window=15)
        expected = reference.observe_many(symbols)

        service = DetectionService(ServiceConfig(max_batch=6))
        service.register("svc", detector, window=15)
        service.open_session("svc", "proc", "stream")
        tickets = [service.submit("svc", "proc", symbol=s) for s in symbols]
        service.drain_pending()
        outcomes = [t.result() for t in tickets]
        assert [o.surprise for o in outcomes] == expected
        assert all(isinstance(o, Streamed) for o in outcomes)
        # Windowed score appears once the window fills, never before.
        assert all(o.windowed_score is None for o in outcomes[:14])
        assert all(o.windowed_score is not None for o in outcomes[14:])

    def test_sessions_are_isolated(self, detector):
        """Interleaved submissions from two streams must not share state."""
        rng = np.random.default_rng(8)
        feed_a = [SYMBOLS[i] for i in rng.integers(0, len(SYMBOLS), size=25)]
        feed_b = [SYMBOLS[i] for i in rng.integers(0, len(SYMBOLS), size=25)]
        service = fresh_service(detector)
        service.open_session("svc", "a", "stream")
        service.open_session("svc", "b", "stream")
        tickets = []
        for sym_a, sym_b in zip(feed_a, feed_b):
            tickets.append(service.submit("svc", "a", symbol=sym_a))
            tickets.append(service.submit("svc", "b", symbol=sym_b))
        service.drain_pending()
        surprises_a = [t.result().surprise for t in tickets[0::2]]
        surprises_b = [t.result().surprise for t in tickets[1::2]]
        assert surprises_a == StreamingScorer.for_detector(detector).observe_many(feed_a)
        assert surprises_b == StreamingScorer.for_detector(detector).observe_many(feed_b)

    def test_symbol_submit_requires_open_session(self, detector):
        service = fresh_service(detector)
        with pytest.raises(ServiceError, match="not open"):
            service.submit("svc", "ghost", symbol="read")

    def test_window_submit_to_stream_session_rejected(self, detector):
        service = fresh_service(detector)
        service.open_session("svc", "s", "stream")
        with pytest.raises(ServiceError, match="stream session"):
            service.submit("svc", "s", window=make_windows(1)[0])

    def test_symbol_submit_to_window_session_rejected(self, detector):
        service = fresh_service(detector)
        service.submit("svc", "s", window=make_windows(1)[0])
        with pytest.raises(ServiceError, match="window session"):
            service.submit("svc", "s", symbol="read")

    def test_mode_mismatch_on_reopen_rejected(self, detector):
        service = fresh_service(detector)
        service.open_session("svc", "s", "monitor")
        assert service.open_session("svc", "s", "monitor").monitor is not None
        with pytest.raises(ServiceError, match="monitor mode"):
            service.open_session("svc", "s", "stream")

    def test_monitor_session_needs_threshold(self, detector):
        service = DetectionService()
        service.register("svc", detector)  # no threshold
        with pytest.raises(ServiceError, match="threshold"):
            service.open_session("svc", "s", "monitor")

    def test_exactly_one_of_window_or_symbol(self, detector):
        service = fresh_service(detector)
        with pytest.raises(ServiceError, match="exactly one"):
            service.submit("svc", "s")
        with pytest.raises(ServiceError, match="exactly one"):
            service.submit("svc", "s", window=make_windows(1)[0], symbol="read")


def no_unk_model() -> HiddenMarkovModel:
    """An HMM whose alphabet has no <unk> slot: unknown symbols raise."""
    n = len(SYMBOLS)
    uniform = np.full((n, n), 1.0 / n)
    return HiddenMarkovModel(
        transition=uniform,
        emission=uniform,
        initial=np.full(n, 1.0 / n),
        symbols=tuple(SYMBOLS),
    )


class TestFailureSemantics:
    """Scoring failures resolve tickets typed — never stranded."""

    def test_unknown_symbol_fails_alone_in_batch(self):
        detector = load_pretrained(no_unk_model(), name="nounk")
        service = DetectionService()
        service.register("svc", detector)
        good = make_windows(6)
        bad = ("open", "exfiltrate", "read") + ("close",) * 12
        tickets = [service.submit("svc", "s", window=w) for w in good[:3]]
        bad_ticket = service.submit("svc", "s", window=bad)
        tickets += [service.submit("svc", "s", window=w) for w in good[3:]]
        service.pump()
        outcome = bad_ticket.result()
        assert isinstance(outcome, Failed)
        assert "exfiltrate" in outcome.error
        # The rest of the drain scored normally, bit-identical.
        scores = [t.result().score for t in tickets]
        assert scores == detector.score(good).tolist()
        assert service.stats.failed == 1
        assert service.stats.scored == 6

    def test_stream_scoring_failure_isolated_and_gapped(self):
        detector = load_pretrained(no_unk_model(), name="nounk")
        service = DetectionService()
        service.register("svc", detector)
        service.open_session("svc", "s", "stream")
        tickets = [
            service.submit("svc", "s", symbol=s)
            for s in ("open", "bogus", "read")
        ]
        service.drain_pending()
        first, failed, last = (t.result() for t in tickets)
        assert isinstance(first, Streamed) and first.gap is False
        assert isinstance(failed, Failed) and "bogus" in failed.error
        assert isinstance(last, Streamed) and last.gap is True
        # The belief state skipped the bad symbol cleanly: surviving
        # surprisals match a scorer fed only the surviving symbols.
        reference = StreamingScorer.for_detector(detector)
        assert [first.surprise, last.surprise] == \
            reference.observe_many(["open", "read"])

    def test_drain_crash_resolves_popped_tickets(self, detector, monkeypatch):
        """The backstop: an unexpected mid-drain crash strands nothing."""
        import repro.service.scheduler as scheduler_module

        def boom(models, obs_list):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(scheduler_module, "log_likelihood_stacked", boom)
        service = fresh_service(detector)
        tickets = [
            service.submit("svc", "s", window=w) for w in make_windows(5)
        ]
        with pytest.raises(RuntimeError, match="kaboom"):
            service.pump()
        outcomes = [t.result(timeout=0.1) for t in tickets]
        assert all(isinstance(o, Failed) for o in outcomes)
        assert all("kaboom" in o.error for o in outcomes)
        assert service.stats.failed == 5

    def test_threaded_loop_survives_drain_crash(self, detector):
        service = fresh_service(detector)
        real_drain = service._scheduler.drain
        crashes = {"n": 0}

        def flaky(lanes, stats):
            if crashes["n"] == 0 and any(lane.queue for lane in lanes):
                crashes["n"] += 1
                raise RuntimeError("transient")
            return real_drain(lanes, stats)

        service._scheduler.drain = flaky
        service.start()
        windows = make_windows(8)
        tickets = [service.submit("svc", "s", window=w) for w in windows]
        outcomes = [t.result(timeout=10.0) for t in tickets]
        service.close()
        assert crashes["n"] == 1  # the loop hit the crash and kept going
        assert [o.score for o in outcomes] == detector.score(windows).tolist()

    def test_graceful_close_survives_drain_crash(self, detector, monkeypatch):
        import repro.service.scheduler as scheduler_module

        calls = {"n": 0}
        real = log_likelihood_stacked

        def flaky(models, obs_list):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(models, obs_list)

        monkeypatch.setattr(scheduler_module, "log_likelihood_stacked", flaky)
        service = fresh_service(detector, max_batch=4)
        tickets = [
            service.submit("svc", "s", window=w) for w in make_windows(10)
        ]
        service.close(drain=True)
        outcomes = [t.result(timeout=0.1) for t in tickets]
        # First popped batch failed typed; the rest of the backlog scored.
        assert sum(isinstance(o, Failed) for o in outcomes) == 4
        assert sum(isinstance(o, Scored) for o in outcomes) == 6


class TestGapSemantics:
    def test_shed_marks_stream_session_gapped(self, detector):
        service = fresh_service(
            detector, max_queue_depth=2,
            admission_policy=AdmissionPolicy.REJECT_NEW,
        )
        service.open_session("svc", "s", "stream")
        tickets = [service.submit("svc", "s", symbol="open") for _ in range(3)]
        shed = tickets[2].result()
        assert isinstance(shed, Overloaded)
        service.drain_pending()
        assert all(t.result().gap is True for t in tickets[:2])
        assert service._sessions[("svc", "s")].gaps == 1

    def test_window_sessions_never_gap(self, detector):
        service = fresh_service(detector, max_queue_depth=2)
        tickets = [
            service.submit("svc", "s", window=w) for w in make_windows(3)
        ]
        service.drain_pending()
        assert all(
            o.gap is False
            for o in (t.result() for t in tickets)
            if isinstance(o, Scored)
        )

    def test_reset_clears_gap(self, detector):
        service = fresh_service(detector, max_queue_depth=1)
        session = service.open_session("svc", "s", "stream")
        service.submit("svc", "s", symbol="open")
        service.submit("svc", "s", symbol="read")  # shed -> gap
        service.drain_pending()
        assert session.gaps == 1
        session.reset()
        ticket = service.submit("svc", "s", symbol="write")
        service.drain_pending()
        assert session.gaps == 0
        assert ticket.result().gap is False


class TestRegistration:
    def test_unfitted_detector_rejected(self, gzip_program):
        from repro.api import build_detector

        bare = build_detector("cmarkov", gzip_program, "syscall")
        with pytest.raises(NotFittedError):
            DetectionService().register("raw", bare)

    def test_non_hmm_detector_rejected(self):
        """A fitted baseline without an HMM fails at register, not drain."""
        from repro.core import NGramDetector
        from repro.program import CallKind
        from repro.tracing import SegmentSet

        ngram = NGramDetector(kind=CallKind.SYSCALL, context=False, window=3)
        segments = SegmentSet(length=15)
        segments.update([tuple("abcde" * 3), tuple("aabba" * 3)])
        ngram.fit(segments)
        assert ngram.is_fitted
        with pytest.raises(ServiceError, match="HiddenMarkovModel"):
            DetectionService().register("stide", ngram)

    def test_duplicate_name_rejected(self, detector):
        service = fresh_service(detector)
        with pytest.raises(ServiceError, match="already registered"):
            service.register("svc", detector)

    def test_unknown_detector_rejected(self, detector):
        service = fresh_service(detector)
        with pytest.raises(ServiceError, match="no detector"):
            service.submit("nope", "s", window=make_windows(1)[0])

    def test_errors_are_typed_whatever_the_ids_say(self, detector):
        # Ids are the caller's, so only the type tells these cases apart.
        service = fresh_service(detector)
        with pytest.raises(UnknownDetectorError):
            service.open_session("service is closed", "s", "stream")
        with pytest.raises(SessionNotOpenError):
            service.submit("svc", "no detector", symbol=SYMBOLS[0])
        service.open_session("svc", "is not open", "monitor")
        with pytest.raises(ServiceError) as mismatch:
            service.open_session("svc", "is not open", "stream")
        assert type(mismatch.value) is ServiceError
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit("svc", "s", window=make_windows(1)[0])

    def test_register_fleet_from_models(self, model, tmp_path):
        from repro.hmm import save_model

        save_model(model, tmp_path / "svc.npz")
        fleet = load_fleet({"a": tmp_path / "svc.npz", "b": model})
        service = DetectionService()
        service.register_fleet(fleet, thresholds={"a": -2.0})
        assert service.detectors == ("a", "b")
        ticket = service.submit("a", "s", window=make_windows(1)[0])
        service.pump()
        assert isinstance(ticket.result(), Scored)

    def test_bad_config_rejected(self):
        with pytest.raises(ServiceError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ServiceError):
            ServiceConfig(max_queue_depth=0)
        with pytest.raises(ServiceError):
            ServiceConfig(latency_budget_s=-1.0)


# ----------------------------------------------------------------------
# Property: the streaming scorer's windowed score is the windowed monitor
# score.  For a stream of exactly T events, the surprisals telescope to
# -log P(o_1..o_T), so their negated mean IS the per-symbol window score
# Detector.score computes — the identity the Streamed.windowed_score field
# leans on.
# ----------------------------------------------------------------------
@st.composite
def stream_case(draw):
    n_states = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=5_000))
    length = draw(st.integers(min_value=1, max_value=20))
    model = random_model(SYMBOLS, n_states=n_states, seed=seed)
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(SYMBOLS) - 1),
            min_size=length,
            max_size=length,
        )
    )
    return model, [SYMBOLS[i] for i in indices]


@settings(max_examples=60, deadline=None)
@given(stream_case())
def test_windowed_surprisal_mean_matches_window_score(case):
    model, symbols = case
    detector = load_pretrained(model)
    scorer = StreamingScorer.for_detector(detector, window=len(symbols))
    scorer.observe_many(symbols)
    assert scorer.window_full
    window_score = float(detector.score([tuple(symbols)])[0])
    assert scorer.windowed_score == pytest.approx(window_score, rel=1e-9, abs=1e-9)


class TestWarmSwap:
    """`swap_detector`: barrier semantics, session continuity, validation."""

    def test_barrier_drains_backlog_under_old_model(self, detector, model):
        """Windows admitted before the swap score under the pre-swap
        detector, bit-identically — the swap never rescores a backlog."""
        retrained = load_pretrained(
            random_model(SYMBOLS, n_states=4, seed=77), name="svc2"
        )
        service = fresh_service(detector)
        windows = make_windows(9)
        tickets = [
            service.submit("svc", f"s{i}", window=w)
            for i, w in enumerate(windows)
        ]
        drained = service.swap_detector("svc", retrained)
        assert drained == len(windows)
        old_scores = detector.score(windows).tolist()
        assert [t.result().score for t in tickets] == old_scores

        # ... and only post-barrier work sees the new model.
        after = service.submit("svc", "late", window=windows[0])
        service.drain_pending()
        assert after.result().score == retrained.score([windows[0]])[0]
        assert after.result().score != old_scores[0]

    def test_stream_sessions_rebound_not_dropped(self, detector):
        """An open stream survives the swap: no gap marker, and post-swap
        surprisals are bit-identical to the new model's restarted filter."""
        retrained_model = random_model(SYMBOLS, n_states=4, seed=78)
        retrained = load_pretrained(retrained_model, name="svc2")
        service = fresh_service(detector)
        service.open_session("svc", "proc", "stream")
        feed = [SYMBOLS[i % len(SYMBOLS)] for i in range(12)]

        def observe(symbol):
            ticket = service.submit("svc", "proc", symbol=symbol)
            service.drain_pending()
            return ticket.result()

        pre = [observe(s) for s in feed[:6]]
        service.swap_detector("svc", retrained)
        post = [observe(s) for s in feed[6:]]

        expected_pre = StreamingScorer.for_detector(
            detector, window=15
        ).observe_many(feed[:6])
        expected_post = StreamingScorer.for_detector(
            retrained, window=15
        ).observe_many(feed[6:])
        assert [o.surprise for o in pre] == expected_pre
        assert [o.surprise for o in post] == expected_post
        assert all(o.gap is False for o in pre + post)

    def test_swap_keeps_lane_operating_point(self, detector):
        """Threshold and window outlive the retrain: a monitor session
        opened after the swap still alerts at the registered threshold."""
        retrained = load_pretrained(
            random_model(SYMBOLS, n_states=4, seed=79), name="svc2"
        )
        service = DetectionService(ServiceConfig(default_window=3))
        service.register("svc", detector, threshold=1e9, window=3)
        service.swap_detector("svc", retrained)
        service.open_session("svc", "m", "monitor")  # needs the threshold
        tickets = [
            service.submit("svc", "m", symbol=s)
            for s in ["open", "read", "write"]
        ]
        service.drain_pending()
        last = tickets[-1].result()
        assert isinstance(last, Scored)
        assert last.alert is not None  # impossible threshold always alerts

    def test_swap_validation_mirrors_register(self, detector, gzip_program):
        from repro.api import build_detector

        service = fresh_service(detector)
        with pytest.raises(ServiceError, match="no detector"):
            service.swap_detector("ghost", detector)
        bare = build_detector("cmarkov", gzip_program, "syscall")
        with pytest.raises(NotFittedError):
            service.swap_detector("svc", bare)

        class FakeFitted:
            is_fitted = True
            model = object()

        with pytest.raises(ServiceError, match="HiddenMarkovModel"):
            service.swap_detector("svc", FakeFitted())
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.swap_detector("svc", detector)


class TestCloseSession:
    def test_close_session_round_trip(self, detector):
        service = fresh_service(detector)
        service.open_session("svc", "s", "stream")
        assert service.close_session("svc", "s") is True
        assert service.close_session("svc", "s") is False
        # Closing frees the name for a different mode.
        service.open_session("svc", "s", "monitor")

    def test_close_session_unknown_detector_raises(self, detector):
        service = fresh_service(detector)
        with pytest.raises(ServiceError, match="no detector"):
            service.close_session("ghost", "s")


class TestTicketCallbacks:
    def test_callback_fires_once_with_the_outcome(self, detector):
        service = fresh_service(detector)
        ticket = service.submit("svc", "s", window=make_windows(1)[0])
        seen = []
        ticket.add_done_callback(seen.append)
        assert seen == []
        assert service.pump() == 1
        assert service.pump() == 0
        assert seen == [ticket.result(timeout=0)]
        assert isinstance(seen[0], Scored)

    def test_late_callback_fires_immediately(self, detector):
        service = fresh_service(detector)
        ticket = service.submit("svc", "s", window=make_windows(1)[0])
        service.pump()
        seen = []
        ticket.add_done_callback(seen.append)
        assert seen == [ticket.result(timeout=0)]

    def test_raising_callback_fails_neither_others_nor_the_drain(
        self, detector, caplog
    ):
        service = fresh_service(detector)
        windows = make_windows(3)
        tickets = [service.submit("svc", "s", window=w) for w in windows]
        seen = []

        def broken(outcome):
            raise RuntimeError("callback bug")

        for ticket in tickets:
            ticket.add_done_callback(broken)
            ticket.add_done_callback(seen.append)
        with caplog.at_level(logging.ERROR, logger="repro.service"):
            assert service.pump() == 3
        assert seen == [t.result(timeout=0) for t in tickets]
        assert [o.score for o in seen] == detector.score(windows).tolist()
        assert service.stats.scored == 3
        logged = [r for r in caplog.records if "done-callback" in r.getMessage()]
        assert len(logged) == 3

    def test_register_racing_resolve_fires_each_callback_once(self):
        tickets = [Ticket() for _ in range(2000)]
        calls = [0] * len(tickets)
        outcome = Absorbed(detector="d", session="s", queued_s=0.0)

        def resolve_all():
            for ticket in tickets:
                ticket._resolve(outcome)

        resolver = threading.Thread(target=resolve_all)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            resolver.start()
            for index, ticket in enumerate(tickets):
                ticket.add_done_callback(
                    lambda _, index=index: calls.__setitem__(index, calls[index] + 1)
                )
            resolver.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not resolver.is_alive()
        assert calls == [1] * len(tickets)


class TestThreadedWake:
    def test_idle_loop_sleeps_until_a_submit(self, detector, count_pump_rounds):
        service = fresh_service(detector)
        rounds = count_pump_rounds(service)
        service.start()
        time.sleep(0.2)
        assert len(rounds) <= 1
        ticket = service.submit("svc", "s", window=make_windows(1)[0])
        assert isinstance(ticket.result(timeout=10.0), Scored)
        service.close()

    def test_submit_racing_an_empty_round_still_wakes_the_loop(self, detector):
        service = fresh_service(detector)
        real_pump = service.pump
        raced = []

        def pump(*args, **kwargs):
            resolved = real_pump(*args, **kwargs)
            if resolved == 0 and not raced:
                # Admit a request after the round found the queue empty but
                # before the loop decides to sleep.
                raced.append(service.submit("svc", "s", window=make_windows(1)[0]))
            return resolved

        service.pump = pump
        service.start()
        try:
            assert _wait_for(lambda: raced)
            assert isinstance(raced[0].result(timeout=5.0), Scored)
        finally:
            service.close()

    def test_close_on_idle_loop_returns_promptly(self, detector):
        service = fresh_service(detector)
        service.start()
        time.sleep(0.05)
        closer = threading.Thread(target=service.close, daemon=True)
        closer.start()
        closer.join(timeout=1.0)
        assert not closer.is_alive()

    def test_waiting_submitter_goes_before_the_next_round(self, detector):
        service = fresh_service(detector, max_batch=1)
        for index, window in enumerate(make_windows(30)):
            service.submit("svc", f"backlog{index}", window=window)
        rounds = []
        real_drain = service._scheduler.drain

        def slow_drain(lanes, stats):
            resolved = real_drain(lanes, stats)
            time.sleep(0.01)  # a long round, holding the service lock
            rounds.append(resolved)
            return resolved

        service._scheduler.drain = slow_drain
        service.start()
        try:
            assert _wait_for(lambda: rounds)
            before = len(rounds)
            service.submit("svc", "late", window=make_windows(1)[0])
            # The round in flight ends; at most one more starts if the
            # loop passed the gate before this submitter reached it.
            assert len(rounds) - before <= 2
            assert service.pending > 20
        finally:
            service.close()

    def test_bursty_submitters_lose_no_wake_up(self, detector, stream_bursts):
        service = fresh_service(detector)
        service.start()
        try:
            streams = stream_bursts(service, "svc", SYMBOLS)
            deadline = time.monotonic() + 10.0
            for symbols, tickets in streams.values():
                outcomes = [
                    t.result(timeout=max(0.0, deadline - time.monotonic()))
                    for t in tickets
                ]
                reference = StreamingScorer.for_detector(detector)
                assert [o.surprise for o in outcomes] == \
                    reference.observe_many(symbols)
        finally:
            service.close()


def _post_observe(port: int, session_id: str, window, statuses: list) -> None:
    """POST one window observe; record its status, or the error that ended
    the connection (a stopped gateway may close it unanswered)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST",
            f"/v1/sessions/svc/{session_id}/observe",
            body=json.dumps({"window": list(window)}).encode(),
        )
        response = conn.getresponse()
        response.read()
        statuses.append(response.status)
    except (OSError, http.client.HTTPException) as exc:
        statuses.append(type(exc).__name__)
    finally:
        conn.close()


def _capture_tickets(service) -> list:
    """Record every ticket ``service.submit`` hands out from now on."""
    tickets = []
    real_submit = service.submit

    def submit(*args, **kwargs):
        ticket = real_submit(*args, **kwargs)
        tickets.append(ticket)
        return ticket

    service.submit = submit
    return tickets


def _wait_for(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestGatewayAwaitedTickets:
    """Tickets a gateway awaits through done-callbacks, resolved after the
    gateway stopped or gave up on them."""

    def test_close_after_gateway_stop_drains_parked_tickets(
        self, detector, caplog
    ):
        service = fresh_service(detector)
        gateway = DetectionGateway(
            service, config=GatewayConfig(result_timeout_s=2.0, pump=False)
        )
        gateway.start()
        windows = make_windows(6)
        statuses: list = []
        clients = [
            threading.Thread(
                target=_post_observe, args=(gateway.port, f"p{i}", w, statuses)
            )
            for i, w in enumerate(windows)
        ]
        for client in clients:
            client.start()
        assert _wait_for(lambda: service.pending == len(windows))
        time.sleep(0.2)  # the loop registers each callback right after submit
        with caplog.at_level(logging.ERROR):
            gateway.stop()
            handled = service.close(drain=True)
        for client in clients:
            client.join(timeout=30)
        assert not any(client.is_alive() for client in clients)
        assert handled == len(windows)
        assert service.stats.scored == len(windows)
        assert [r.getMessage() for r in caplog.records] == []

    def test_timed_out_observe_resolves_once_on_a_later_pump(self, detector):
        service = fresh_service(detector)
        tickets = _capture_tickets(service)
        windows = make_windows(3)
        statuses: list = []
        with DetectionGateway(
            service, config=GatewayConfig(result_timeout_s=0.2, pump=False)
        ) as gateway:
            for i, window in enumerate(windows):
                _post_observe(gateway.port, f"late{i}", window, statuses)
            assert statuses == [503] * len(windows)
            assert not any(t.done() for t in tickets)
            seen = []
            for ticket in tickets:
                ticket.add_done_callback(seen.append)
            assert service.pump() == len(windows)
            assert service.pump() == 0
        outcomes = [t.result(timeout=0) for t in tickets]
        assert seen == outcomes
        assert [o.score for o in outcomes] == detector.score(windows).tolist()
        stats = service.stats
        assert stats.submitted == len(tickets)
        assert stats.scored == sum(isinstance(o, Scored) for o in outcomes)
        assert stats.failed == stats.shed_total == 0
        service.close()
