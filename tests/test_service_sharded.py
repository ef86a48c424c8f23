"""Tests for the process-sharded detection service.

The load-bearing guarantees, per ``docs/service.md``:

* **single-shard bit-identity** — a 1-shard sharded service produces
  bit-identical scores to the in-process ``DetectionService`` (and N-shard
  scores match too, because the batched kernels are batch-invariant);
* **consistent routing** — a session's requests all land on one shard, so
  sticky monitor/stream state behaves exactly like the in-process service;
* **no stranded tickets, across processes** — a SIGKILLed worker resolves
  every in-flight ticket of its shard as a typed ``Failed``, bumps
  ``service.shard.crashes``, and the shard restarts (or degrades when
  restarts are off) without taking the service down;
* **mergeable accounting** — fleet-wide stats and telemetry counters equal
  the single-process run's.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import api, telemetry
from repro.api import load_pretrained
from repro.core.streaming import StreamingScorer
from repro.errors import NotFittedError, ServiceError
from repro.service import (
    Absorbed,
    DetectionService,
    Failed,
    HashRing,
    Overloaded,
    RemoteSession,
    Scored,
    ServiceConfig,
    ShardConfig,
    ShardedDetectionService,
    ShedReason,
    Streamed,
    create_service,
)
from repro.hmm import random_model

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


def reference_scores(detector, windows):
    service = DetectionService(ServiceConfig())
    service.register("d", detector)
    tickets = [
        service.submit("d", f"sess-{i % 5}", window=w)
        for i, w in enumerate(windows)
    ]
    service.drain_pending()
    service.close()
    return [t.result(timeout=1).score for t in tickets]


@pytest.fixture()
def sharded(detector):
    def _make(shards: int, config: ServiceConfig | None = None, **kwargs):
        service = ShardedDetectionService(
            config or ServiceConfig(), ShardConfig(shards=shards, **kwargs)
        )
        service.register("d", detector, threshold=-4.0)
        services.append(service)
        return service

    services: list[ShardedDetectionService] = []
    yield _make
    for service in services:
        try:
            service.close(drain=False)
        except Exception:
            pass


class TestHashRing:
    def test_routing_is_deterministic_and_in_range(self):
        ring = HashRing(4)
        routes = [ring.route(f"session-{i}") for i in range(200)]
        assert routes == [ring.route(f"session-{i}") for i in range(200)]
        assert set(routes) <= set(range(4))

    def test_every_shard_gets_traffic(self):
        ring = HashRing(4)
        routes = {ring.route(f"session-{i}") for i in range(500)}
        assert routes == set(range(4))

    def test_single_shard_routes_everything_to_zero(self):
        ring = HashRing(1)
        assert {ring.route(f"s{i}") for i in range(50)} == {0}

    def test_growing_the_ring_remaps_a_minority(self):
        small, large = HashRing(4), HashRing(5)
        keys = [f"session-{i}" for i in range(1000)]
        moved = sum(small.route(k) != large.route(k) for k in keys)
        # Consistent hashing moves ~1/5 of keys; modulo hashing would move ~4/5.
        assert moved < 500

    def test_rejects_zero_shards(self):
        with pytest.raises(ServiceError):
            HashRing(0)


class TestSingleShardBitIdentity:
    def test_scores_bit_identical_to_in_process_service(
        self, sharded, detector
    ):
        windows = make_windows(64)
        expected = reference_scores(detector, windows)
        service = sharded(1)
        tickets = [
            service.submit("d", f"sess-{i % 5}", window=w)
            for i, w in enumerate(windows)
        ]
        service.drain_pending()
        scores = [t.result(timeout=10).score for t in tickets]
        assert scores == expected

    def test_stats_match_in_process_service(self, sharded, detector):
        windows = make_windows(32)
        reference = DetectionService(ServiceConfig())
        reference.register("d", detector)
        for i, w in enumerate(windows):
            reference.submit("d", f"sess-{i % 5}", window=w)
        reference.drain_pending()
        reference.close()

        service = sharded(1)
        for i, w in enumerate(windows):
            service.submit("d", f"sess-{i % 5}", window=w)
        service.drain_pending()
        service.close()
        merged = service.stats.as_dict()
        assert merged.pop("shard_crashes") == 0
        assert merged == reference.stats.as_dict()


class TestMultiShard:
    def test_scores_match_reference_across_shards(self, sharded, detector):
        windows = make_windows(80)
        expected = reference_scores(detector, windows)
        service = sharded(4)
        tickets = [
            service.submit("d", f"sess-{i % 5}", window=w)
            for i, w in enumerate(windows)
        ]
        service.drain_pending()
        scores = [t.result(timeout=10).score for t in tickets]
        assert scores == expected

    def test_submit_many_matches_per_submit(self, sharded, detector):
        windows = make_windows(48)
        expected = reference_scores(detector, windows)
        service = sharded(2)
        tickets = service.submit_many(
            "d", [(f"sess-{i % 5}", w) for i, w in enumerate(windows)]
        )
        service.drain_pending()
        assert [t.result(timeout=10).score for t in tickets] == expected

    def test_sessions_are_sticky_to_one_shard(self, sharded):
        service = sharded(4)
        for i in range(20):
            session = service.open_session("d", f"sess-{i}")
            assert isinstance(session, RemoteSession)
            assert session.shard == service.shard_of(f"sess-{i}")
            # Reopening returns the same placement.
            assert service.open_session("d", f"sess-{i}").shard == session.shard

    def test_stats_merge_across_shards(self, sharded):
        service = sharded(4)
        windows = make_windows(60)
        service.submit_many(
            "d", [(f"sess-{i}", w) for i, w in enumerate(windows)]
        )
        service.drain_pending()
        stats = service.stats
        assert stats.submitted == 60
        assert stats.scored == 60
        assert stats.batches >= 1
        assert stats.shard_crashes == 0

    def test_monitor_session_warmup_and_score(self, sharded, detector):
        service = sharded(2, config=ServiceConfig(default_window=5))
        service.open_session("d", "mon", "monitor")
        outcomes = []
        for symbol in ["open", "read", "write", "mmap", "close"]:
            ticket = service.submit("d", "mon", symbol=symbol)
            service.drain_pending()
            outcomes.append(ticket.result(timeout=10))
        assert all(isinstance(o, Absorbed) for o in outcomes[:4])
        assert isinstance(outcomes[-1], Scored)

    def test_stream_session_yields_streamed(self, sharded):
        service = sharded(2)
        service.open_session("d", "stream-1", "stream")
        ticket = service.submit("d", "stream-1", symbol="open")
        service.drain_pending()
        assert isinstance(ticket.result(timeout=10), Streamed)


class TestAdmissionAndShutdown:
    def test_overload_resolves_typed_outcomes(self, sharded):
        service = sharded(1, config=ServiceConfig(max_queue_depth=4))
        windows = make_windows(12)
        tickets = [
            service.submit("d", "one-session", window=w) for w in windows
        ]
        service.drain_pending()
        outcomes = [t.result(timeout=10) for t in tickets]
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        scored = [o for o in outcomes if isinstance(o, Scored)]
        assert len(shed) == 8 and len(scored) == 4
        assert {o.reason for o in shed} == {ShedReason.QUEUE_FULL}

    def test_close_without_drain_strands_no_ticket(self, sharded):
        service = sharded(2)
        tickets = service.submit_many(
            "d", [(f"sess-{i}", w) for i, w in enumerate(make_windows(30))]
        )
        service.close(drain=False)
        outcomes = [t.result(timeout=10) for t in tickets]
        assert all(isinstance(o, Overloaded) for o in outcomes)
        assert {o.reason for o in outcomes} == {ShedReason.SHUTDOWN}
        assert service.pending == 0

    def test_graceful_close_scores_backlog(self, sharded):
        service = sharded(2)
        tickets = service.submit_many(
            "d", [(f"sess-{i}", w) for i, w in enumerate(make_windows(30))]
        )
        handled = service.close(drain=True)
        assert handled == 30
        assert all(
            isinstance(t.result(timeout=10), Scored) for t in tickets
        )

    def test_background_loop_resolves_tickets(self, sharded):
        service = sharded(2)
        service.start()
        tickets = service.submit_many(
            "d", [(f"sess-{i}", w) for i, w in enumerate(make_windows(20))]
        )
        outcomes = [t.result(timeout=30) for t in tickets]
        assert all(isinstance(o, Scored) for o in outcomes)
        service.close()

    def test_context_manager_closes(self, detector):
        with ShardedDetectionService(
            ServiceConfig(), ShardConfig(shards=2)
        ) as service:
            service.register("d", detector)
            ticket = service.submit("d", "s", window=make_windows(1)[0])
            service.drain_pending()
        assert isinstance(ticket.result(timeout=10), Scored)
        with pytest.raises(ServiceError, match="closed"):
            service.submit("d", "s", window=make_windows(1)[0])


class TestThreadedWake:
    def test_idle_loop_sleeps_until_a_submit(self, sharded, count_pump_rounds):
        service = sharded(2)
        rounds = count_pump_rounds(service)
        service.start()
        time.sleep(0.2)
        assert len(rounds) <= 1
        ticket = service.submit("d", "s", window=make_windows(1)[0])
        assert isinstance(ticket.result(timeout=10), Scored)

    def test_submit_racing_an_empty_round_still_wakes_the_loop(self, sharded):
        service = sharded(2)
        real_pump = service.pump
        raced = []

        def pump(*args, **kwargs):
            resolved = real_pump(*args, **kwargs)
            if resolved == 0 and not raced:
                # Admit a request after the round found every shard empty
                # but before the loop decides to sleep.
                raced.append(service.submit("d", "s", window=make_windows(1)[0]))
            return resolved

        service.pump = pump
        service.start()
        deadline = time.monotonic() + 10.0
        while not raced and time.monotonic() < deadline:
            time.sleep(0.01)
        assert isinstance(raced[0].result(timeout=5.0), Scored)

    def test_close_on_idle_loop_returns_promptly(self, sharded):
        service = sharded(2)
        service.start()
        time.sleep(0.05)
        closer = threading.Thread(target=service.close, daemon=True)
        closer.start()
        closer.join(timeout=1.0)
        assert not closer.is_alive()

    def test_bursty_submitters_lose_no_wake_up(
        self, sharded, detector, stream_bursts
    ):
        service = sharded(2)
        service.start()
        streams = stream_bursts(service, "d", SYMBOLS)
        assert {service.shard_of(session) for session in streams} == {0, 1}
        deadline = time.monotonic() + 10.0
        for symbols, tickets in streams.values():
            outcomes = [
                t.result(timeout=max(0.0, deadline - time.monotonic()))
                for t in tickets
            ]
            reference = StreamingScorer.for_detector(detector)
            assert [o.surprise for o in outcomes] == \
                reference.observe_many(symbols)


def _kill_shard(service: ShardedDetectionService, shard: int) -> None:
    process = service._handles[shard].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=5)


class TestCrashSemantics:
    def test_sigkill_resolves_inflight_failed_and_restarts(self, sharded):
        service = sharded(2)
        windows = make_windows(40)
        tickets = service.submit_many(
            "d", [(f"sess-{i}", w) for i, w in enumerate(windows)]
        )
        victims = [
            i
            for i, t in enumerate(tickets)
            if service.shard_of(f"sess-{i}") == 0
        ]
        assert victims, "hash ring left shard 0 empty; pick more sessions"
        _kill_shard(service, 0)
        service.drain_pending()
        outcomes = [t.result(timeout=10) for t in tickets]
        failed = [i for i, o in enumerate(outcomes) if isinstance(o, Failed)]
        # Everything routed to the dead shard failed (with the crash named),
        # everything else scored; nobody hangs.
        assert set(failed) == set(victims)
        assert all("died" in outcomes[i].error for i in failed)
        assert all(
            isinstance(o, Scored)
            for i, o in enumerate(outcomes)
            if i not in set(victims)
        )
        assert service.stats.shard_crashes == 1
        assert service.live_shards == 2  # restarted

    def test_restarted_shard_serves_and_marks_sessions_gapped(self, sharded):
        service = sharded(2)
        session = next(
            f"s{i}" for i in range(100) if service.shard_of(f"s{i}") == 0
        )
        ticket = service.submit("d", session, window=make_windows(1)[0])
        _kill_shard(service, 0)
        service.drain_pending()
        assert isinstance(ticket.result(timeout=10), Failed)
        assert service.session_gapped("d", session)
        # The replacement shard scores new work for the same session.
        retry = service.submit("d", session, window=make_windows(1)[0])
        service.drain_pending()
        assert isinstance(retry.result(timeout=10), Scored)

    def test_crash_bumps_telemetry_counter(self, detector):
        with telemetry.session() as registry:
            service = ShardedDetectionService(
                ServiceConfig(), ShardConfig(shards=2)
            )
            service.register("d", detector)
            service.submit("d", "s0", window=make_windows(1)[0])
            _kill_shard(service, service.shard_of("s0"))
            service.drain_pending()
            service.close()
            counters = registry.snapshot()["counters"]
        assert counters.get("service.shard.crashes") == 1

    def test_degraded_mode_raises_for_dead_shard_only(self, sharded):
        service = sharded(2, restart_crashed_shards=False)
        dead, alive = 0, 1
        dead_session = next(
            f"s{i}" for i in range(100) if service.shard_of(f"s{i}") == dead
        )
        live_session = next(
            f"s{i}" for i in range(100) if service.shard_of(f"s{i}") == alive
        )
        _kill_shard(service, dead)
        # Let the parent notice via a drain round.
        service.drain_pending()
        assert service.live_shards == 1
        with pytest.raises(ServiceError, match="down"):
            service.submit("d", dead_session, window=make_windows(1)[0])
        ticket = service.submit("d", live_session, window=make_windows(1)[0])
        service.drain_pending()
        assert isinstance(ticket.result(timeout=10), Scored)

    def test_monitor_session_reopens_gapped_after_restart(
        self, sharded, detector
    ):
        service = sharded(2, config=ServiceConfig(default_window=3))
        session = next(
            f"m{i}" for i in range(100) if service.shard_of(f"m{i}") == 0
        )
        service.open_session("d", session, "monitor")
        _kill_shard(service, 0)
        service.drain_pending()
        # The replacement shard re-opened the session; it accepts symbols
        # and the first full window carries the gap marker.
        outcomes = []
        for symbol in ["open", "read", "write"]:
            ticket = service.submit("d", session, symbol=symbol)
            service.drain_pending()
            outcomes.append(ticket.result(timeout=10))
        assert isinstance(outcomes[-1], Scored)
        assert outcomes[-1].gap is True


class TestTelemetryParity:
    def test_counters_equal_single_process_run(self, detector):
        windows = make_windows(50)
        submissions = [(f"sess-{i % 9}", w) for i, w in enumerate(windows)]

        with telemetry.session() as registry:
            service = DetectionService(ServiceConfig())
            service.register("d", detector)
            for session_id, window in submissions:
                service.submit("d", session_id, window=window)
            service.drain_pending()
            service.close()
            single = registry.snapshot()["counters"]

        with telemetry.session() as registry:
            service = ShardedDetectionService(
                ServiceConfig(), ShardConfig(shards=3)
            )
            service.register("d", detector)
            service.submit_many("d", submissions)
            service.drain_pending()
            service.close()
            sharded_counters = registry.snapshot()["counters"]

        # Batch counts legitimately differ (each shard drains its own
        # micro-batches); every per-request counter must agree exactly.
        for name in ("service.submitted", "hmm.forward.sequences"):
            assert sharded_counters.get(name) == single.get(name), name

    def test_sync_telemetry_merges_midflight(self, detector):
        with telemetry.session() as registry:
            service = ShardedDetectionService(
                ServiceConfig(), ShardConfig(shards=2)
            )
            service.register("d", detector)
            service.submit_many(
                "d", [(f"s{i}", w) for i, w in enumerate(make_windows(10))]
            )
            service.drain_pending()
            service.sync_telemetry()
            midflight = registry.snapshot()["counters"].get("service.submitted")
            service.close()
            final = registry.snapshot()["counters"].get("service.submitted")
        assert midflight == 10
        assert final == 10  # worker deltas reset; close merges nothing twice


class TestValidationParity:
    """The parent front door raises the same errors as DetectionService."""

    def test_register_rejects_unfitted(self, sharded):
        service = sharded(1)

        class Unfitted:
            is_fitted = False

        with pytest.raises(NotFittedError):
            service.register("raw", Unfitted())

    def test_register_rejects_duplicate(self, sharded, detector):
        service = sharded(1)
        with pytest.raises(ServiceError, match="already registered"):
            service.register("d", detector)

    def test_submit_unknown_detector(self, sharded):
        service = sharded(1)
        with pytest.raises(ServiceError, match="no detector"):
            service.submit("ghost", "s", window=make_windows(1)[0])

    def test_submit_requires_exactly_one_payload(self, sharded):
        service = sharded(1)
        with pytest.raises(ServiceError, match="exactly one"):
            service.submit("d", "s")
        with pytest.raises(ServiceError, match="exactly one"):
            service.submit("d", "s", window=make_windows(1)[0], symbol="open")

    def test_symbol_to_unopened_session_raises(self, sharded):
        service = sharded(1)
        with pytest.raises(ServiceError, match="not open"):
            service.submit("d", "s", symbol="open")

    def test_window_to_stream_session_raises(self, sharded):
        service = sharded(1)
        service.open_session("d", "s", "stream")
        with pytest.raises(ServiceError, match="stream session"):
            service.submit("d", "s", window=make_windows(1)[0])

    def test_mode_conflict_on_reopen(self, sharded):
        service = sharded(1)
        service.open_session("d", "s", "monitor")
        with pytest.raises(ServiceError, match="monitor mode"):
            service.open_session("d", "s", "stream")

    def test_shard_config_validation(self):
        with pytest.raises(ServiceError):
            ShardConfig(shards=0)
        with pytest.raises(ServiceError):
            ShardConfig(shards=2, virtual_nodes=0)


class TestFactories:
    def test_create_service_returns_in_process_for_one_shard(self):
        service = create_service()
        assert isinstance(service, DetectionService)
        service.close()

    def test_create_service_returns_sharded(self, detector):
        service = create_service(shards=2)
        assert isinstance(service, ShardedDetectionService)
        assert service.shards == 2
        service.close()

    def test_api_open_service(self, detector):
        service = api.open_service(shards=2)
        assert isinstance(service, ShardedDetectionService)
        service.close()
        assert isinstance(api.open_service(), DetectionService)

    def test_explicit_shard_config_wins(self):
        service = create_service(
            shard_config=ShardConfig(shards=3, virtual_nodes=8)
        )
        assert isinstance(service, ShardedDetectionService)
        assert service.shards == 3
        service.close()


class TestWarmSwapSharded:
    """Registry-driven warm-swap across the fleet, including crash-restart:
    a shard restarted *after* a swap must rebuild from the swapped-in
    weights, not the weights it was originally registered with."""

    @pytest.fixture()
    def registry_wired(self, sharded, model):
        """A 2-shard service whose lane `d` follows a registry lineage."""
        from repro.runtime import ModelRegistry
        from repro.service import rebuild_detector

        service = sharded(2)
        registry = ModelRegistry()

        def follow(lineage, entry, new_model):
            service.swap_detector(
                lineage, rebuild_detector(new_model, name=lineage)
            )

        registry.subscribe(follow)
        registry.publish("d", model)  # v1 == the registered weights
        return service, registry

    def test_swap_propagates_to_all_shards(self, registry_wired):
        service, registry = registry_wired
        retrained = random_model(SYMBOLS, n_states=4, seed=11)
        registry.publish("d", retrained, activate=True)
        windows = make_windows(12, seed=5)
        tickets = service.submit_many(
            "d", [(f"s{i}", w) for i, w in enumerate(windows)]
        )
        service.drain_pending()
        expected = load_pretrained(retrained).score(windows).tolist()
        assert [t.result(timeout=10).score for t in tickets] == expected

    def test_restarted_shard_resolves_swapped_weights(
        self, registry_wired, detector
    ):
        """Under a threaded pump: swap via the registry, SIGKILL a shard,
        and prove the replacement serves the *new* weights."""
        service, registry = registry_wired
        retrained = random_model(SYMBOLS, n_states=4, seed=12)
        registry.publish("d", retrained, activate=True)

        service.start()  # threaded pump owns draining now
        session = next(
            f"s{i}" for i in range(100) if service.shard_of(f"s{i}") == 0
        )
        window = make_windows(1, seed=6)[0]
        ticket = service.submit("d", session, window=window)
        assert isinstance(ticket.result(timeout=10), Scored)

        _kill_shard(service, 0)
        retry = service.submit("d", session, window=window)
        outcome = retry.result(timeout=10)
        # The pump may resolve the retry as Failed if it raced the crash
        # notice; one more submit must land on the restarted shard.
        if isinstance(outcome, Failed):
            retry = service.submit("d", session, window=window)
            outcome = retry.result(timeout=10)
        assert isinstance(outcome, Scored)
        stale = load_pretrained(service_model(detector)).score([window])[0]
        fresh = load_pretrained(retrained).score([window])[0]
        assert outcome.score == fresh
        assert outcome.score != stale
        assert service.stats.shard_crashes == 1

    def test_shard_crashes_merge_into_gateway_metrics(self, registry_wired):
        """The gateway's /metrics renderer exposes the fleet-merged crash
        counter from stats even when telemetry never saw the crash."""
        from repro.gateway import render_prometheus

        service, _ = registry_wired
        service.submit("d", "s0", window=make_windows(1)[0])
        _kill_shard(service, service.shard_of("s0"))
        service.drain_pending()
        text = render_prometheus(None, service.stats.as_dict())
        assert "repro_service_shard_crashes_total 1" in text


def service_model(detector):
    return detector.model
