"""Differential tests for cross-detector batched drains.

``ServiceConfig.cross_detector_batching`` (default on) routes ``pump()``
through :meth:`MicroBatchScheduler.drain_many`, which stacks same-shape
detectors' length groups into one fused tensor contraction
(:func:`repro.hmm.kernels.log_likelihood_fleet`).  The contract under
test: **every externally observable outcome is bit-identical to per-lane
drains** — scores, surprisals, alerts, anomaly verdicts, batch sizes,
typed ``Failed`` isolation — only the kernel-launch count changes.

The fuzz harness runs the same submission plan against a fused and a
per-lane service (deterministic clock, same detectors) and compares the
resolved outcomes field by field.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.api import load_pretrained
from repro.hmm import HiddenMarkovModel, random_model
from repro.service import (
    DetectionService,
    Failed,
    Scored,
    ServiceConfig,
    ShardConfig,
    ShardedDetectionService,
    Streamed,
)

SYMBOLS = ["open", "read", "write", "mmap", "close"]
ALT_SYMBOLS = ["recv", "send", "poll"]


@pytest.fixture(scope="module")
def fleet():
    """Mixed-shape fleet: two (4, 6) lanes, one (5, 6), one (4, 4).

    Shapes count the UNK slot ``random_model`` appends; the two same-shape
    lanes are what the fused path stacks, the other two exercise the
    per-group fallback.
    """
    return [
        ("alpha", load_pretrained(random_model(SYMBOLS, n_states=4, seed=1))),
        ("beta", load_pretrained(random_model(SYMBOLS, n_states=4, seed=2))),
        ("gamma", load_pretrained(random_model(SYMBOLS, n_states=5, seed=3))),
        ("delta", load_pretrained(random_model(ALT_SYMBOLS, n_states=4, seed=4))),
    ]


def build_service(fused, fleet, threshold=-2.0, **config_kwargs):
    service = DetectionService(
        ServiceConfig(cross_detector_batching=fused, **config_kwargs),
        clock=lambda: 0.0,
    )
    for name, detector in fleet:
        service.register(name, detector, threshold=threshold, window=4)
    return service


def summarize(outcome):
    """Every externally observable field, typed (for == comparison)."""
    payload = {"type": type(outcome).__name__}
    payload.update(vars(outcome))
    return payload


def run_plan(service, fleet, plan):
    """Execute one submission plan; returns the resolved outcome dicts.

    A plan step is ``(lane_index, tenant, kind, payload)`` with kind one
    of ``window`` / ``monitor`` / ``stream``.
    """
    tickets = []
    for lane_index, tenant, kind, payload in plan:
        name = fleet[lane_index][0]
        session = f"{kind}-{tenant}"
        if kind == "window":
            tickets.append(service.submit(name, session, window=payload))
            continue
        if (name, session) not in service._sessions:
            service.open_session(name, session, kind)
        tickets.append(service.submit(name, session, symbol=payload))
    while service.pump():
        pass
    return [summarize(t.result()) for t in tickets]


@st.composite
def submission_plan(draw):
    steps = []
    n_steps = draw(st.integers(min_value=1, max_value=40))
    for _ in range(n_steps):
        lane_index = draw(st.integers(min_value=0, max_value=3))
        tenant = draw(st.integers(min_value=0, max_value=2))
        kind = draw(st.sampled_from(["window", "monitor", "stream"]))
        labels = ALT_SYMBOLS if lane_index == 3 else SYMBOLS
        if kind == "window":
            length = draw(st.integers(min_value=1, max_value=8))
            payload = tuple(
                draw(st.sampled_from(labels)) for _ in range(length)
            )
        else:
            payload = draw(st.sampled_from(labels))
        steps.append((lane_index, tenant, kind, payload))
    return steps


class TestDifferentialFuzz:
    @settings(max_examples=25, deadline=None)
    @given(submission_plan())
    def test_fused_outcomes_equal_per_lane(self, fleet, plan):
        fused = run_plan(build_service(True, fleet), fleet, plan)
        per_lane = run_plan(build_service(False, fleet), fleet, plan)
        assert fused == per_lane  # bitwise: scores are floats compared ==


class TestFusedRound:
    def test_same_shape_lanes_score_bit_identical_to_direct(self, fleet):
        """The two (4, 6) lanes fuse into one contraction whose scores
        must equal each detector scoring its own windows directly."""
        rng = np.random.default_rng(7)
        windows = {
            name: [
                tuple(SYMBOLS[i] for i in rng.integers(0, 5, size=15))
                for _ in range(12)
            ]
            for name in ("alpha", "beta")
        }
        service = build_service(True, fleet)
        tickets = {
            name: [service.submit(name, "t", window=w) for w in ws]
            for name, ws in windows.items()
        }
        assert service.pump() == 24
        for (name, detector) in fleet[:2]:
            got = [t.result().score for t in tickets[name]]
            assert got == detector.score(windows[name]).tolist()

    def test_mixed_shapes_fall_back_per_group(self, fleet):
        """One fused round over all four lanes: the same-shape pair goes
        through the fleet kernel (one fused group), the odd shapes score
        per lane — and the telemetry counters say exactly that."""
        window = tuple(SYMBOLS[:4]) * 2
        alt_window = tuple(ALT_SYMBOLS) * 2
        service = build_service(True, fleet)
        with telemetry.session():
            tickets = [
                service.submit("alpha", "t", window=window),
                service.submit("beta", "t", window=window),
                service.submit("gamma", "t", window=window),
                service.submit("delta", "t", window=alt_window),
            ]
            assert service.pump() == 4
            snap = telemetry.snapshot()
        assert snap["counters"]["service.drain.fused"] == 1
        assert snap["counters"]["service.drain.fused_groups"] == 1
        for ticket, (name, detector) in zip(tickets, fleet):
            expected = window if name != "delta" else alt_window
            assert ticket.result().score == detector.score([expected])[0]

    def test_single_lane_pump_skips_the_fused_path(self, fleet):
        service = build_service(True, fleet[:1])
        with telemetry.session():
            ticket = service.submit("alpha", "t", window=tuple(SYMBOLS))
            service.pump()
            snap = telemetry.snapshot()
        assert "service.drain.fused" not in snap["counters"]
        assert isinstance(ticket.result(), Scored)


class TestFailedIsolation:
    @pytest.fixture()
    def strict_fleet(self):
        """Two same-shape lanes whose models have **no UNK slot** — an
        out-of-alphabet symbol is an encode failure, not a degradation."""
        def strict_model(seed):
            loose = random_model(SYMBOLS, n_states=3, seed=seed)
            rng = np.random.default_rng(seed + 100)
            transition = rng.dirichlet(np.ones(3), size=3)
            emission = rng.dirichlet(np.ones(len(SYMBOLS)), size=3)
            return HiddenMarkovModel(
                transition=transition,
                emission=emission,
                initial=loose.initial,
                symbols=tuple(SYMBOLS),
            )

        return [
            ("strict-a", load_pretrained(strict_model(1))),
            ("strict-b", load_pretrained(strict_model(2))),
        ]

    @pytest.mark.parametrize("fused", [True, False])
    def test_bad_windows_fail_alone(self, strict_fleet, fused):
        """Unknown-symbol and empty windows resolve ``Failed`` without
        poisoning the rest of the round — identically in both modes."""
        good = tuple(SYMBOLS[:3]) * 3
        service = build_service(fused, strict_fleet)
        good_a = service.submit("strict-a", "t", window=good)
        bad_sym = service.submit("strict-a", "t", window=("open", "EVIL"))
        empty = service.submit("strict-b", "t", window=())
        good_b = service.submit("strict-b", "t", window=good)
        assert service.pump() == 4

        assert isinstance(bad_sym.result(), Failed)
        assert "EVIL" in bad_sym.result().error
        assert isinstance(empty.result(), Failed)
        assert "empty window" in empty.result().error
        for ticket, (_, detector) in zip((good_a, good_b), strict_fleet):
            outcome = ticket.result()
            assert isinstance(outcome, Scored)
            assert outcome.score == detector.score([good])[0]
            assert outcome.batch_size == 1  # failures never joined a batch

    def test_crash_backstop_is_round_wide(self, fleet, monkeypatch):
        """An unexpected mid-round crash resolves every popped ticket in
        *all* lanes ``Failed`` before propagating."""
        def boom(models, obs_list):
            raise RuntimeError("fleet kernel exploded")

        monkeypatch.setattr(
            "repro.service.scheduler.log_likelihood_fleet", boom
        )
        service = build_service(True, fleet)
        window = tuple(SYMBOLS[:5]) * 3
        tickets = [
            service.submit(name, "t", window=window) for name, _ in fleet
        ]
        with pytest.raises(RuntimeError, match="fleet kernel exploded"):
            service.pump()
        outcomes = [t.result() for t in tickets]
        assert all(isinstance(o, Failed) for o in outcomes)
        assert all("fleet kernel exploded" in o.error for o in outcomes)


class TestSessionsInFusedRounds:
    def test_streams_and_monitors_mixed_with_windows(self, fleet):
        """One fused round carrying all three session modes across lanes
        resolves exactly like per-lane drains (sticky state included)."""
        rng = np.random.default_rng(17)
        plan = []
        for step in range(30):
            lane_index = int(rng.integers(0, 4))
            labels = ALT_SYMBOLS if lane_index == 3 else SYMBOLS
            kind = ["window", "monitor", "stream"][step % 3]
            if kind == "window":
                payload = tuple(
                    labels[i] for i in rng.integers(0, len(labels), size=6)
                )
            else:
                payload = labels[int(rng.integers(0, len(labels)))]
            plan.append((lane_index, int(rng.integers(0, 2)), kind, payload))
        fused = run_plan(build_service(True, fleet), fleet, plan)
        per_lane = run_plan(build_service(False, fleet), fleet, plan)
        assert fused == per_lane
        kinds = {outcome["type"] for outcome in fused}
        assert {"Scored", "Streamed", "Absorbed"} <= kinds

    def test_stream_surprisals_match_standalone_scorer(self, fleet):
        from repro.core.streaming import StreamingScorer

        feed = [SYMBOLS[i % len(SYMBOLS)] for i in range(10)]
        service = build_service(True, fleet)
        service.open_session("alpha", "s", "stream")
        service.open_session("beta", "s", "stream")
        tickets = []
        for symbol in feed:
            tickets.append(service.submit("alpha", "s", symbol=symbol))
            tickets.append(service.submit("beta", "s", symbol=symbol))
        service.drain_pending()
        for lane_index, name in enumerate(("alpha", "beta")):
            expected = StreamingScorer.for_detector(
                fleet[lane_index][1], window=4
            ).observe_many(feed)
            got = [t.result().surprise for t in tickets[lane_index::2]]
            assert got == expected
            assert all(
                isinstance(t.result(), Streamed)
                for t in tickets[lane_index::2]
            )


class TestShardedFlag:
    def test_sharded_scores_identical_under_both_flags(self, fleet):
        """The whole ServiceConfig travels to each worker, so the flag
        applies per shard — and cannot change any score."""
        window_sets = {
            name: [
                tuple(SYMBOLS[i] for i in rng.integers(0, 5, size=15))
                for _ in range(6)
            ]
            for rng in [np.random.default_rng(23)]
            for name in ("alpha", "beta")
        }
        results = {}
        for fused in (True, False):
            service = ShardedDetectionService(
                ServiceConfig(cross_detector_batching=fused),
                ShardConfig(shards=1),
            )
            try:
                for name, detector in fleet[:2]:
                    service.register(name, detector, threshold=-2.0)
                tickets = [
                    (name, service.submit(name, "t", window=w))
                    for name, ws in window_sets.items()
                    for w in ws
                ]
            finally:
                service.close()  # drains, then resolves every ticket
            results[fused] = [
                (name, t.result(timeout=10).score) for name, t in tickets
            ]
        assert results[True] == results[False]
        direct = [
            (name, float(score))
            for name, detector in fleet[:2]
            for score in detector.score(window_sets[name])
        ]
        assert results[True] == direct
