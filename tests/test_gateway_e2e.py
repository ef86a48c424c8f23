"""End-to-end black-box tests: the gateway as a subprocess, driven over
raw HTTP.

Every test here boots ``python -m repro gateway`` as a real OS process
(the CLI entry point, not an in-process shortcut), talks to it through
``http.client`` over TCP, and asserts on wire-level behavior only —
status codes, JSON bodies, and the ``/metrics`` text scrape (validated
with the same checked-in grammar validator CI uses).

The centerpiece is the warm-swap proof: a live streaming session spans a
registry publish + rollout and completes with zero ``Failed`` outcomes
and zero gap-marked scores, and every pre-swap surprisal is **bit-
identical** to the old model's expected value (floats round-trip exactly
through JSON via ``repr``), every post-swap one bit-identical to the new
model's restarted filter.
"""

from __future__ import annotations

import http.client
import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.streaming import StreamingScorer
from repro.hmm import random_model, save_model

REPO_ROOT = Path(__file__).parent.parent
SRC_DIR = REPO_ROOT / "src"
SYMBOLS = ["open", "read", "write", "close"]
WINDOW = ["open", "read", "write", "close", "read"]


def _load_validator():
    path = REPO_ROOT / "scripts" / "validate_prometheus.py"
    spec = importlib.util.spec_from_file_location("validate_prometheus_e2e", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.validate_text


validate_text = _load_validator()


class GatewayProcess:
    """One `repro gateway` subprocess plus helpers to talk HTTP to it."""

    def __init__(self, model_path: Path, *extra_args: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "gateway", str(model_path),
                "--length", "5", "--threshold", "-5.0", *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        banner = self.proc.stdout.readline()
        if "gateway listening on http://" not in banner:
            rest = self.proc.stdout.read()
            self.proc.kill()
            raise AssertionError(f"gateway failed to boot: {banner!r}\n{rest}")
        self.port = int(banner.strip().rsplit(":", 1)[1])

    def request(self, method: str, path: str, body=None, timeout: float = 60.0):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            data = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=data)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        payload = json.loads(raw) if raw.lstrip()[:1] in (b"{", b"[") else raw
        return response.status, payload

    def metrics(self) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            return response.read().decode()
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck process
            self.proc.kill()
            self.proc.wait(timeout=20)


@pytest.fixture(scope="module")
def model_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("gateway_models")
    path_a = root / "model_a.npz"
    path_b = root / "model_b.npz"
    save_model(random_model(SYMBOLS, n_states=3, seed=1), path_a)
    save_model(random_model(SYMBOLS, n_states=3, seed=2), path_b)
    return path_a, path_b


@pytest.fixture(scope="module")
def fleet(model_paths):
    """The shared gateway most tests drive (read-mostly traffic)."""
    gateway = GatewayProcess(model_paths[0])
    yield gateway
    gateway.stop()


class TestLifecycle:
    def test_health_reports_the_fleet(self, fleet):
        status, payload = fleet.request("GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["detectors"] == ["served"]

    def test_window_monitor_stream_round_trips(self, fleet):
        status, payload = fleet.request(
            "POST", "/v1/sessions/served/win/observe", {"window": WINDOW}
        )
        assert (status, payload["kind"]) == (200, "scored")

        status, payload = fleet.request(
            "POST", "/v1/sessions",
            {"detector": "served", "session": "mon", "mode": "monitor"},
        )
        assert status == 200
        status, payload = fleet.request(
            "POST", "/v1/sessions/served/mon/observe",
            {"symbols": WINDOW},
        )
        assert status == 200
        kinds = [r["kind"] for r in payload["results"]]
        assert kinds == ["absorbed"] * 4 + ["scored"]

        status, payload = fleet.request(
            "POST", "/v1/sessions",
            {"detector": "served", "session": "str", "mode": "stream"},
        )
        assert status == 200
        status, payload = fleet.request(
            "POST", "/v1/sessions/served/str/observe", {"symbol": "open"}
        )
        assert (status, payload["kind"]) == (200, "streamed")
        status, payload = fleet.request("DELETE", "/v1/sessions/served/str")
        assert (status, payload["closed"]) == (200, True)

    def test_error_surface(self, fleet):
        assert fleet.request("GET", "/nope")[0] == 404
        assert fleet.request("POST", "/health", {})[0] == 405
        assert fleet.request(
            "POST", "/v1/sessions",
            {"detector": "ghost", "session": "s", "mode": "stream"},
        )[0] == 404
        assert fleet.request(
            "POST", "/v1/sessions/served/x/observe", {}
        )[0] == 400

    def test_metrics_scrape_is_grammatical(self, fleet):
        fleet.request("GET", "/health")
        text = fleet.metrics()
        assert validate_text(text) == [], validate_text(text)
        assert "repro_gateway_requests_total" in text
        assert "repro_gateway_latency_s_bucket" in text
        assert 'repro_registry_versions{lineage="served"}' in text
        assert 'repro_registry_active_version{lineage="served"} 1' in text


class TestWarmSwap:
    """A live streaming session spans publish + rollout: zero Failed, zero
    gaps, and bit-identical scores on both sides of the swap barrier."""

    def _replay_and_check(self, observed, model_a, model_b):
        """Verify each surprisal equals model A's chain until one switch
        point, and model B's restarted chain after it.  Returns the number
        of pre-swap scores."""
        scorer_a = StreamingScorer(model_a, window=5)
        scorer_b = None
        pre_swap = 0
        for index, (symbol, surprise) in enumerate(observed):
            if scorer_b is None:
                expected_a = scorer_a.observe(symbol)
                if surprise == expected_a:
                    pre_swap += 1
                    continue
                # first divergence must be exactly the swap barrier:
                # model B's filter restarted from its initial distribution
                scorer_b = StreamingScorer(model_b, window=5)
                expected_b = scorer_b.observe(symbol)
                assert surprise == expected_b, (
                    f"score {index} matches neither model A continued "
                    f"({expected_a}) nor model B restarted ({expected_b})"
                )
            else:
                expected_b = scorer_b.observe(symbol)
                assert surprise == expected_b, (
                    f"post-swap score {index} diverged from model B"
                )
        return pre_swap

    def test_streaming_session_spans_publish_and_rollout(
        self, fleet, model_paths
    ):
        path_a, path_b = model_paths
        model_a = random_model(SYMBOLS, n_states=3, seed=1)
        model_b = random_model(SYMBOLS, n_states=3, seed=2)
        session = "swap-main"
        status, _ = fleet.request(
            "POST", "/v1/sessions",
            {"detector": "served", "session": session, "mode": "stream"},
        )
        assert status == 200

        feed = [SYMBOLS[i % len(SYMBOLS)] for i in range(20)]
        observed = []

        def observe_one(symbol: str) -> None:
            status, payload = fleet.request(
                "POST", f"/v1/sessions/served/{session}/observe",
                {"symbol": symbol},
            )
            assert status == 200, payload
            assert payload["kind"] == "streamed"
            assert payload["gap"] is False
            observed.append((symbol, payload["surprise"]))

        for symbol in feed[:10]:
            observe_one(symbol)

        # mid-stream: stage the retrained model, then roll it out
        status, payload = fleet.request(
            "POST", "/v1/registry/served/publish", {"path": str(path_b)}
        )
        assert status == 200, payload
        version = payload["version"]
        status, payload = fleet.request(
            "POST", "/v1/registry/served/rollout", {"version": version}
        )
        assert status == 200, payload

        for symbol in feed[10:]:
            observe_one(symbol)

        pre_swap = self._replay_and_check(observed, model_a, model_b)
        # the rollout happened strictly between the 10th and 11th observe
        assert pre_swap == 10
        # the session is still the same sticky session (no drop): closing
        # it reports it existed
        status, payload = fleet.request(
            "DELETE", f"/v1/sessions/served/{session}"
        )
        assert payload["closed"] is True
        # roll back so later tests (and reruns) see model A active again
        status, payload = fleet.request(
            "POST", "/v1/registry/served/rollback", {}
        )
        assert status == 200

    def test_concurrent_streams_survive_rollout_without_gaps(
        self, fleet, model_paths
    ):
        """Sessions feeding *during* the rollout: every outcome 200,
        nothing gap-marked, every score attributable to exactly one of the
        two models."""
        model_a = random_model(SYMBOLS, n_states=3, seed=1)
        model_b = random_model(SYMBOLS, n_states=3, seed=2)
        sessions = ["conc-0", "conc-1", "conc-2"]
        for session in sessions:
            status, _ = fleet.request(
                "POST", "/v1/sessions",
                {"detector": "served", "session": session, "mode": "stream"},
            )
            assert status == 200

        per_session = {s: [] for s in sessions}
        failures: list[str] = []
        start = threading.Barrier(len(sessions) + 1)

        def feeder(session: str) -> None:
            start.wait()
            for i in range(24):
                symbol = SYMBOLS[i % len(SYMBOLS)]
                try:
                    status, payload = fleet.request(
                        "POST", f"/v1/sessions/served/{session}/observe",
                        {"symbol": symbol},
                    )
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"{session}: {exc}")
                    return
                if status != 200 or payload["kind"] != "streamed":
                    failures.append(f"{session}: {status} {payload}")
                    return
                if payload["gap"]:
                    failures.append(f"{session}: gap-marked mid-upgrade")
                    return
                per_session[session].append((symbol, payload["surprise"]))

        threads = [
            threading.Thread(target=feeder, args=(s,)) for s in sessions
        ]
        for thread in threads:
            thread.start()
        start.wait()
        time.sleep(0.05)  # let the feeders get some pre-swap scores in
        status, payload = fleet.request(
            "POST", "/v1/registry/served/publish",
            {"path": str(model_paths[1]), "activate": True},
        )
        assert status == 200, payload
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures

        checker = TestWarmSwap()
        for session in sessions:
            observed = per_session[session]
            assert len(observed) == 24
            checker._replay_and_check(observed, model_a, model_b)

        # restore model A as active for any later test
        status, _ = fleet.request("POST", "/v1/registry/served/rollback", {})
        assert status == 200

    def test_metrics_after_swaps_still_grammatical(self, fleet):
        text = fleet.metrics()
        assert validate_text(text) == [], validate_text(text)
        assert "repro_service_swaps_total" in text
        assert "repro_gateway_swaps_total" in text


class TestOverloadAndShutdown:
    """Backpressure and shutdown surface as 429/503 on the wire.

    This boot runs ``--no-pump`` with a tiny queue so admission control is
    fully deterministic: nothing drains until ``/v1/admin/pump``.
    """

    @pytest.fixture()
    def tiny_gateway(self, model_paths):
        gateway = GatewayProcess(
            model_paths[0], "--queue-depth", "2", "--no-pump",
        )
        yield gateway
        gateway.stop()

    def _spawn_observers(self, gateway, count, results, offset=0):
        def observe(slot: int) -> None:
            status, payload = gateway.request(
                "POST", f"/v1/sessions/served/load-{offset + slot}/observe",
                {"window": WINDOW},
            )
            results.append((status, payload))

        threads = [
            threading.Thread(target=observe, args=(slot,))
            for slot in range(count)
        ]
        for thread in threads:
            thread.start()
        return threads

    def test_queue_full_answers_429_then_pump_releases(self, tiny_gateway):
        results: list = []
        threads = self._spawn_observers(tiny_gateway, 3, results)
        # the over-limit submission sheds at admission and answers
        # immediately; the two admitted ones stay parked awaiting the pump
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if any(status == 429 for status, _ in results):
                break
            time.sleep(0.01)
        assert [s for s, _ in results] == [429]
        rejected = results[0][1]
        assert rejected["kind"] == "overloaded"
        assert rejected["reason"] == "queue_full"

        status, payload = tiny_gateway.request("POST", "/v1/admin/pump", {})
        assert status == 200
        assert payload["resolved"] == 2
        for thread in threads:
            thread.join(timeout=60)
        assert sorted(s for s, _ in results) == [200, 200, 429]

        text = tiny_gateway.metrics()
        assert validate_text(text) == []
        assert 'repro_gateway_responses_total{status="4xx"} 1' in text
        assert "repro_service_shed_queue_full_total 1" in text

    def test_non_draining_shutdown_answers_503(self, tiny_gateway):
        results: list = []
        threads = self._spawn_observers(tiny_gateway, 2, results)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, payload = tiny_gateway.request("GET", "/health")
            if payload.get("pending") == 2:
                break
            time.sleep(0.01)
        assert payload.get("pending") == 2

        status, payload = tiny_gateway.request(
            "POST", "/v1/admin/close", {"drain": False}
        )
        assert status == 200
        for thread in threads:
            thread.join(timeout=60)
        assert [s for s, _ in results] == [503, 503]
        for _, payload in results:
            assert payload["kind"] == "overloaded"
            assert payload["reason"] == "shutdown"

        # the service is gone; the gateway stays up and says so
        status, _ = tiny_gateway.request(
            "POST", "/v1/sessions/served/late/observe", {"window": WINDOW}
        )
        assert status == 503
        status, payload = tiny_gateway.request("GET", "/health")
        assert (status, payload["status"]) == (200, "closed")
        # and /metrics still renders (from the closed service's stats)
        assert validate_text(tiny_gateway.metrics()) == []
