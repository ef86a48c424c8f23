"""Tests for the HTTP gateway: exposition rendering, the checked-in
Prometheus validator, and the in-thread HTTP surface.

The black-box subprocess suite lives in ``tests/test_gateway_e2e.py``;
this file tests the pieces in-process where failures are debuggable.
"""

from __future__ import annotations

import contextlib
import http.client
import importlib.util
import json
import logging
import math
import os
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import telemetry
from repro.core.detector import PretrainedDetector
from repro.core.streaming import StreamingScorer
from repro.errors import ReproError
from repro.gateway import (
    DetectionGateway,
    GatewayConfig,
    outcome_status,
    outcome_to_json,
    render_prometheus,
)
from repro.hmm import random_model
from repro.runtime import ModelRegistry
from repro.service import (
    DetectionService,
    Failed,
    Overloaded,
    Scored,
    ServiceConfig,
    ShedReason,
    Streamed,
)

SYMBOLS = ["open", "read", "write", "close"]
SCRIPTS_DIR = Path(__file__).parent.parent / "scripts"


def _load_validator():
    path = SCRIPTS_DIR / "validate_prometheus.py"
    spec = importlib.util.spec_from_file_location("validate_prometheus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


validate_prometheus = _load_validator()
validate_text = validate_prometheus.validate_text


# ---------------------------------------------------------------------------
# The validator itself
# ---------------------------------------------------------------------------


class TestValidator:
    def test_minimal_valid_exposition(self):
        text = (
            "# HELP x_total a counter\n"
            "# TYPE x_total counter\n"
            "x_total 5\n"
        )
        assert validate_text(text) == []

    def test_labels_and_special_values(self):
        text = (
            '# TYPE up gauge\n'
            'up{job="svc",instance="a:1"} 1\n'
            'up{job="svc",instance="b:2"} NaN\n'
        )
        assert validate_text(text) == []

    def test_bad_metric_name(self):
        assert validate_text("9bad 1\n")

    def test_bad_value(self):
        assert validate_text("# TYPE x gauge\nx one\n")

    def test_duplicate_sample(self):
        text = "# TYPE x gauge\nx 1\nx 2\n"
        assert any("duplicate sample" in e for e in validate_text(text))

    def test_duplicate_type(self):
        text = "# TYPE x gauge\n# TYPE x counter\nx 1\n"
        assert any("duplicate TYPE" in e for e in validate_text(text))

    def test_type_after_samples(self):
        text = "x 1\n# TYPE x gauge\n"
        assert any("after its samples" in e for e in validate_text(text))

    def test_interleaved_families(self):
        text = (
            "# TYPE a gauge\n# TYPE b gauge\n"
            "a 1\nb 1\na{x=\"2\"} 2\n"
        )
        assert any("not consecutive" in e for e in validate_text(text))

    def test_bad_type_name(self):
        assert any(
            "must be one of" in e
            for e in validate_text("# TYPE x exotic\nx 1\n")
        )

    def test_histogram_valid(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.5"} 1\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 4\n'
            "h_sum 2.5\n"
            "h_count 4\n"
        )
        assert validate_text(text) == []

    def test_histogram_missing_inf_bucket(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.5"} 1\n'
            "h_sum 1\nh_count 1\n"
        )
        assert any("missing +Inf" in e for e in validate_text(text))

    def test_histogram_decreasing_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.5"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 1\nh_count 5\n"
        )
        assert any("decrease" in e for e in validate_text(text))

    def test_histogram_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_sum 1\nh_count 9\n"
        )
        assert any("_count" in e for e in validate_text(text))

    def test_cli_entrypoint(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("# TYPE x gauge\nx 1\n")
        assert validate_prometheus.main([str(good)]) == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("x 1\nx 1\n")
        assert validate_prometheus.main([str(bad)]) == 1


# ---------------------------------------------------------------------------
# The renderer
# ---------------------------------------------------------------------------


class TestRenderPrometheus:
    def test_empty_inputs_render_valid_emptiness(self):
        text = render_prometheus(None, None)
        assert validate_text(text) == []

    def test_counters_gain_total_suffix(self):
        snap = {"counters": {"service.submitted": 3.0}}
        text = render_prometheus(snap)
        assert "repro_service_submitted_total 3" in text
        assert validate_text(text) == []

    def test_dynamic_suffixes_become_labels(self):
        snap = {
            "gauges": {
                "service.queue.depth.gzip": {"value": 4.0, "updates": 9},
                "service.queue.depth.sed": {"value": 0.0, "updates": 2},
                "registry.versions.gzip": {"value": 2.0, "updates": 2},
                "registry.active.gzip": {"value": 1.0, "updates": 1},
            }
        }
        text = render_prometheus(snap)
        assert 'repro_service_queue_depth{detector="gzip"} 4' in text
        assert 'repro_service_queue_depth{detector="sed"} 0' in text
        assert 'repro_registry_versions{lineage="gzip"} 2' in text
        assert 'repro_registry_active_version{lineage="gzip"} 1' in text
        assert validate_text(text) == []

    def test_histogram_converts_to_cumulative(self):
        snap = {
            "histograms": {
                "gateway.latency_s": {
                    "boundaries": [0.1, 1.0],
                    "counts": [2, 3],
                    "count": 7,  # 2 overflowed past the last boundary
                    "sum": 4.5,
                    "min": 0.01,
                    "max": 9.0,
                }
            }
        }
        text = render_prometheus(snap)
        assert 'repro_gateway_latency_s_bucket{le="0.1"} 2' in text
        assert 'repro_gateway_latency_s_bucket{le="1"} 5' in text
        assert 'repro_gateway_latency_s_bucket{le="+Inf"} 7' in text
        assert "repro_gateway_latency_s_count 7" in text
        assert validate_text(text) == []

    def test_stats_dict_beats_duplicate_telemetry_counter(self):
        # Telemetry counters span every service in the process, stats
        # count this one; the telemetry counter of the same name must not
        # produce a duplicate (invalid) or contradictory sample.
        snap = {"counters": {"service.submitted": 5.0}}
        stats = {"submitted": 8, "max_depth_seen": 3}
        text = render_prometheus(snap, stats)
        assert "repro_service_submitted_total 8" in text
        assert "repro_service_submitted_total 5" not in text
        assert "repro_service_max_depth_seen 3" in text
        assert validate_text(text) == []

    def test_spans_export_as_labeled_counters(self):
        snap = {
            "spans": {
                "hmm.train": {"count": 3, "wall_s": 1.5, "cpu_s": 1.2,
                              "max_wall_s": 0.9}
            }
        }
        text = render_prometheus(snap)
        assert 'repro_span_total{span="hmm.train"} 3' in text
        assert 'repro_span_duration_seconds_total{span="hmm.train"} 1.5' in text
        assert validate_text(text) == []

    def test_weird_names_sanitize_to_valid_output(self):
        snap = {"counters": {"weird name-with:stuff/8": 1.0}}
        stats = {"submitted": 0}
        text = render_prometheus(snap, stats, {"gateway.uptime_seconds": 1.25})
        assert validate_text(text) == []

    def test_non_numeric_stats_entries_are_skipped(self):
        text = render_prometheus(None, {"submitted": 1, "mode": "stream",
                                        "flag": True})
        assert "mode" not in text
        assert "flag" not in text
        assert validate_text(text) == []


# ---------------------------------------------------------------------------
# Outcome mapping
# ---------------------------------------------------------------------------


class TestOutcomeMapping:
    def test_statuses(self):
        assert outcome_status(
            Scored(score=0.0, detector="d", session="s", batch_size=1,
                   queued_s=0.0)
        ) == 200
        assert outcome_status(
            Overloaded(detector="d", session="s",
                       reason=ShedReason.QUEUE_FULL, depth=4)
        ) == 429
        assert outcome_status(
            Overloaded(detector="d", session="s",
                       reason=ShedReason.SHED_OLDEST, depth=4)
        ) == 429
        assert outcome_status(
            Overloaded(detector="d", session="s",
                       reason=ShedReason.DEADLINE, depth=4)
        ) == 429
        assert outcome_status(
            Overloaded(detector="d", session="s",
                       reason=ShedReason.SHUTDOWN, depth=4)
        ) == 503
        assert outcome_status(
            Failed(detector="d", session="s", error="boom")
        ) == 500

    def test_json_round_trip_is_bit_exact(self):
        score = -math.pi / 7.0
        payload = outcome_to_json(
            Streamed(surprise=score, detector="d", session="s",
                     batch_size=1, queued_s=0.0, windowed_score=score)
        )
        decoded = json.loads(json.dumps(payload))
        assert decoded["surprise"] == score
        assert decoded["windowed_score"] == score

    def test_unknown_object_raises(self):
        with pytest.raises(TypeError):
            outcome_to_json(object())


# ---------------------------------------------------------------------------
# In-thread HTTP surface
# ---------------------------------------------------------------------------


@pytest.fixture()
def gateway_stack():
    """An in-process service + registry + running gateway, torn down after."""
    telemetry.enable()
    model = random_model(SYMBOLS, n_states=3, seed=1)
    service = DetectionService(ServiceConfig(max_batch=32, default_window=5))
    service.register(
        "served", PretrainedDetector(model, name="served"),
        threshold=-5.0, window=5,
    )
    registry = ModelRegistry()
    gateway = DetectionGateway(service, registry, GatewayConfig())
    registry.publish("served", model, activate=True)
    gateway.start()
    try:
        yield gateway, service, registry, model
    finally:
        gateway.stop()
        try:
            service.close(drain=False)
        except ReproError:
            pass
        telemetry.disable()


def _request(gateway, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
    try:
        data = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=data)
        response = conn.getresponse()
        raw = response.read()
        payload = json.loads(raw) if raw and raw.lstrip()[:1] in (b"{", b"[") else raw
        return response.status, payload
    finally:
        conn.close()


def _http(method, path, body=b"", *, length=None, version="HTTP/1.1",
          headers=b""):
    """Raw bytes of one request (``length`` overrides Content-Length)."""
    length = len(body) if length is None else length
    return (
        f"{method} {path} {version}\r\nContent-Length: {length}\r\n".encode()
        + headers + b"\r\n" + body
    )


def _observe_bytes(session, payload):
    return _http(
        "POST", f"/v1/sessions/served/{session}/observe",
        json.dumps(payload).encode(),
    )


@contextlib.contextmanager
def _raw_connection(gateway):
    """A plain socket to the gateway and a buffered reader over it."""
    sock = socket.create_connection(("127.0.0.1", gateway.port), timeout=10)
    stream = sock.makefile("rb")
    try:
        yield sock, stream
    finally:
        stream.close()
        sock.close()


def _read_response(stream):
    """``(status, headers, body)`` of the next response, ``None`` at EOF."""
    line = stream.readline()
    if not line:
        return None
    status = int(line.split()[1])
    headers = {}
    for line in iter(stream.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    if headers["content-type"] == "application/json":
        body = json.loads(body)
    return status, headers, body


class TestGatewayHTTP:
    def test_health(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, payload = _request(gateway, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["detectors"] == ["served"]
        assert payload["lineages"] == ["served"]

    def test_unknown_route_404(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, payload = _request(gateway, "GET", "/nope")
        assert status == 404

    def test_wrong_method_405(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, _ = _request(gateway, "POST", "/health", {})
        assert status == 405
        status, _ = _request(gateway, "GET", "/v1/sessions")
        assert status == 405

    def test_invalid_json_400(self, gateway_stack):
        gateway, *_ = gateway_stack
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            conn.request("POST", "/v1/sessions", body=b"{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_unknown_detector_404(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, _ = _request(
            gateway, "POST", "/v1/sessions",
            {"detector": "ghost", "session": "s", "mode": "stream"},
        )
        assert status == 404

    def test_window_scoring_round_trip(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, payload = _request(
            gateway, "POST", "/v1/sessions/served/w1/observe",
            {"window": ["open", "read", "write", "close", "read"]},
        )
        assert status == 200
        assert payload["kind"] == "scored"
        assert payload["anomalous"] in (False, True)

    def test_stream_lifecycle(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, payload = _request(
            gateway, "POST", "/v1/sessions",
            {"detector": "served", "session": "s1", "mode": "stream"},
        )
        assert (status, payload["mode"]) == (200, "stream")
        status, payload = _request(
            gateway, "POST", "/v1/sessions/served/s1/observe",
            {"symbols": ["open", "read", "write"]},
        )
        assert status == 200
        assert [r["kind"] for r in payload["results"]] == ["streamed"] * 3
        status, payload = _request(gateway, "DELETE", "/v1/sessions/served/s1")
        assert (status, payload["closed"]) == (200, True)
        status, payload = _request(gateway, "DELETE", "/v1/sessions/served/s1")
        assert (status, payload["closed"]) == (200, False)

    def test_observe_requires_exactly_one_payload_kind(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, _ = _request(
            gateway, "POST", "/v1/sessions/served/s1/observe", {}
        )
        assert status == 400
        status, _ = _request(
            gateway, "POST", "/v1/sessions/served/s1/observe",
            {"symbol": "open", "window": ["open"]},
        )
        assert status == 400

    def test_body_over_limit_413(self, gateway_stack):
        # The answer waits until the declared body is drained: closing
        # with unread bytes in flight would reset the connection instead.
        gateway, *_ = gateway_stack
        size = gateway.config.max_body_bytes + 1
        head = _http("POST", "/v1/sessions", length=size)
        with _raw_connection(gateway) as (sock, stream):
            sock.sendall(head + b"x" * (size // 2))
            sock.settimeout(0.3)
            with pytest.raises(socket.timeout):
                sock.recv(1, socket.MSG_PEEK)
            sock.settimeout(10)
            sock.sendall(b"x" * (size - size // 2))
            status, headers, _ = _read_response(stream)
            assert (status, headers["connection"]) == (413, "close")
            assert _read_response(stream) is None

    def test_keep_alive_reuses_one_connection(self, gateway_stack):
        gateway, *_ = gateway_stack
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/health")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
                assert response.headers.get("Connection") == "keep-alive"
        finally:
            conn.close()

    def test_registry_endpoints(self, gateway_stack, tmp_path):
        gateway, service, registry, model = gateway_stack
        from repro.hmm import save_model

        other = random_model(SYMBOLS, n_states=3, seed=2)
        path = tmp_path / "v2.npz"
        save_model(other, path)
        status, payload = _request(
            gateway, "POST", "/v1/registry/served/publish",
            {"path": str(path), "metadata": {"note": "retrain"}},
        )
        assert (status, payload["version"], payload["active"]) == (200, 2, False)
        status, payload = _request(gateway, "GET", "/v1/registry")
        assert payload["lineages"]["served"] == {"versions": [1, 2], "active": 1}
        status, payload = _request(
            gateway, "POST", "/v1/registry/served/rollout", {"version": 2}
        )
        assert (status, payload["active"]) == (200, True)
        assert registry.active_version("served") == 2
        status, payload = _request(
            gateway, "POST", "/v1/registry/served/rollback", {}
        )
        assert (status, payload["version"]) == (200, 1)
        status, _ = _request(
            gateway, "POST", "/v1/registry/served/rollout", {"version": 99}
        )
        assert status == 404
        status, _ = _request(
            gateway, "POST", "/v1/registry/ghost/rollout", {"version": 1}
        )
        assert status == 404

    def test_rollout_swaps_served_model(self, gateway_stack, tmp_path):
        gateway, service, registry, model = gateway_stack
        from repro.hmm import save_model

        other = random_model(SYMBOLS, n_states=3, seed=7)
        path = tmp_path / "v2.npz"
        save_model(other, path)
        _request(
            gateway, "POST", "/v1/sessions",
            {"detector": "served", "session": "swapee", "mode": "stream"},
        )
        _request(
            gateway, "POST", "/v1/sessions/served/swapee/observe",
            {"symbol": "open"},
        )
        _request(
            gateway, "POST", "/v1/registry/served/publish",
            {"path": str(path), "activate": True},
        )
        status, payload = _request(
            gateway, "POST", "/v1/sessions/served/swapee/observe",
            {"symbol": "read"},
        )
        assert status == 200
        assert payload["gap"] is False
        expected = StreamingScorer(other, window=5).observe("read")
        assert payload["surprise"] == expected

    def test_metrics_valid_and_carries_gateway_families(self, gateway_stack):
        gateway, *_ = gateway_stack
        _request(gateway, "GET", "/health")
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        finally:
            conn.close()
        assert validate_text(text) == []
        assert "repro_gateway_requests_total" in text
        assert "repro_gateway_latency_s_bucket" in text
        assert "repro_service_submitted_total" in text

    def test_admin_close_then_503(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, _ = _request(
            gateway, "POST", "/v1/sessions",
            {"detector": "served", "session": "mon", "mode": "monitor"},
        )
        assert status == 200
        status, payload = _request(
            gateway, "POST", "/v1/admin/close", {"drain": True}
        )
        assert status == 200
        status, _ = _request(
            gateway, "POST", "/v1/sessions/served/w9/observe",
            {"window": ["open", "read", "write", "close", "read"]},
        )
        assert status == 503
        status, _ = _request(gateway, "POST", "/v1/admin/pump", {})
        assert status == 503
        status, _ = _request(gateway, "DELETE", "/v1/sessions/served/mon")
        assert status == 503

    @pytest.mark.parametrize("session", ["open-tab", "closed-tab"])
    def test_observe_to_unopened_session_404(self, gateway_stack, session):
        # Ids are the caller's: one that contains "closed" is still a
        # client error, not a backend outage.
        gateway, *_ = gateway_stack
        status, payload = _request(
            gateway, "POST", f"/v1/sessions/served/{session}/observe",
            {"symbol": "read"},
        )
        assert status == 404, payload

    @pytest.mark.parametrize("session", ["tab", "is not open"])
    def test_mode_mismatch_is_400_whatever_the_session_id(
        self, gateway_stack, session
    ):
        gateway, *_ = gateway_stack
        opened = {"detector": "served", "session": session, "mode": "monitor"}
        assert _request(gateway, "POST", "/v1/sessions", opened)[0] == 200
        status, payload = _request(
            gateway, "POST", "/v1/sessions", {**opened, "mode": "stream"}
        )
        assert status == 400, payload

    def test_percent_encoded_path_segments_are_decoded(self, gateway_stack):
        gateway, *_ = gateway_stack
        opened = {"detector": "served", "session": "is not open", "mode": "monitor"}
        assert _request(gateway, "POST", "/v1/sessions", opened)[0] == 200
        path = "/v1/sessions/served/is%20not%20open/observe"
        status, payload = _request(
            gateway, "POST", path, {"window": ["open", "read"]}
        )
        assert status == 400, payload  # a monitor session takes symbols
        status, payload = _request(gateway, "POST", path, {"symbol": "open"})
        assert (status, payload["kind"], payload["session"]) == (
            200, "absorbed", "is not open"
        )

    def test_unknown_detector_named_unclosed_404(self, gateway_stack):
        gateway, *_ = gateway_stack
        status, payload = _request(
            gateway, "POST", "/v1/sessions",
            {"detector": "unclosed", "session": "s", "mode": "stream"},
        )
        assert status == 404, payload

    def test_health_reports_closed_after_close(self, gateway_stack):
        gateway, *_ = gateway_stack
        _request(gateway, "POST", "/v1/admin/close", {"drain": True})
        status, payload = _request(gateway, "GET", "/health")
        assert status == 200
        assert payload["status"] == "closed"
        assert payload["pending"] == 0

    def test_open_session_after_close_503(self, gateway_stack):
        gateway, *_ = gateway_stack
        _request(gateway, "POST", "/v1/admin/close", {"drain": True})
        status, payload = _request(
            gateway, "POST", "/v1/sessions",
            {"detector": "served", "session": "late", "mode": "stream"},
        )
        assert status == 503, payload


class TestParkedObserves:
    """An observe waiting on its ticket holds no executor thread, so any
    number of them can park without starving other routes."""

    def test_parked_observes_do_not_starve_other_routes(self):
        # Two more than the default executor has threads.
        parked = min(32, (os.cpu_count() or 1) + 4) + 2
        model = random_model(SYMBOLS, n_states=3, seed=1)
        service = DetectionService(ServiceConfig(max_batch=64, default_window=5))
        service.register("served", PretrainedDetector(model, name="served"))
        gateway = DetectionGateway(
            service, ModelRegistry(), GatewayConfig(pump=False)
        )
        gateway.start()  # nothing drains until the admin pump
        statuses: list = []

        def observe(index):
            conn = http.client.HTTPConnection(
                "127.0.0.1", gateway.port, timeout=60
            )
            try:
                conn.request(
                    "POST",
                    f"/v1/sessions/served/parked{index}/observe",
                    body=json.dumps({"window": SYMBOLS + ["open"]}).encode(),
                )
                response = conn.getresponse()
                response.read()
                statuses.append(response.status)
            finally:
                conn.close()

        clients = [
            threading.Thread(target=observe, args=(index,))
            for index in range(parked)
        ]
        try:
            for client in clients:
                client.start()
            deadline = time.monotonic() + 5.0
            while service.pending < parked and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.pending == parked
            started = time.monotonic()
            status, payload = _request(gateway, "GET", "/health")
            assert status == 200 and payload["pending"] == parked
            assert time.monotonic() - started < 1.0
            status, payload = _request(gateway, "POST", "/v1/admin/pump", {})
            assert (status, payload["resolved"]) == (200, parked)
            for client in clients:
                client.join(timeout=30)
            assert not any(client.is_alive() for client in clients)
            assert statuses == [200] * parked
        finally:
            service.close(drain=True)
            gateway.stop()
            for client in clients:
                client.join(timeout=30)


class TestWireFraming:
    """HTTP/1.1 framing as the connection protocol sees it on the wire."""

    def test_pipelined_requests_are_answered_in_order(self, gateway_stack):
        gateway, _, _, model = gateway_stack
        _request(
            gateway, "POST", "/v1/sessions",
            {"detector": "served", "session": "piped", "mode": "stream"},
        )
        requests = (
            _observe_bytes("piped", {"symbol": "open"})
            + _http("GET", "/health")
            + _observe_bytes("piped", {"symbol": "read"})
        )
        with _raw_connection(gateway) as (sock, stream):
            sock.sendall(requests)
            first, health, second = (_read_response(stream) for _ in range(3))
        assert (first[0], health[0], second[0]) == (200, 200, 200)
        assert health[2]["detectors"] == ["served"]
        replay = StreamingScorer(model, window=5)
        assert [first[2]["surprise"], second[2]["surprise"]] == [
            replay.observe("open"), replay.observe("read")
        ]

    def test_request_sent_one_byte_at_a_time(self, gateway_stack):
        gateway, *_ = gateway_stack
        request = _observe_bytes("bytewise", {"window": SYMBOLS + ["open"]})
        with _raw_connection(gateway) as (sock, stream):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for index in range(len(request)):
                sock.sendall(request[index:index + 1])
                time.sleep(0.001)
            status, _, payload = _read_response(stream)
        assert (status, payload["kind"]) == (200, "scored")

    def test_head_over_64_kib_answers_431(self, gateway_stack):
        gateway, *_ = gateway_stack
        padding = b"X-Padding: " + b"a" * (1 << 16) + b"\r\n"
        with _raw_connection(gateway) as (sock, stream):
            sock.sendall(_http("GET", "/health", headers=padding))
            status, headers, _ = _read_response(stream)
            assert (status, headers["connection"]) == (431, "close")
            assert _read_response(stream) is None

    @pytest.mark.parametrize("request_bytes", [
        b"BROKEN\r\n\r\n",
        b"GET /health HTTP/2.0\r\n\r\n",
        b"GET /health HTTP/1.1\r\nno colon here\r\n\r\n",
        b"POST /v1/sessions HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        b"POST /v1/sessions HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        b"POST /v1/sessions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n",
    ], ids=["request-line", "version", "header", "length-text", "length-negative",
            "chunked"])
    def test_malformed_request_answers_400_and_closes(
        self, gateway_stack, request_bytes
    ):
        gateway, *_ = gateway_stack
        with _raw_connection(gateway) as (sock, stream):
            sock.sendall(request_bytes + _http("GET", "/health"))
            status, headers, _ = _read_response(stream)
            assert (status, headers["connection"]) == (400, "close")
            assert _read_response(stream) is None

    @pytest.mark.parametrize("version,headers", [
        ("HTTP/1.1", b"Connection: close\r\n"),
        ("HTTP/1.0", b""),
    ], ids=["connection-close", "http-1.0"])
    def test_close_after_one_response(self, gateway_stack, version, headers):
        gateway, *_ = gateway_stack
        first = _http("GET", "/health", version=version, headers=headers)
        with _raw_connection(gateway) as (sock, stream):
            sock.sendall(first + _http("GET", "/health"))
            status, response_headers, _ = _read_response(stream)
            assert (status, response_headers["connection"]) == (200, "close")
            assert _read_response(stream) is None

    def test_half_closed_client_still_gets_its_answer(self, gateway_stack):
        gateway, *_ = gateway_stack
        with _raw_connection(gateway) as (sock, stream):
            sock.sendall(_http("GET", "/health"))
            sock.shutdown(socket.SHUT_WR)
            assert _read_response(stream)[0] == 200
            assert _read_response(stream) is None

    @pytest.mark.parametrize("reset", [False, True], ids=["fin", "rst"])
    def test_disconnect_with_parked_observe_resolves_once_quietly(
        self, caplog, reset
    ):
        # A FIN may be a half-close, so that connection stays open for its
        # answer; a reset drops it at once and the answer goes nowhere.
        model = random_model(SYMBOLS, n_states=3, seed=1)
        service = DetectionService(ServiceConfig(max_batch=8, default_window=5))
        service.register("served", PretrainedDetector(model, name="served"))
        tickets = []
        real_submit = service.submit

        def submit(*args, **kwargs):
            tickets.append(real_submit(*args, **kwargs))
            return tickets[-1]

        service.submit = submit
        gateway = DetectionGateway(
            service, ModelRegistry(), GatewayConfig(pump=False)
        )
        gateway.start()  # nothing drains until the test pumps
        try:
            with caplog.at_level(logging.WARNING):
                with _raw_connection(gateway) as (sock, _):
                    sock.sendall(
                        _observe_bytes("gone", {"window": SYMBOLS + ["open"]})
                    )
                    deadline = time.monotonic() + 10
                    while service.pending < 1 and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert service.pending == 1
                    if reset:
                        sock.setsockopt(
                            socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0),
                        )
                while reset and gateway._connections:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                time.sleep(0.05)  # the loop sees the disconnect first
                seen = []
                tickets[0].add_done_callback(seen.append)
                assert service.pump() == 1
                assert service.pump() == 0
                while gateway._connections:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                gateway.stop()
            assert len(seen) == 1 and isinstance(seen[0], Scored)
            assert service.stats.scored == service.stats.submitted == 1
            assert [r.getMessage() for r in caplog.records] == []
        finally:
            gateway.stop()
            service.close()

    def test_stop_closes_idle_keep_alive_connections(self, gateway_stack):
        gateway, *_ = gateway_stack
        with _raw_connection(gateway) as (sock, stream):
            sock.sendall(_http("GET", "/health"))
            status, headers, _ = _read_response(stream)
            assert (status, headers["connection"]) == (200, "keep-alive")
            gateway.stop()
            assert _read_response(stream) is None

    def test_symbols_body_matches_single_symbol_requests(self, gateway_stack):
        gateway, _, _, model = gateway_stack
        symbols = [SYMBOLS[(index * index + 3 * index) % 4] for index in range(64)]
        for session in ("batch", "single"):
            _request(
                gateway, "POST", "/v1/sessions",
                {"detector": "served", "session": session, "mode": "stream"},
            )
        status, payload = _request(
            gateway, "POST", "/v1/sessions/served/batch/observe",
            {"symbols": symbols},
        )
        assert status == 200
        batched = payload["results"]
        singles = []
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            for symbol in symbols:
                conn.request(
                    "POST", "/v1/sessions/served/single/observe",
                    body=json.dumps({"symbol": symbol}).encode(),
                )
                response = conn.getresponse()
                assert response.status == 200
                singles.append(json.loads(response.read()))
        finally:
            conn.close()
        fields = ("kind", "surprise", "windowed_score", "anomalous", "gap")
        assert [[r[f] for f in fields] for r in batched] == [
            [r[f] for f in fields] for r in singles
        ]
        replay = StreamingScorer(model, window=5)
        assert [r["surprise"] for r in batched] == replay.observe_many(symbols)

    def test_symbol_observes_make_no_executor_submissions(self, gateway_stack):
        gateway, *_ = gateway_stack

        class CountingExecutor(ThreadPoolExecutor):
            submissions = 0

            def submit(self, fn, /, *args, **kwargs):
                self.submissions += 1
                return super().submit(fn, *args, **kwargs)

        executor = CountingExecutor(max_workers=2)
        gateway._loop.call_soon_threadsafe(
            gateway._loop.set_default_executor, executor
        )
        status, _ = _request(
            gateway, "POST", "/v1/sessions",
            {"detector": "served", "session": "counted", "mode": "stream"},
        )
        assert (status, executor.submissions) == (200, 1)
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            for index in range(100):
                conn.request(
                    "POST", "/v1/sessions/served/counted/observe",
                    body=json.dumps({"symbol": SYMBOLS[index % 4]}).encode(),
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 200
        finally:
            conn.close()
        assert executor.submissions == 1


def _observe_on(conn, session, payload):
    """POST one observe on a keep-alive connection; ``(status, body)``."""
    conn.request(
        "POST", f"/v1/sessions/served/{session}/observe",
        body=json.dumps(payload).encode(),
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class TestLoopDrain:
    """The gateway's event loop drains the service itself."""

    def test_documented_in_process_stack_serves(self):
        from repro import api

        model = random_model(SYMBOLS, n_states=3, seed=1)
        service = api.open_service()
        service.register("served", PretrainedDetector(model, name="served"))
        registry = api.open_registry()
        try:
            with api.open_gateway(service, registry) as gateway:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", gateway.port, timeout=10
                )
                try:
                    status, payload = _observe_on(
                        conn, "quick", {"window": SYMBOLS + ["open"]}
                    )
                finally:
                    conn.close()
        finally:
            service.close()
        assert (status, payload["kind"]) == (200, "scored")
        detector = PretrainedDetector(model, name="served")
        assert payload["score"] == detector.score([SYMBOLS + ["open"]])[0]

    def test_symbol_observes_make_no_thread_hand_offs(self, gateway_stack):
        gateway, _, _, model = gateway_stack
        status, _ = _request(
            gateway, "POST", "/v1/sessions",
            {"detector": "served", "session": "local", "mode": "stream"},
        )
        assert status == 200
        loop = gateway._loop
        real = loop.call_soon_threadsafe
        hand_offs = []

        def counting(callback, *args, **kwargs):
            hand_offs.append(callback)
            return real(callback, *args, **kwargs)

        symbols = [SYMBOLS[index % 4] for index in range(100)]
        surprises = []
        loop.call_soon_threadsafe = counting
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            for symbol in symbols:
                status, payload = _observe_on(conn, "local", {"symbol": symbol})
                assert status == 200
                surprises.append(payload["surprise"])
        finally:
            conn.close()
            del loop.call_soon_threadsafe
        assert hand_offs == []
        assert "repro-service" not in {t.name for t in threading.enumerate()}
        assert surprises == StreamingScorer(model, window=5).observe_many(symbols)

    def test_drain_crash_answers_500_and_the_loop_keeps_serving(
        self, gateway_stack, monkeypatch, caplog
    ):
        import repro.service.scheduler as scheduler_module

        gateway, service, _, model = gateway_stack
        real = scheduler_module.log_likelihood_stacked
        crashes = []

        def crash_once(models, obs_list):
            if not crashes:
                crashes.append(True)
                raise RuntimeError("kaboom")
            return real(models, obs_list)

        monkeypatch.setattr(scheduler_module, "log_likelihood_stacked", crash_once)
        window = SYMBOLS + ["open"]
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            with caplog.at_level(logging.ERROR):
                failed = _observe_on(conn, "crash", {"window": window})
                scored = _observe_on(conn, "crash", {"window": window})
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        assert failed[0] == 500
        assert (failed[1]["kind"], failed[1]["error"]) == (
            "failed", "RuntimeError: kaboom"
        )
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "drain crashed" in errors[0].getMessage()
        assert "repro_service_drain_errors_total 1\n" in text
        assert validate_text(text) == []
        assert (scored[0], scored[1]["kind"]) == (200, "scored")
        detector = PretrainedDetector(model, name="served")
        assert scored[1]["score"] == detector.score([window])[0]
        assert (service.stats.failed, service.stats.scored) == (1, 1)

    def test_body_cut_short_by_a_raising_submit_still_drains(self, gateway_stack):
        gateway, service, _, model = gateway_stack
        opened = {"detector": "served", "session": "cut", "mode": "stream"}
        assert _request(gateway, "POST", "/v1/sessions", opened)[0] == 200
        real_submit = service.submit
        admitted = []

        def submit(detector, session_id, **kwargs):
            if len(admitted) == 2:  # the session closes mid-body
                service.close_session(detector, session_id)
            admitted.append(real_submit(detector, session_id, **kwargs))
            return admitted[-1]

        service.submit = submit
        status, _ = _request(
            gateway, "POST", "/v1/sessions/served/cut/observe",
            {"symbols": ["open", "read", "write"]},
        )
        assert status == 404
        outcomes = [ticket.result(timeout=5) for ticket in admitted]
        replay = StreamingScorer(model, window=5)
        assert [o.surprise for o in outcomes] == replay.observe_many(["open", "read"])

    def test_request_arriving_during_a_round_is_framed_before_the_next(self):
        model = random_model(SYMBOLS, n_states=3, seed=1)
        service = DetectionService(ServiceConfig(max_batch=1, default_window=5))
        service.register("served", PretrainedDetector(model, name="served"))
        window = SYMBOLS + ["open"]
        events = []
        real_pump, real_submit = service.pump, service.submit
        gateway = DetectionGateway(service)
        gateway.start()
        try:
            with _raw_connection(gateway) as (sock, stream):
                sock.sendall(_http("GET", "/health"))
                assert _read_response(stream)[0] == 200  # accepted
                for index in range(3):
                    real_submit("served", f"backlog{index}", window=window)

                def pump(*args, **kwargs):
                    if "pump" not in events:  # lands while round 1 runs
                        sock.sendall(_observe_bytes("probe", {"window": window}))
                    events.append("pump")
                    return real_pump(*args, **kwargs)

                def submit(detector, session_id, **kwargs):
                    events.append(session_id)
                    return real_submit(detector, session_id, **kwargs)

                service.pump, service.submit = pump, submit
                status, _ = _request(
                    gateway, "POST", "/v1/sessions/served/trigger/observe",
                    {"window": window},
                )
                assert status == 200
                assert _read_response(stream)[0] == 200
        finally:
            gateway.stop()
            service.close()
        assert events[:4] == ["trigger", "pump", "probe", "pump"]
