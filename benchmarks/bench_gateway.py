"""Gateway throughput — HTTP observe round-trips through the async front end.

Not a paper table: this bench tracks the serving stack end to end
(``repro.gateway`` over ``repro.service``).  Keep-alive HTTP/1.1 clients
push window-mode observe requests through a live gateway whose event loop
drains its :class:`~repro.service.service.DetectionService`, as the
``repro gateway`` CLI does; every response's score is checked
bit-identical to ``Detector.score`` on the same window (floats round-trip
exactly through JSON), a registry publish + rollout is timed mid-run to
price a warm swap, and the final ``/metrics`` scrape must parse clean
under the checked-in Prometheus grammar validator.

Shapes asserted: all requests answer 200, scores are bit-identical to
direct scoring, the swap completes without a single non-200, and the
metrics exposition validates.  Throughput lands in ``BENCH_gateway.json``
for CI's regression gate (deflated floor: the gate guards against
collapses, not runner jitter).
"""

from __future__ import annotations

import http.client
import importlib.util
import json
import os
import threading
import time
from pathlib import Path

import numpy as np
from common import bench_host_metadata, bench_output_path, print_block, shape_line

from repro import telemetry
from repro.api import load_pretrained
from repro.gateway import DetectionGateway, GatewayConfig
from repro.hmm import random_model
from repro.runtime import ModelRegistry
from repro.service import DetectionService, ServiceConfig

N_REQUESTS = 2000
N_CLIENTS = 4
WINDOW = 15
N_STATES = 16
ALPHABET = [f"call_{i}" for i in range(30)]


def _load_validator():
    path = Path(__file__).parent.parent / "scripts" / "validate_prometheus.py"
    spec = importlib.util.spec_from_file_location("validate_prometheus_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.validate_text


def _windows(n: int, seed: int = 7) -> list[tuple[str, ...]]:
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, len(ALPHABET), size=(n, WINDOW))
    return [tuple(ALPHABET[i] for i in row) for row in indices]


def _client(port: int, windows, offset: int, scores: list, errors: list) -> None:
    """One keep-alive client: POST each window, record (index, score)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for index, window in windows:
            body = json.dumps({"window": list(window)}).encode()
            conn.request(
                "POST",
                f"/v1/sessions/bench/client-{offset}/observe",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            if response.status != 200:
                errors.append((index, response.status, payload))
                return
            scores.append((index, payload["score"]))
    except Exception as exc:  # noqa: BLE001 - census, not control flow
        errors.append((offset, "exception", repr(exc)))
    finally:
        conn.close()


def test_gateway_throughput():
    validate_text = _load_validator()
    model = random_model(ALPHABET, n_states=N_STATES, seed=3)
    detector = load_pretrained(model, name="bench")
    windows = _windows(N_REQUESTS)
    expected = detector.score(windows).tolist()

    telemetry.enable()
    service = DetectionService(
        ServiceConfig(max_batch=256, max_queue_depth=N_REQUESTS)
    )
    service.register("bench", detector, threshold=-4.0)
    registry = ModelRegistry()
    registry.publish("bench", model, activate=True)
    gateway = DetectionGateway(
        service, registry, GatewayConfig(result_timeout_s=120.0)
    )
    gateway.start()

    try:
        shards = [
            [(i, w) for i, w in enumerate(windows) if i % N_CLIENTS == slot]
            for slot in range(N_CLIENTS)
        ]
        scores: list = []
        errors: list = []
        threads = [
            threading.Thread(
                target=_client, args=(gateway.port, shard, slot, scores, errors)
            )
            for slot, shard in enumerate(shards)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        # Warm swap priced separately: publish + rollout of identical
        # weights (the barrier + rebind cost, with zero score drift).
        swap_started = time.perf_counter()
        registry.publish("bench", model, activate=True)
        swap_s = time.perf_counter() - swap_started

        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        metrics_text = response.read().decode()
        conn.close()
        metrics_problems = validate_text(metrics_text)
    finally:
        gateway.stop()
        service.close(drain=False)
        telemetry.disable()

    all_answered = not errors and len(scores) == N_REQUESTS
    by_index = dict(scores)
    identical = all_answered and all(
        by_index[i] == expected[i] for i in range(N_REQUESTS)
    )
    metrics_valid = metrics_problems == []
    rate = N_REQUESTS / elapsed

    payload = {
        "bench": "gateway",
        "host": bench_host_metadata(),
        "population": {
            "requests": N_REQUESTS,
            "clients": N_CLIENTS,
            "window_length": WINDOW,
            "alphabet": len(ALPHABET),
            "hmm_states": N_STATES,
        },
        "gateway": {
            "seconds": round(elapsed, 4),
            "requests_per_s": round(rate, 1),
            "swap_s": round(swap_s, 4),
        },
        "scores_bit_identical": identical,
        "metrics_valid": metrics_valid,
    }
    override = os.environ.get("REPRO_BENCH_OUTPUT", "").strip()
    output = Path(override) if override else bench_output_path("BENCH_gateway.json")
    output.write_text(json.dumps(payload, indent=2) + "\n")

    body = "\n".join(
        [
            f"  population: {N_REQUESTS} observe requests x {WINDOW} calls, "
            f"{N_CLIENTS} keep-alive clients, {N_STATES}-state HMM",
            f"  gateway   {elapsed:7.2f} s ({rate:10,.0f} requests/s)",
            f"  warm swap {swap_s * 1e3:7.2f} ms (publish + rollout + rebind)",
            f"  -> {output}",
            shape_line("every request answered 200", all_answered),
            shape_line(
                "HTTP scores are bit-identical to Detector.score", identical
            ),
            shape_line(
                "/metrics parses under the Prometheus grammar validator",
                metrics_valid,
            ),
        ]
    )
    print_block("Gateway throughput — HTTP round-trips", body)

    assert all_answered, f"requests failed: {errors[:3]}"
    assert identical, "gateway scores diverged from Detector.score"
    assert metrics_valid, f"/metrics invalid: {metrics_problems[:3]}"


if __name__ == "__main__":
    test_gateway_throughput()
