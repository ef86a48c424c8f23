"""gateway_stream: the deployed ``repro gateway`` CLI over keep-alive HTTP.

The gateway runs in a child process serving a gzip libcall CMarkov model.
One client, one keep-alive connection, closed loop: a caller that waits for
each verdict before sending the next event.  Each stream session opens,
posts one symbol per request through a held-out trace, and closes.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import select
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.core.detector import PretrainedDetector
from repro.core.streaming import StreamingScorer
from repro.hmm.kernels import StreamingState, streaming_step
from repro.hmm.serialize import load_model, save_model
from repro.program import CallKind, load_program
from repro.service import DetectionService, ServiceConfig
from repro.tracing.segments import build_segment_set
from repro.tracing.workload import run_workload

import harness
from harness import BENCH_LAYER, Checks, Outcome, Tracer
from offline import make_detector

PROGRAM = "gzip"
KIND = CallKind.LIBCALL
DETECTOR = "served"
WINDOW = 15
TRAIN_CASES = 12
HELDOUT_CASES = 20
#: The served model is fixed; only the held-out traces follow ``--seed``.
TRAIN_SEED = 1001
WARM_EVENTS = 200
ROUND_EVENTS = 200
BOOT_TIMEOUT_S = 60.0
LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class Client:
    """One keep-alive HTTP/1.1 connection to the gateway."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def send(self, method: str, path: str, body: bytes | None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def call(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        status, raw = self.send(method, path, body)
        return status, json.loads(raw) if raw else None

    def close(self) -> None:
        self.conn.close()


@dataclass
class Gateway:
    """A booted gateway child."""

    proc: object
    port: int
    boot_s: float


def place_client() -> set[int]:
    """Pin the client to one CPU; the gateway child runs on the same one.

    Left to the scheduler, the client and the gateway's threads share the
    CPUs differently from run to run, and the latency tail follows.  On
    separate CPUs every request crosses CPUs twice, and a busy host delays
    those wake-ups: in back-to-back phases, p90 was 2.9–5.6 ms on separate
    CPUs against 1.8–4.8 ms on one.  The closed loop alternates client and
    server anyway, so sharing a CPU costs them little.
    """
    cpu = {min(os.sched_getaffinity(0))}
    os.sched_setaffinity(0, cpu)
    return cpu


def boot(guard, model_path: Path, run_dir: Path, cpus: set[int]) -> Gateway:
    argv = [sys.executable, "-m", "repro", "gateway", str(model_path),
            "--kind", KIND.value, "--name", DETECTOR, "--port", "0"]
    stderr = open(run_dir / f"{model_path.stem}.stderr", "wb")
    try:
        started = time.perf_counter()
        proc = guard.spawn(argv, cpus=cpus, cwd=str(harness.ROOT),
                           env=harness.child_env(), stdin=subprocess.DEVNULL,
                           stdout=subprocess.PIPE, stderr=stderr)
    finally:
        stderr.close()
    deadline = started + BOOT_TIMEOUT_S
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise RuntimeError("gateway did not report listening in time")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        chunk = proc.stdout.readline()
        if not chunk:
            raise RuntimeError(f"gateway exited during boot (code {proc.wait()})")
        match = LISTENING.search(chunk.decode(errors="replace"))
        if match:
            boot_s = time.perf_counter() - started
            port = int(match.group(1))
            guard.ports.add(port)
            return Gateway(proc, port, boot_s)


@dataclass
class SessionLog:
    """One stream session: its requests' statuses (open, each event, close)
    and each event's answer."""

    sid: str
    symbols: list[str]
    statuses: list[int] = field(default_factory=list)
    surprise: array = field(default_factory=lambda: array("d"))
    windowed: array = field(default_factory=lambda: array("d"))


@dataclass
class Phase:
    """Everything one timed phase of requests produced."""

    sessions: list[SessionLog] = field(default_factory=list)
    latency: array = field(default_factory=lambda: array("d"))
    queued: array = field(default_factory=lambda: array("d"))
    round_walls: list[float] = field(default_factory=list)
    #: Latency samples recorded by the end of each round.
    round_marks: list[int] = field(default_factory=list)
    bad: list[str] = field(default_factory=list)
    #: Traced phases: the gateway span of every request, in order.
    spans: list[int] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    events: int = 0


def stream(client: Client, streams, tag: str, seconds: float, max_events: int | None = None,
           tracer: Tracer | None = None) -> Phase:
    """Closed-loop stream sessions, in whole rounds of ``ROUND_EVENTS``
    events, until ``seconds`` pass (or after ``max_events`` events)."""
    phase = Phase()

    def request(method, path, payload, name):
        if tracer is None:
            return client.call(method, path, payload)
        trace_id = tracer.new_trace()
        body, _ = tracer.call("bench.client_codec", BENCH_LAYER, json.dumps, payload,
                              trace_id=trace_id)
        (status, raw), span = tracer.call(
            name, "gateway", client.send, method, path,
            None if payload is None else body.encode(), trace_id=trace_id,
        )
        decoded, _ = tracer.call("bench.client_codec", BENCH_LAYER, json.loads, raw,
                                 trace_id=trace_id)
        phase.spans.append(span)
        return status, decoded

    cpu_started = time.process_time()
    started = round_started = time.perf_counter()
    turn = 0
    done = False
    while not done:
        symbols = streams[turn % len(streams)]
        log = SessionLog(f"{tag}-{turn}", symbols)
        turn += 1
        status, _ = request("POST", "/v1/sessions",
                            {"detector": DETECTOR, "session": log.sid, "mode": "stream"},
                            "gateway.open_session")
        log.statuses.append(status)
        path = f"/v1/sessions/{DETECTOR}/{log.sid}/observe"
        for symbol in symbols:
            sent = time.perf_counter()
            status, payload = request("POST", path, {"symbol": symbol}, "gateway.observe")
            received = time.perf_counter()
            phase.latency.append(received - sent)
            log.statuses.append(status)
            if status == 200:
                log.surprise.append(payload["surprise"])
                windowed = payload["windowed_score"]
                log.windowed.append(math.nan if windowed is None else windowed)
                phase.queued.append(payload["queued_s"])
            else:
                log.surprise.append(math.nan)
                log.windowed.append(math.nan)
                if len(phase.bad) < 5:
                    phase.bad.append(f"{status}: {payload}")
            phase.events += 1
            if phase.events % ROUND_EVENTS == 0:
                phase.round_walls.append(received - round_started)
                phase.round_marks.append(len(phase.latency))
                round_started = received
                done = received - started >= seconds
            if done or phase.events == max_events:
                done = True
                break
        phase.sessions.append(log)
        status, _ = request("DELETE", f"/v1/sessions/{DETECTOR}/{log.sid}", None,
                            "gateway.close_session")
        log.statuses.append(status)
    phase.wall_s = time.perf_counter() - started
    phase.cpu_s = time.process_time() - cpu_started
    return phase


def check_phase(phase: Phase, model, checks: Checks) -> None:
    """One operation per request: a 200, and for an event the same
    ``surprise`` and ``windowed_score`` as a ``StreamingScorer`` replay."""
    for log in phase.sessions:
        opened, *events, closed = log.statuses
        checks.check(opened == 200, f"{log.sid}: open answered {opened}")
        scorer = StreamingScorer(model, window=WINDOW)
        for pos, status in enumerate(events):
            expected = scorer.observe(log.symbols[pos])
            windowed = scorer.windowed_score if scorer.window_full else math.nan
            got = log.windowed[pos]
            checks.check(
                status == 200 and log.surprise[pos] == expected
                and (got == windowed or (math.isnan(got) and math.isnan(windowed))),
                f"{log.sid} event {pos}: HTTP {status}, or the answer differs from "
                "the StreamingScorer replay",
            )
        checks.check(closed == 200, f"{log.sid}: close answered {closed}")


def scrape(client: Client) -> dict[str, float]:
    status, raw = client.send("GET", "/metrics", None)
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    values = {}
    for line in raw.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


@dataclass
class Setup:
    model: object
    model_path: Path
    streams: list[list[str]]
    gateway: Gateway
    client: Client
    events_served: int


def setup_once(seed: int, guard, run_dir: Path, index: int, cpus: set[int]) -> Setup:
    program = load_program(PROGRAM)
    traces = run_workload(program, n_cases=TRAIN_CASES, seed=TRAIN_SEED).traces
    detector = make_detector(program, KIND, TRAIN_SEED)
    detector.fit(build_segment_set(traces, KIND, context=True))
    model_path = run_dir / f"model-{index}.npz"
    save_model(detector.model, model_path)
    heldout = run_workload(program, n_cases=HELDOUT_CASES, seed=seed).traces
    streams = [s for s in (t.symbols(KIND, True) for t in heldout) if s]
    gateway = boot(guard, model_path, run_dir, cpus)
    client = Client(gateway.port)
    warm = stream(client, streams, f"warm{index}", 0.0, max_events=WARM_EVENTS)
    if warm.bad:
        raise RuntimeError(f"warm-up requests failed: {warm.bad}")
    return Setup(load_model(model_path), model_path, streams, gateway, client, warm.events)


def setup(seed: int, repeats: int, guard) -> tuple[Setup, list[float], list[float]]:
    run_dir = guard.make_run_dir()
    server_cpus = place_client()
    times, boots = [], []
    current = None
    for index in range(repeats):
        started = time.perf_counter()
        current = setup_once(seed, guard, run_dir, index, server_cpus)
        times.append(time.perf_counter() - started)
        boots.append(current.gateway.boot_s)
        if index < repeats - 1:
            current.client.close()
            guard.stop(current.gateway.proc)
            current.model_path.unlink()
    return current, times, boots


@dataclass
class InProcess:
    """The traced phase's events re-run one layer deeper each."""

    service_latency: array = field(default_factory=lambda: array("d"))
    observe_s: float = 0.0
    step_s: float = 0.0
    submit_s: float = 0.0
    events: int = 0


def replay_deeper(phase: Phase, model, tracer: Tracer, checks: Checks) -> InProcess:
    """Each HTTP event through an in-process service with the threaded pump,
    then ``StreamingScorer.observe``, then bare ``streaming_step``.

    The gateway CLI runs with telemetry on, so the replays do too.
    """
    out = InProcess()
    was_enabled = telemetry.enabled()
    telemetry.enable()
    service = DetectionService(ServiceConfig(max_batch=256, max_queue_depth=4096,
                                             default_window=WINDOW))
    service.register(DETECTOR, PretrainedDetector(model, kind=KIND, name=DETECTOR),
                     window=WINDOW)
    service.start()
    try:
        spans = iter(phase.spans)
        for log in phase.sessions:
            open_span = next(spans)
            tracer.call("service.open_session", "service", service.open_session,
                        DETECTOR, log.sid, "stream", parent=open_span, replay=True)
            scorer = StreamingScorer(model, window=WINDOW)
            state = StreamingState(model, WINDOW)
            for pos, symbol in enumerate(log.symbols[: len(log.surprise)]):
                http_span = next(spans)
                started = time.perf_counter()
                ticket = service.submit(DETECTOR, log.sid, symbol=symbol)
                submitted = time.perf_counter()
                outcome = ticket.result(30)
                ended = time.perf_counter()
                service_span = tracer.record(
                    "service.submit+result", "service", started, ended, http_span,
                    tracer.spans[http_span].trace_id, True,
                )
                out.service_latency.append(ended - started)
                out.submit_s += submitted - started
                trace_id = tracer.spans[http_span].trace_id
                surprise, observe_span = tracer.call(
                    "core.StreamingScorer.observe", "core", scorer.observe, symbol,
                    parent=service_span, trace_id=trace_id, replay=True,
                )
                index = model.encode_symbol(symbol)
                step, step_span = tracer.call(
                    "hmm.kernels.streaming_step", "hmm.kernels", streaming_step,
                    model, state, index, parent=observe_span, trace_id=trace_id,
                    replay=True,
                )
                out.observe_s += tracer.spans[observe_span].duration
                out.step_s += tracer.spans[step_span].duration
                out.events += 1
                checks.check(
                    outcome.surprise == surprise == step == log.surprise[pos],
                    f"{log.sid} event {pos}: in-process replay differs from HTTP",
                )
            close_span = next(spans)
            tracer.call("service.close_session", "service", service.close_session,
                        DETECTOR, log.sid, parent=close_span, replay=True)
    finally:
        service.close(drain=False)
        if not was_enabled:
            telemetry.disable()
    return out


def run(seed: int, seconds: float, trace: bool, setup_repeats: int, guard) -> Outcome:
    current, setup_times, boots = setup(seed, setup_repeats, guard)
    checks = Checks()
    pid = current.gateway.proc.pid
    budget = seconds / 2 if trace else seconds
    served = current.events_served

    cpu_before = harness.process_cpu_s(pid)
    phase = stream(current.client, current.streams, "timed", budget)
    server_cpu = harness.process_cpu_s(pid) - cpu_before
    served += phase.events
    peak_rss = harness.vm_hwm_mb(pid)
    latency_ms = [x * 1e3 for x in phase.latency]
    notes = [f"events={phase.events} rounds={len(phase.round_walls)} "
             + harness.tail_note(latency_ms)
             + f" client_cpu_share={phase.cpu_s / phase.wall_s:.4f} "
             f"server_cpu_ms_per_event={server_cpu * 1e3 / phase.events:.4f}",
             "setup_s=" + ",".join(f"{x:.3f}" for x in setup_times)
             + " boot_s=" + ",".join(f"{x:.3f}" for x in boots)]
    metrics: dict[str, float] = {}
    traced = None
    if not trace:
        checks.check(harness.tail_supported(ROUND_EVENTS, 0.90),
                     "fewer than 10 latency samples per round beyond p90")
        metrics = {
            "setup_s": harness.median(setup_times),
            **harness.round_metrics(phase.round_walls, phase.latency,
                                    phase.round_marks, ROUND_EVENTS),
            "peak_rss_mb": peak_rss,
        }
    else:
        tracer = Tracer()
        cpu_before = harness.process_cpu_s(pid)
        traced = stream(current.client, current.streams, "traced", budget, tracer=tracer)
        server_cpu = harness.process_cpu_s(pid) - cpu_before
        served += traced.events

    scraped = scrape(current.client)
    streamed = scraped.get("repro_service_streamed_total", -1)
    checks.check(streamed == served,
                 f"/metrics reports {streamed} streamed events, the client sent {served}")
    current.client.close()
    guard.stop(current.gateway.proc)

    if traced is not None:
        deeper = replay_deeper(traced, current.model, tracer, checks)
        ledger, lines = harness.trace_report(tracer, traced.wall_s)
        notes.extend(lines)
        http_ms = [x * 1e3 for x in traced.latency]
        service_ms = [x * 1e3 for x in deeper.service_latency]
        metrics = {
            "core.streaming.observe_us": deeper.observe_s * 1e6 / deeper.events,
            "hmm.kernels.stream_step_us": deeper.step_s * 1e6 / deeper.events,
            "service.submit_us": deeper.submit_s * 1e6 / deeper.events,
            "service.queue_wait_ms": harness.median(traced.queued) * 1e3,
            "gateway.boot_s": harness.median(boots),
            "gateway.cpu_ms_per_event": server_cpu * 1e3 / traced.events,
            "gateway.wait_share": 1.0 - server_cpu / sum(traced.latency),
            "gateway.overhead_ms": harness.percentile(http_ms, 0.5)
            - harness.percentile(service_ms, 0.5),
            "client.cpu_share": phase.cpu_s / phase.wall_s,
            "ledger.unattributed_share": ledger.unattributed_share,
            "ledger.trace_overhead": (traced.wall_s / traced.events)
            / (phase.wall_s / phase.events) - 1.0,
        }
        check_phase(traced, current.model, checks)
    check_phase(phase, current.model, checks)
    current.model_path.unlink()
    failures = [f"HTTP {bad}" for bad in phase.bad + (traced.bad if traced else [])]
    return Outcome(metrics, checks.attempted, checks.failed, notes, failures + checks.reasons)
