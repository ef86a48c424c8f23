"""Async HTTP front end over the detection service + model registry.

A deliberately minimal, dependency-free gateway: handwritten HTTP/1.1 with
one :class:`asyncio.Protocol` per connection (keep-alive, pipelining,
``Content-Length`` framing, JSON bodies) feeding the existing **bounded
admission queues** of
:class:`~repro.service.service.DetectionService`.  The gateway adds no
queueing of its own — backpressure is the service's typed
:class:`~repro.service.outcomes.Overloaded` outcome, surfaced as HTTP 429
(admission shed) or 503 (shutdown), so a load balancer sees the same story
the in-process API tells.

Endpoints (all JSON unless noted)::

    GET    /health                                    liveness + fleet summary
    GET    /metrics                                   Prometheus text exposition
    POST   /v1/sessions                               {detector, session, mode}
    POST   /v1/sessions/{detector}/{session}/observe  {window|symbol|symbols}
    DELETE /v1/sessions/{detector}/{session}
    GET    /v1/registry                               lineages + active versions
    POST   /v1/registry/{lineage}/publish             {path|cache_key, activate?, metadata?}
    POST   /v1/registry/{lineage}/rollout             {version}
    POST   /v1/registry/{lineage}/rollback
    POST   /v1/admin/pump                             one drain round (test hook)
    POST   /v1/admin/close                            {drain?} service shutdown

**Warm-swap**: the gateway subscribes to its
:class:`~repro.runtime.registry.ModelRegistry`; every activation (rollout,
rollback, ``publish(activate=True)``) of a lineage whose name matches a
registered detector is pushed into the live service via
``service.swap_detector`` — the lane drains under the old model first (the
swap barrier), then in-flight sessions are rebound in place.  No session is
dropped or gap-marked by an upgrade; ``tests/test_gateway_e2e.py`` proves
this black-box against the CLI gateway.

Event-loop discipline: each connection frames requests from its own
buffer in ``data_received`` and serves them one at a time, so pipelined
requests are answered in order.  ``observe`` calls ``service.submit``
inline on the loop and schedules one drain callback (``call_soon``, at
most one pending), so every request framed in the same loop iteration
shares the round, and the loop runs ``service.pump()`` itself: an event
never leaves the loop's thread.  Each ticket's done-callback, run inside
that drain, settles its request with a plain ``call_soon`` whose callback
writes the response; a ticket resolved in another thread (the swap
barrier, an admin route, a caller's own ``service.start()``) hands it
over with ``call_soon_threadsafe`` instead.  A parked ``observe`` holds no
thread, and one ``call_later`` per request answers 503 at
``result_timeout_s``.  Every other route runs in the default executor
(``loop.run_in_executor``), because it can wait for or run a whole drain
under the service lock, touch disk, or render the telemetry snapshot; its
future's done-callback writes the response through the same writer.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import itertools
import json
import logging
import threading
import time
from dataclasses import dataclass
from urllib.parse import unquote

from .. import telemetry
from ..errors import (
    ReproError,
    ServiceClosedError,
    SessionNotOpenError,
    UnknownDetectorError,
)
from ..runtime.registry import ModelRegistry, RegistryError
from ..service.fleet import rebuild_detector, resolve_model
from ..service.outcomes import (
    Absorbed,
    Failed,
    Overloaded,
    Scored,
    ShedReason,
    Streamed,
)
from ..telemetry import DEFAULT_SECONDS_BUCKETS
from .exposition import render_prometheus

log = logging.getLogger(__name__)

__all__ = [
    "DetectionGateway",
    "GatewayConfig",
    "GatewayError",
    "outcome_status",
    "outcome_to_json",
]


class GatewayError(ReproError):
    """Gateway lifecycle misuse (double start, failed bind, ...)."""


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs for one :class:`DetectionGateway`.

    Attributes:
        host: bind address.
        port: bind port; ``0`` asks the kernel for an ephemeral one (read
            it back from :attr:`DetectionGateway.port` after start — the
            test harness and CLI both do).
        result_timeout_s: how long ``observe`` waits for a ticket before
            answering 503; with ``pump`` on this bounds a stuck drain, it
            is not a latency budget.
        max_body_bytes: request bodies above this answer 413 (request
            heads above 64 KiB answer 431).
        call_kind: trace alphabet for detectors rebuilt from registry
            activations (matches the fleet's training, default syscall).
        pump: drain the service from the gateway's own event loop after
            each ``observe``.  ``False`` leaves draining to someone else
            (``POST /v1/admin/pump``, ``service.pump()``, a thread from
            ``service.start()``), so requests park until then.
    """

    host: str = "127.0.0.1"
    port: int = 0
    result_timeout_s: float = 30.0
    max_body_bytes: int = 1 << 20
    call_kind: str = "syscall"
    pump: bool = True


#: Longest request line plus headers a connection buffers before 431.
_HEAD_LIMIT = 1 << 16

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HTTPError(Exception):
    """Raised by handlers to short-circuit into an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def outcome_status(outcome) -> int:
    """The HTTP status one service outcome maps to.

    ``Overloaded`` splits by reason: admission sheds (queue full, shed
    oldest, deadline) are the client's 429 — retry with backoff — while a
    shutdown shed is the deployment's 503.  ``Failed`` is 500: the request
    was accepted but scoring raised.
    """
    if isinstance(outcome, Overloaded):
        return 503 if outcome.reason is ShedReason.SHUTDOWN else 429
    if isinstance(outcome, Failed):
        return 500
    return 200


def outcome_to_json(outcome) -> dict:
    """A JSON-safe dict for one typed outcome (tagged by ``kind``).

    Floats pass through :func:`json.dumps` via ``repr`` and round-trip
    bit-exactly — the e2e suite leans on this to assert pre-swap scores
    are *identical* to the old model's, not merely close.
    """
    if isinstance(outcome, Scored):
        return {
            "kind": "scored",
            "detector": outcome.detector,
            "session": outcome.session,
            "score": outcome.score,
            "batch_size": outcome.batch_size,
            "queued_s": outcome.queued_s,
            "anomalous": outcome.anomalous,
            "gap": outcome.gap,
            "alert": dataclasses.asdict(outcome.alert)
            if outcome.alert is not None
            else None,
        }
    if isinstance(outcome, Streamed):
        return {
            "kind": "streamed",
            "detector": outcome.detector,
            "session": outcome.session,
            "surprise": outcome.surprise,
            "windowed_score": outcome.windowed_score,
            "batch_size": outcome.batch_size,
            "queued_s": outcome.queued_s,
            "anomalous": outcome.anomalous,
            "gap": outcome.gap,
        }
    if isinstance(outcome, Absorbed):
        return {
            "kind": "absorbed",
            "detector": outcome.detector,
            "session": outcome.session,
            "queued_s": outcome.queued_s,
        }
    if isinstance(outcome, Overloaded):
        return {
            "kind": "overloaded",
            "detector": outcome.detector,
            "session": outcome.session,
            "reason": outcome.reason.value,
            "depth": outcome.depth,
            "queued_s": outcome.queued_s,
        }
    if isinstance(outcome, Failed):
        return {
            "kind": "failed",
            "detector": outcome.detector,
            "session": outcome.session,
            "error": outcome.error,
            "queued_s": outcome.queued_s,
        }
    raise TypeError(f"not a service outcome: {type(outcome).__name__}")


def _version_to_json(entry, active: int | None) -> dict:
    return {
        "lineage": entry.lineage,
        "version": entry.version,
        "params_hash": entry.params_hash,
        "created_at": entry.created_at,
        "metadata": dict(entry.metadata),
        "cache_key": entry.cache_key,
        "active": entry.version == active,
    }


def _error_answer(exc: Exception) -> tuple[int, dict]:
    """The status and body a failed request answers with, by error type."""
    if isinstance(exc, _HTTPError):
        return exc.status, {"error": exc.message}
    if isinstance(exc, ServiceClosedError):
        return 503, {"error": str(exc)}
    if isinstance(exc, (UnknownDetectorError, SessionNotOpenError, RegistryError)):
        return 404, {"error": str(exc)}
    if isinstance(exc, ReproError):
        return 400, {"error": str(exc)}
    return 500, {"error": f"{type(exc).__name__}: {exc}"}


def _parse_head(head: bytearray):
    """``(method, target, version, headers, content_length)`` of one
    request head; ``ValueError`` names what is malformed."""
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise ValueError(f"unsupported HTTP version {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise ValueError("Transfer-Encoding is not supported; send Content-Length")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        length = -1
    if length < 0:
        raise ValueError("bad Content-Length")
    return method.upper(), target, version, headers, length


def _response(status: int, payload, keep_alive: bool) -> bytes:
    """One HTTP/1.1 response: bytes go out as Prometheus text, the rest as
    JSON."""
    if isinstance(payload, bytes):
        body = payload
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


class _Connection(asyncio.Protocol):
    """One client connection: frames requests from its own buffer and
    serves them one at a time, so answers go out in request order.

    Reading pauses while the buffer holds more than one full request that
    cannot be served yet, and serving pauses while the transport's write
    buffer is full, so a client that pipelines without reading its answers
    holds bounded memory.
    """

    def __init__(self, gateway: "DetectionGateway") -> None:
        self.gateway = gateway
        self.transport: asyncio.Transport | None = None
        self.open = False  # answers can still be written
        self.buffer = bytearray()
        self.limit = _HEAD_LIMIT + 4 + gateway.config.max_body_bytes
        self.busy = False  # a request is in flight; later ones wait
        self.framing = False  # inside _next(): answers given there loop back
        self.write_paused = False
        self.eof = False  # the client half-closed; answer, then close
        self.discard = 0  # declared body bytes of an oversize request left

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.open = True
        self.gateway._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.gateway._connections.discard(self)
        self.open = False

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.busy or self.write_paused:
            if len(self.buffer) > self.limit:
                self.transport.pause_reading()
            return
        self._next()

    def eof_received(self) -> bool:
        self.eof = True
        self._next()
        return True  # keep the write side open for the answers still due

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._next()

    def respond(self, status: int, payload, keep_alive: bool) -> None:
        """Write one answer, then close or serve the next buffered request.

        A connection the client already closed drops the answer.
        """
        if not self.open:
            return
        self.transport.write(_response(status, payload, keep_alive))
        if not keep_alive:
            self.close()
            return
        self.busy = False
        self._next()

    def close(self) -> None:
        if self.open:
            self.open = False
            self.transport.close()

    def _refuse(self, status: int, message: str) -> None:
        """Answer a request that cannot be framed, and close."""
        self.respond(status, {"error": message}, False)

    def _next(self) -> None:
        """Serve buffered requests until one is in flight or none is whole."""
        if self.framing:
            return
        self.framing = True
        try:
            while self.open and not (self.busy or self.write_paused) and self._frame():
                pass
        finally:
            self.framing = False
        if not self.open:
            return
        if self.eof and not self.busy:
            self.close()
        elif len(self.buffer) <= self.limit:
            self.transport.resume_reading()

    def _frame(self) -> bool:
        """Take one request off the buffer and serve it; ``False`` when the
        buffer holds no whole request."""
        buffer = self.buffer
        max_body = self.gateway.config.max_body_bytes
        if self.discard:
            taken = min(self.discard, len(buffer))
            del buffer[:taken]
            self.discard -= taken
            if not self.discard:
                self._refuse(413, f"body over {max_body} bytes")
            return False
        end = buffer.find(b"\r\n\r\n")
        if end > _HEAD_LIMIT or (end < 0 and len(buffer) > _HEAD_LIMIT):
            self._refuse(431, "headers too large")
            return False
        if end < 0:
            return False
        try:
            method, target, version, headers, length = _parse_head(buffer[:end])
        except ValueError as exc:
            self._refuse(400, str(exc))
            return False
        start = end + 4
        if length > max_body:
            # Drain the declared body (bounded) before answering: closing
            # with unread bytes in flight resets the connection, and the
            # client dies on send() without ever seeing the 413.  Absurd
            # declarations just get the close.
            del buffer[:start]
            if length > 4 * max_body:
                self._refuse(413, f"body over {max_body} bytes")
                return False
            self.discard = length
            return True
        stop = start + length
        if len(buffer) < stop:
            return False
        body = bytes(buffer[start:stop])
        del buffer[:stop]
        keep_alive = (
            version == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
        )
        self.busy = True
        self.gateway._serve(self, method, target, body, keep_alive)
        return True


class _Exchange:
    """One request from its routing to its answer.

    ``observe`` answers from ``_settle`` once every ticket resolved, or
    from ``_expire`` at ``result_timeout_s``, whichever runs first; every
    other route answers from ``finish``, its executor future's
    done-callback.  All three run on the loop.
    """

    __slots__ = (
        "gateway", "conn", "keep_alive", "started",
        "outcomes", "resolved", "batch", "timer",
    )

    def __init__(self, gateway: "DetectionGateway", conn: _Connection,
                 keep_alive: bool) -> None:
        self.gateway = gateway
        self.conn = conn
        self.keep_alive = keep_alive
        self.started = time.monotonic()
        self.timer: asyncio.TimerHandle | None = None
        gateway._inflight += 1
        telemetry.counter_add("gateway.requests")
        telemetry.gauge_set("gateway.inflight", gateway._inflight)

    def answer(self, status: int, payload) -> None:
        gateway = self.gateway
        gateway._inflight -= 1
        telemetry.gauge_set("gateway.inflight", gateway._inflight)
        telemetry.counter_add(f"gateway.responses.{status // 100}xx")
        telemetry.observe(
            "gateway.latency_s",
            time.monotonic() - self.started,
            DEFAULT_SECONDS_BUCKETS,
        )
        self.conn.respond(status, payload, self.keep_alive)

    def fail(self, exc: Exception) -> None:
        self.answer(*_error_answer(exc))

    def finish(self, future: asyncio.Future) -> None:
        try:
            payload = future.result()
        except Exception as exc:  # noqa: BLE001 - every failure is an answer
            self.fail(exc)
            return
        self.answer(200, payload)

    def await_tickets(self, tickets: list, batch: bool) -> None:
        """Answer once every ticket resolves; ``batch`` answers a list."""
        self.outcomes = [None] * len(tickets)
        self.resolved = itertools.count(1)
        self.batch = batch
        loop = self.gateway._loop
        self.timer = loop.call_later(
            self.gateway.config.result_timeout_s, self._expire
        )
        for index, ticket in enumerate(tickets):
            ticket.add_done_callback(functools.partial(self._on_done, index))

    def _on_done(self, index: int, outcome) -> None:
        # Runs in the thread that resolved the ticket: usually the loop's
        # own drain, otherwise one that must wake the loop.  next() on a
        # count is one atomic step, so exactly one ticket sees the last
        # number and hands the answer to the loop.
        self.outcomes[index] = outcome
        if next(self.resolved) == len(self.outcomes):
            gateway = self.gateway
            try:
                if threading.get_ident() == gateway._loop_thread:
                    gateway._loop.call_soon(self._settle)
                else:
                    gateway._loop.call_soon_threadsafe(self._settle)
            except RuntimeError:
                pass  # the gateway stopped; nobody awaits this outcome

    def _settle(self) -> None:
        if self.timer is None:
            return  # answered 503 at the timeout; the outcome is dropped
        self.timer.cancel()
        self.timer = None
        outcomes = self.outcomes
        status = max(map(outcome_status, outcomes))
        if self.batch:
            payload = {"results": [outcome_to_json(o) for o in outcomes]}
        else:
            payload = outcome_to_json(outcomes[0])
        self.answer(status, payload)

    def _expire(self) -> None:
        # The tickets stay queued: a later drain still resolves each one
        # exactly once, and _settle then finds the request answered.
        self.timer = None
        timeout = self.gateway.config.result_timeout_s
        self.answer(
            503, {"error": f"no outcome within {timeout}s (is the pump running?)"}
        )


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise _HTTPError(405, f"use {expected}, not {method}")


def _json(body: bytes) -> dict:
    if not body:
        raise _HTTPError(400, "a JSON body is required")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise _HTTPError(400, f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise _HTTPError(400, "the JSON body must be an object")
    return payload


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


class DetectionGateway:
    """One HTTP server bound to one service + one registry.

    The server runs its asyncio loop in a dedicated daemon thread
    (:meth:`start` / :meth:`stop`), so the same object serves both the CLI
    (start, print address, sleep) and in-process tests.  The loop also
    drains the service (``GatewayConfig.pump``, on by default), so a
    gateway serves without ``service.start()``; with ``pump=False``
    requests park until something else drains, which is how the e2e 429
    fixture (``--no-pump``) keeps admission deterministic.
    """

    def __init__(
        self,
        service,
        registry: ModelRegistry | None = None,
        config: GatewayConfig | None = None,
    ) -> None:
        self.service = service
        self.registry = registry if registry is not None else ModelRegistry()
        self.config = config or GatewayConfig()
        self.port: int | None = None
        self._t0 = time.monotonic()
        self._inflight = 0
        self._connections: set[_Connection] = set()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: int | None = None
        self._drain_pending = False
        self._shutdown: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self.registry.subscribe(self._on_activation)

    # ------------------------------------------------------------------
    # Warm-swap seam
    # ------------------------------------------------------------------
    def _on_activation(self, lineage: str, entry, model) -> None:
        """Registry subscriber: push every activation into the live fleet.

        Lineage names double as detector names; an activation for a
        lineage the service does not serve is staged only (it becomes
        servable the moment a detector with that name registers).
        """
        if lineage not in self.service.detectors:
            return
        detector = rebuild_detector(
            model, kind=self.config.call_kind, name=lineage
        )
        self.service.swap_detector(lineage, detector)
        telemetry.counter_add("gateway.swaps")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind and serve in a background thread; returns once listening
        (``self.port`` is then the real bound port)."""
        if self._thread is not None:
            raise GatewayError("gateway already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="gateway", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=15.0):
            raise GatewayError("gateway did not come up within 15s")
        if self._startup_error is not None:
            raise GatewayError(
                f"gateway failed to bind {self.config.host}:{self.config.port}: "
                f"{self._startup_error}"
            )

    def stop(self) -> None:
        """Stop accepting, close every connection, close the loop, join the
        thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and loop.is_running():
            loop.call_soon_threadsafe(shutdown.set)
        thread.join(timeout=15.0)
        self._thread = None

    def __enter__(self) -> "DetectionGateway":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - bind failures
            self._startup_error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._loop_thread = threading.get_ident()
        self._shutdown = asyncio.Event()
        try:
            server = await loop.create_server(
                lambda: _Connection(self), self.config.host, self.config.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            # Server.close() only stops accepting: connections already
            # accepted stay open, idle keep-alive ones included.  Abort
            # rather than close: a client that stopped reading would
            # otherwise keep its transport flushing, and (on 3.12+)
            # wait_closed() waiting for it.
            for conn in list(self._connections):
                conn.transport.abort()
            await server.wait_closed()
            await asyncio.sleep(0)  # run the closed transports' teardown

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _serve(self, conn: _Connection, method: str, target: str,
               body: bytes, keep_alive: bool) -> None:
        """Route one framed request; it answers through its exchange."""
        exchange = _Exchange(self, conn, keep_alive)
        try:
            self._route(exchange, method, target, body)
        except Exception as exc:  # noqa: BLE001 - every failure is an answer
            exchange.fail(exc)

    def _route(self, exchange: _Exchange, method: str, target: str,
               body: bytes) -> None:
        path = target.split("?", 1)[0]
        parts = tuple(unquote(p) for p in path.split("/") if p)

        if len(parts) == 5 and parts[:2] == ("v1", "sessions") and parts[4] == "observe":
            _require(method, "POST")
            return self._observe(exchange, parts[2], parts[3], _json(body))
        if parts == ("health",):
            _require(method, "GET")
            return self._offload(exchange, self._health)
        if parts == ("metrics",):
            _require(method, "GET")
            return self._offload(exchange, self._metrics)
        if parts == ("v1", "sessions"):
            _require(method, "POST")
            return self._offload(exchange, self._open_session, _json(body))
        if len(parts) == 4 and parts[:2] == ("v1", "sessions"):
            _require(method, "DELETE")
            return self._offload(exchange, self._close_session, parts[2], parts[3])
        if parts == ("v1", "registry"):
            _require(method, "GET")
            return self._offload(exchange, self._registry_index)
        if len(parts) == 4 and parts[:2] == ("v1", "registry"):
            _require(method, "POST")
            lineage, action = parts[2], parts[3]
            if action == "publish":
                return self._offload(exchange, self._publish, lineage, _json(body))
            if action == "rollout":
                return self._offload(exchange, self._rollout, lineage, _json(body))
            if action == "rollback":
                return self._offload(exchange, self._rollback, lineage)
            raise _HTTPError(404, f"unknown registry action {action!r}")
        if parts == ("v1", "admin", "pump"):
            _require(method, "POST")
            return self._offload(exchange, self._pump)
        if parts == ("v1", "admin", "close"):
            _require(method, "POST")
            return self._offload(exchange, self._close, _json(body) if body else {})
        raise _HTTPError(404, f"no route for {path!r}")

    def _offload(self, exchange: _Exchange, handler, *args) -> None:
        """Run ``handler(*args)`` in the default executor; its return value
        is the 200 answer, its exception the error answer."""
        future = self._loop.run_in_executor(None, handler, *args)
        future.add_done_callback(exchange.finish)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _observe(self, exchange: _Exchange, detector: str, session_id: str,
                 payload: dict) -> None:
        window = payload.get("window")
        symbol = payload.get("symbol")
        symbols = payload.get("symbols")
        given = [x for x in (window, symbol, symbols) if x is not None]
        if len(given) != 1:
            raise _HTTPError(
                400, "give exactly one of window, symbol, or symbols"
            )
        if self.config.pump and not self._drain_pending:
            # Before the submits: a body cut short by a raising submit
            # still has its admitted requests drained.
            self._drain_pending = True
            self._loop.call_soon(self._drain)
        submit = self.service.submit
        if window is not None:
            if not _strings(window):
                raise _HTTPError(400, "window must be a list of strings")
            tickets = [submit(detector, session_id, window=window)]
        elif symbol is not None:
            if not isinstance(symbol, str):
                raise _HTTPError(400, "symbol must be a string")
            tickets = [submit(detector, session_id, symbol=symbol)]
        else:
            if not _strings(symbols):
                raise _HTTPError(400, "symbols must be a list of strings")
            if not symbols:
                raise _HTTPError(400, "symbols must not be empty")
            tickets = [submit(detector, session_id, symbol=s) for s in symbols]
        exchange.await_tickets(tickets, batch=symbols is not None)

    def _drain(self) -> None:
        """One ``service.pump()`` round on the loop, rescheduled while a
        lane still holds work, so other callbacks run between rounds.

        A round that crashes has already resolved its popped tickets
        ``Failed``; like the threaded drain loop, log it, count it and keep
        serving.  A closed service ends the chain quietly.
        """
        self._drain_pending = False
        try:
            self.service.pump()
        except ServiceClosedError:
            return
        except Exception:
            log.exception("gateway drain: drain crashed; continuing")
            telemetry.counter_add("service.drain_errors")
        if self.service.pending:
            # A timer, not call_soon: due timers join the ready queue after
            # the next poll's I/O callbacks, so requests that arrived during
            # this round are framed before the next one runs, and none waits
            # longer than the round in flight.
            self._drain_pending = True
            self._loop.call_later(0, self._drain)

    def _health(self) -> dict:
        return {
            "status": "closed" if self.service.closed else "ok",
            "detectors": sorted(self.service.detectors),
            "lineages": list(self.registry.lineages()),
            "uptime_s": time.monotonic() - self._t0,
            "pending": self.service.pending,
        }

    def _metrics(self) -> bytes:
        snap = telemetry.snapshot() if telemetry.enabled() else None
        stats = self.service.stats.as_dict()
        extra = {
            "gateway.uptime_seconds": time.monotonic() - self._t0,
            "gateway.inflight_requests": self._inflight,
        }
        return render_prometheus(snap, stats, extra).encode("utf-8")

    def _open_session(self, payload: dict) -> dict:
        detector = payload.get("detector")
        session_id = payload.get("session")
        mode = payload.get("mode", "window")
        if not isinstance(detector, str) or not isinstance(session_id, str):
            raise _HTTPError(400, "detector and session must be strings")
        if mode not in ("window", "monitor", "stream"):
            raise _HTTPError(400, f"unknown mode {mode!r}")
        session = self.service.open_session(detector, session_id, mode)
        return {"detector": detector, "session": session_id, "mode": session.mode.value}

    def _close_session(self, detector: str, session_id: str) -> dict:
        existed = self.service.close_session(detector, session_id)
        return {"detector": detector, "session": session_id, "closed": existed}

    def _registry_index(self) -> dict:
        lineages = {}
        for lineage in self.registry.lineages():
            active = self.registry.active_version(lineage)
            lineages[lineage] = {
                "versions": list(self.registry.versions(lineage)),
                "active": active,
            }
        return {"lineages": lineages, "detectors": sorted(self.service.detectors)}

    def _publish(self, lineage: str, payload: dict) -> dict:
        path = payload.get("path")
        cache_key = payload.get("cache_key")
        if (path is None) == (cache_key is None):
            raise _HTTPError(400, "publish needs exactly one of path or cache_key")
        if path is not None and not isinstance(path, str):
            raise _HTTPError(400, "path must be a server-side string path")
        if cache_key is not None and not isinstance(cache_key, str):
            raise _HTTPError(400, "cache_key must be a string")
        source = path if path is not None else f"cache:{cache_key}"
        activate = bool(payload.get("activate", False))
        metadata = payload.get("metadata") or {}
        if not isinstance(metadata, dict):
            raise _HTTPError(400, "metadata must be an object")
        model = resolve_model(source, cache=self.registry.cache)
        entry = self.registry.publish(
            lineage, model, metadata=metadata, activate=activate
        )
        return _version_to_json(entry, self.registry.active_version(lineage))

    def _rollout(self, lineage: str, payload: dict) -> dict:
        version = payload.get("version")
        if not isinstance(version, int):
            raise _HTTPError(400, "rollout needs an integer version")
        entry = self.registry.rollout(lineage, version)
        return _version_to_json(entry, entry.version)

    def _rollback(self, lineage: str) -> dict:
        entry = self.registry.rollback(lineage)
        return _version_to_json(entry, entry.version)

    def _pump(self) -> dict:
        return {"resolved": self.service.pump()}

    def _close(self, payload: dict) -> dict:
        drain = bool(payload.get("drain", True))
        return {"handled": self.service.close(drain), "drain": drain}
