"""The verification service daemon: ``repro serve``.

A stdlib-only asyncio HTTP/JSON front end over the supervised worker
layer.  Batches of programs are verified concurrently while the
confidence contract of the CLI carries over verbatim: every per-program
answer is tagged ``PROVED`` / ``BOUNDED`` / ``SAMPLED``, degraded
answers can never claim a proof, and a job the service could not answer
is reported as unanswered — never guessed.

Endpoints (all JSON):

* ``POST /v1/litmus``   — ``{"programs": [{"name", "source"}, ...]}``:
  check ``//! exists/forbidden`` specs;
* ``POST /v1/validate`` — same shape plus ``"opt"``: run an optimizer
  and translation-validate it (an unknown ``"opt"`` is a 400 listing
  the registered names);
* ``POST /v1/races``    — ww-race freedom plus rw-race report;
* ``GET /healthz``      — liveness (``ok`` | ``draining``) and queue depth;
* ``GET /metrics``      — queue/supervisor/store counters.

Batch requests accept ``"deadline_seconds"`` (clamped to the server's
``max_deadline_seconds``) — the per-job budget handed to the supervisor.

Admission control is explicit: a batch larger than ``max_batch_jobs``
is rejected with 413, and when the bounded work queue cannot take the
whole batch the request gets ``429`` with a ``Retry-After`` header (no
partial admission — a batch is admitted atomically or not at all).  On
SIGTERM the daemon *drains*: new requests get 503, admitted jobs finish
and their responses flush, then the process exits 0.

The HTTP layer is deliberately minimal (request line + headers +
``Content-Length`` body, no keep-alive, no TLS): the service is an
internal verification back end, not an internet-facing server.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.jobs import get_optimizer
from repro.robust.confidence import Confidence
from repro.serve.queue import QueueClosed, QueueFull, ShardedQueue
from repro.serve.store import ContentStore
from repro.serve.supervisor import (
    JOB_KINDS,
    JobResult,
    JobSpec,
    Supervisor,
    SupervisorConfig,
)

_SERVER_NAME = "repro-serve"


@dataclass(frozen=True)
class DaemonConfig:
    """Everything ``repro serve`` needs to run."""

    host: str = "127.0.0.1"
    port: int = 8321
    workers: int = 2
    queue_capacity: int = 64
    queue_shards: int = 4
    max_batch_jobs: int = 32
    default_deadline_seconds: float = 20.0
    max_deadline_seconds: float = 120.0
    store_root: Optional[str] = None
    store_max_entries: Optional[int] = None
    store_max_bytes: Optional[int] = None
    preload_store: bool = True
    drain_timeout_seconds: float = 30.0
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)


class VerificationDaemon:
    """The asyncio server plus its dispatcher threads.

    The event loop only parses HTTP and awaits futures; all verification
    happens on ``workers`` dispatcher threads that pull from the bounded
    queue and call :meth:`Supervisor.run_job` (which forks a governed
    child per attempt).  That split keeps the loop responsive — a
    divergent exploration can stall a worker, never the health check.
    """

    def __init__(
        self,
        config: DaemonConfig = DaemonConfig(),
        supervisor: Optional[Supervisor] = None,
    ) -> None:
        self.config = config
        self.store: Optional[ContentStore] = None
        if supervisor is not None:
            self.supervisor = supervisor
            self.store = supervisor.store
        else:
            if config.store_root:
                self.store = ContentStore(
                    config.store_root,
                    max_entries=config.store_max_entries,
                    max_bytes=config.store_max_bytes,
                )
                if config.preload_store:
                    self.store.preload()
            self.supervisor = Supervisor(self.store, config.supervisor)
        self.queue = ShardedQueue(
            capacity=config.queue_capacity, shards=config.queue_shards
        )
        self.draining = False
        self.started_at = time.monotonic()
        self.port: Optional[int] = None
        self.requests = 0
        self.responses: Dict[int, int] = {}
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatchers: List[threading.Thread] = []

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> int:
        """Bind, spawn dispatchers, and return the actual port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        for index in range(max(1, self.config.workers)):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"serve-dispatch-{index}",
                daemon=True,
            )
            thread.start()
            self._dispatchers.append(thread)
        return self.port

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: refuse new work, finish admitted work.

        Closes the queue (dispatchers drain what was admitted, then
        exit), waits for in-flight HTTP responses to flush, then closes
        the listener.  Returns True when everything finished inside
        ``timeout``; False means the drain deadline expired with work
        still running (the caller may exit anyway — jobs are
        crash-safe by construction).
        """
        timeout = self.config.drain_timeout_seconds if timeout is None else timeout
        self.draining = True
        self.queue.close()
        deadline = time.monotonic() + timeout
        loop = asyncio.get_running_loop()
        clean = True
        for thread in self._dispatchers:
            remaining = max(0.0, deadline - time.monotonic())
            await loop.run_in_executor(None, thread.join, remaining)
            clean = clean and not thread.is_alive()
        while self.inflight and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        clean = clean and self.inflight == 0
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        return clean

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    # -- dispatcher side (threads) --------------------------------------------

    def _dispatch_loop(self) -> None:
        """Pull ``(spec, future)`` pairs until the queue closes and empties."""
        while True:
            item = self.queue.get(timeout=1.0)
            if item is None:
                if self.queue.closed:
                    return
                continue
            spec, future = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                result = self.supervisor.run_job(spec)
            except BaseException as exc:  # supervisor bug: fail the job, not the thread
                future.set_exception(exc)
            else:
                future.set_result(result)

    # -- HTTP plumbing ---------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        with self._track_inflight():
            try:
                status, payload, headers = await self._handle_request(reader)
            except Exception as exc:
                status, payload, headers = 500, {"error": f"internal error: {exc}"}, {}
            await self._respond(writer, status, payload, headers)

    @contextlib.contextmanager
    def _track_inflight(self):
        with self._inflight_lock:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    async def _handle_request(
        self, reader
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        self.requests += 1
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=10.0)
        except asyncio.TimeoutError:
            return 408, {"error": "request timed out"}, {}
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}, {}
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0) or 0)
        if length:
            body = await reader.readexactly(length)

        if method == "GET" and path == "/healthz":
            return 200, self._health(), {}
        if method == "GET" and path == "/metrics":
            return 200, self.metrics(), {}
        if method == "POST" and path.startswith("/v1/"):
            kind = path[len("/v1/"):]
            if kind not in JOB_KINDS:
                return 404, {"error": f"unknown endpoint {path}"}, {}
            return await self._handle_batch(kind, body)
        return 404, {"error": f"no route for {method} {path}"}, {}

    async def _respond(self, writer, status, payload, headers) -> None:
        self.responses[status] = self.responses.get(status, 0) + 1
        reasons = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            408: "Request Timeout", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable",
        }
        body = (json.dumps(payload) + "\n").encode()
        lines = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            f"Server: {_SERVER_NAME}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        with contextlib.suppress(ConnectionError):
            await writer.drain()
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()

    # -- request handling -------------------------------------------------------

    def _health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "queue_depth": self.queue.depth,
            "inflight": self.inflight,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
        }

    def metrics(self) -> Dict[str, Any]:
        """The ``GET /metrics`` payload: request/queue/supervisor/store counters."""
        data: Dict[str, Any] = {
            "requests": self.requests,
            "responses": {str(k): v for k, v in sorted(self.responses.items())},
            "queue": self.queue.stats(),
            "supervisor": self.supervisor.stats(),
        }
        if self.store is not None:
            data["store"] = self.store.stats()
        return data

    async def _handle_batch(
        self, kind: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        if self.draining:
            return 503, {"error": "daemon is draining"}, {}
        try:
            payload = json.loads(body.decode() or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"bad JSON body: {exc}"}, {}
        try:
            specs = self._parse_batch(kind, payload)
        except ValueError as exc:
            return 400, {"error": str(exc)}, {}
        if not specs:
            return 400, {"error": "empty batch: provide programs[]"}, {}
        if len(specs) > self.config.max_batch_jobs:
            return 413, {
                "error": f"batch of {len(specs)} exceeds "
                         f"max_batch_jobs={self.config.max_batch_jobs}"
            }, {}

        # Atomic admission: the whole batch fits the queue's headroom or
        # the request is turned away with a backoff hint.
        if self.queue.depth + len(specs) > self.queue.capacity:
            retry_after = self.queue.retry_after()
            return 429, {
                "error": "queue full",
                "retry_after_seconds": retry_after,
            }, {"Retry-After": str(int(retry_after + 0.999))}

        futures: List[concurrent.futures.Future] = []
        try:
            for spec in specs:
                future: concurrent.futures.Future = concurrent.futures.Future()
                self.queue.put((spec, future), key=spec.content_key())
                futures.append(future)
        except QueueFull as exc:
            for future in futures:
                future.cancel()
            return 429, {
                "error": "queue full",
                "retry_after_seconds": exc.retry_after_seconds,
            }, {"Retry-After": str(int(exc.retry_after_seconds + 0.999))}
        except QueueClosed:
            for future in futures:
                future.cancel()
            return 503, {"error": "daemon is draining"}, {}

        results: List[JobResult] = [
            await asyncio.wrap_future(future) for future in futures
        ]
        answered = [r for r in results if r.answered]
        confidence = Confidence.weakest(
            Confidence(r.confidence) for r in answered if r.confidence
        )
        return 200, {
            "kind": kind,
            "results": [r.as_dict() for r in results],
            "ok": bool(answered) and all(r.ok for r in answered)
                  and len(answered) == len(results),
            "answered": len(answered),
            "total": len(results),
            "confidence": str(confidence) if answered else None,
        }, {}

    def _parse_batch(self, kind: str, payload: Dict[str, Any]) -> List[JobSpec]:
        if not isinstance(payload, dict):
            raise ValueError("body must be a JSON object")
        programs = payload.get("programs")
        if not isinstance(programs, list):
            raise ValueError('missing "programs" list')
        deadline = float(
            payload.get("deadline_seconds", self.config.default_deadline_seconds)
        )
        deadline = max(0.2, min(deadline, self.config.max_deadline_seconds))
        options = {
            key: payload[key]
            for key in ("opt", "csimp", "np", "no_wwrf")
            if key in payload
        }
        if kind == "validate" and "opt" in options:
            get_optimizer(options["opt"])  # ValueError (a 400) lists the choices
        specs = []
        for index, entry in enumerate(programs):
            if isinstance(entry, str):
                name, source = f"prog{index}", entry
            elif isinstance(entry, dict) and "source" in entry:
                name, source = str(entry.get("name", f"prog{index}")), entry["source"]
            else:
                raise ValueError(
                    f"programs[{index}] must be a source string or "
                    '{"name", "source"}'
                )
            specs.append(JobSpec(
                kind, source, name=name, options=options,
                deadline_seconds=deadline,
            ))
        return specs


async def _amain(config: DaemonConfig) -> int:
    daemon = VerificationDaemon(config)
    port = await daemon.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, stop.set)
    store_note = f", store={config.store_root}" if config.store_root else ""
    print(
        f"repro serve listening on {config.host}:{port} "
        f"({config.workers} workers, queue={config.queue_capacity}{store_note})",
        flush=True,
    )
    await stop.wait()
    print("repro serve draining...", flush=True)
    clean = await daemon.drain()
    print(f"repro serve stopped ({'clean' if clean else 'drain timeout'})",
          flush=True)
    return 0 if clean else 1


def serve_forever(config: DaemonConfig = DaemonConfig()) -> int:
    """Blocking entry point used by ``repro serve``."""
    return asyncio.run(_amain(config))


__all__ = ["DaemonConfig", "VerificationDaemon", "serve_forever"]
