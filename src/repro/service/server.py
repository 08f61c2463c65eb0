"""Minimal stdlib HTTP front-end for the sweep scheduler.

Exposes the :class:`~repro.service.scheduler.SweepScheduler` over a local
HTTP API so the Section 6 sweeps can be driven from the CLI, CI, or the
report builder without importing the scheduler in-process.  Endpoints:

======================================  =======================================
``POST /submit``                        body = ``SweepPlan.to_wire()`` or
                                        ``{"plan": ..., "submission_key": ...}``
                                        (idempotent retry); returns
                                        ``{"job_id": ...}``; 429 +
                                        ``Retry-After`` when saturated, 503
                                        when draining
``GET /status/<id>``                    submission state + chunk progress
``GET /status/<id>?wait=<s>``           long-poll: the same payload, sent once
                                        the submission is terminal, after
                                        ``min(s, MAX_STATUS_WAIT)`` seconds,
                                        or at once on stop/drain; 400 unless
                                        ``s`` is a finite number >= 0
``GET /results/<id>``                   results (wire form) + ``SweepStats``
``POST /cancel/<id>``                   cancel a queued/running submission
``GET /metrics``                        one canonical metrics snapshot
``GET /metrics/stream?count=N``         NDJSON metrics stream (live telemetry)
``GET /workers``                        worker PIDs + pool generation (lets a
                                        fault harness SIGKILL a real worker)
``GET /healthz``                        health probe: ok/degraded/draining +
                                        unfinished-chunk backlog
                                        (``queue_depth``) and live workers
``GET /jobs``                           status of every retained submission
``POST /shutdown``                      drain and stop the server
======================================  =======================================

Finished submissions are retained up to
:data:`~repro.service.scheduler.MAX_FINISHED_SUBMISSIONS`; an evicted id
answers 404 on ``/status`` and ``/results`` like an unknown one.

The server is deliberately tiny (asyncio streams, no framework — the repo
adds no dependencies): one request per connection, JSON in, JSON out, which
is all a local reproduction service needs.  MICRO-scale deployments would
front this with a real ASGI stack; the paper's evaluation does not.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import time
from pathlib import Path
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.experiments.jobs import SweepPlan
from repro.experiments.metrics import MetricsRegistry, canonical_metrics_json
from repro.experiments.results import result_to_wire
from repro.experiments.store import DEFAULT_SERVICE_SHARDS, ResultStore
from repro.service.journal import (
    SERVE_PID_FILE,
    SubmissionJournal,
    acquire_pid_file,
    release_pid_file,
)
from repro.service.scheduler import (
    SchedulerDraining,
    SchedulerSaturated,
    SweepScheduler,
    SweepSubmission,
)
from repro.service.wire import metrics_ndjson_line

_MAX_BODY = 64 * 1024 * 1024  # a plan of thousands of jobs is still ~MBs

#: Longest a ``GET /status/<id>?wait=`` request is held (seconds).
MAX_STATUS_WAIT = 10.0


class SweepService:
    """Asyncio HTTP server bound to one scheduler.

    ``port=0`` asks the OS for a free port (read it back from :attr:`url`),
    which is what the tests and the CI smoke job use.
    """

    def __init__(
        self, scheduler: SweepScheduler, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown_event = asyncio.Event()
        #: Set by :meth:`stop`; releases held ``/status`` long-polls.
        self._closing = asyncio.Event()
        self._stream_seq = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        # Answer held long-polls first: from Python 3.12, ``wait_closed``
        # also waits for every open connection to finish.
        self._closing.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def wait_for_shutdown(self) -> None:
        """Block until ``POST /shutdown`` (or :meth:`request_shutdown`)."""
        await self._shutdown_event.wait()

    def request_shutdown(self) -> None:
        self._shutdown_event.set()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, target, body = request
            await self._route(method, target, body, writer)
        except ConnectionError:  # the client hung up (e.g. mid long-poll)
            pass
        except Exception as error:  # malformed request: report, keep serving
            try:
                await self._send_json(
                    writer, 400, {"error": f"{type(error).__name__}: {error}"}
                )
            except (ConnectionResetError, RuntimeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, target = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        if content_length > _MAX_BODY:
            raise ValueError(f"body too large ({content_length} bytes)")
        body = await reader.readexactly(content_length) if content_length else b""
        return method, target, body

    async def _send_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str = "application/json",
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  409: "Conflict", 429: "Too Many Requests",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, object]
    ) -> None:
        await self._send_response(
            writer, status, (json.dumps(payload) + "\n").encode("utf-8")
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, target: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        scheduler = self.scheduler

        if method == "GET" and path == "/healthz":
            await self._send_json(writer, 200, scheduler.health())
        elif method == "POST" and path == "/submit":
            await self._handle_submit(writer, body)
        elif method == "GET" and path.startswith("/status/"):
            await self._serve_status(writer, path[len("/status/"):], query)
        elif method == "GET" and path.startswith("/results/"):
            await self._serve_results(writer, path[len("/results/"):])
        elif method == "POST" and path.startswith("/cancel/"):
            submission = await self._lookup(writer, path[len("/cancel/"):])
            if submission is not None:
                cancelled = scheduler.cancel(submission.id)
                await self._send_json(
                    writer, 200, {"job_id": submission.id, "cancelled": cancelled}
                )
        elif method == "GET" and path == "/jobs":
            await self._send_json(writer, 200, {"jobs": scheduler.list_submissions()})
        elif method == "GET" and path == "/metrics":
            payload = (canonical_metrics_json(scheduler.metrics.snapshot()) + "\n")
            await self._send_response(writer, 200, payload.encode("utf-8"))
        elif method == "GET" and path == "/metrics/stream":
            await self._stream_metrics(writer, query)
        elif method == "GET" and path == "/workers":
            await self._send_json(
                writer,
                200,
                {
                    "pids": scheduler.worker_pids(),
                    "generation": scheduler._pool_generation,  # noqa: SLF001
                },
            )
        elif method == "POST" and path == "/shutdown":
            await self._send_json(writer, 200, {"status": "shutting down"})
            self.request_shutdown()
        else:
            await self._send_json(
                writer, 404, {"error": f"no route for {method} {path}"}
            )

    async def _handle_submit(self, writer, body: bytes) -> None:
        """Admit a plan; 429/503 + ``Retry-After`` on saturation/draining.

        Accepts either the bare plan wire form (the PR 8 protocol, kept for
        old clients) or ``{"plan": <wire>, "submission_key": <token>}``; the
        key makes a retried submit after an ambiguous failure land on the
        already-admitted submission instead of double-running the sweep.
        """
        payload = json.loads(body.decode("utf-8"))
        submission_key = None
        if isinstance(payload, dict) and "plan" in payload:
            submission_key = payload.get("submission_key") or None
            plan_wire = payload["plan"]
        else:
            plan_wire = payload
        plan = SweepPlan.from_wire(plan_wire)
        try:
            job_id = await self.scheduler.submit(plan, submission_key=submission_key)
        except SchedulerDraining as error:
            self.scheduler.metrics.counter("http_503_served").inc()
            await self._send_json_with_headers(
                writer, 503, {"error": str(error)},
                {"Retry-After": f"{error.retry_after:g}"},
            )
            return
        except SchedulerSaturated as error:
            self.scheduler.metrics.counter("http_429_served").inc()
            await self._send_json_with_headers(
                writer, 429, {"error": str(error)},
                {"Retry-After": f"{error.retry_after:g}"},
            )
            return
        await self._send_json(writer, 200, {"job_id": job_id})

    async def _send_json_with_headers(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        headers: Dict[str, str],
    ) -> None:
        await self._send_response(
            writer,
            status,
            (json.dumps(payload) + "\n").encode("utf-8"),
            extra_headers=headers,
        )

    async def _lookup(self, writer, submission_id: str) -> Optional[SweepSubmission]:
        """The submission, or ``None`` after answering 404 (unknown/evicted)."""
        try:
            return self.scheduler.get(submission_id)
        except KeyError:
            await self._send_json(
                writer, 404, {"error": f"unknown submission {submission_id!r}"}
            )
            return None

    async def _serve_status(
        self, writer, submission_id: str, query: Dict[str, list]
    ) -> None:
        wait = _parse_wait(query.get("wait", ["0"])[0])
        submission = await self._lookup(writer, submission_id)
        if submission is None:
            return
        await self._hold(submission, min(wait, MAX_STATUS_WAIT))
        await self._send_json(writer, 200, submission.status_dict())

    async def _hold(self, submission: SweepSubmission, seconds: float) -> None:
        """Wait up to ``seconds`` for the submission to end or a stop/drain."""
        events = (submission.done_event, self._closing, self.scheduler.drain_started)
        if seconds <= 0 or any(event.is_set() for event in events):
            return
        waiters = [asyncio.ensure_future(event.wait()) for event in events]
        try:
            await asyncio.wait(
                waiters, timeout=seconds, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for waiter in waiters:
                waiter.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)

    async def _serve_results(self, writer, submission_id: str) -> None:
        submission = await self._lookup(writer, submission_id)
        if submission is None:
            return
        if submission.state != "done":
            await self._send_json(
                writer,
                409,
                {"error": f"submission is {submission.state}, not done",
                 "state": submission.state},
            )
            return
        await self._send_json(
            writer,
            200,
            {
                "job_id": submission_id,
                "state": submission.state,
                "stats": submission.execution.stats.to_dict(),
                "results": [result_to_wire(r) for r in submission.execution.results],
            },
        )

    async def _stream_metrics(self, writer, query: Dict[str, list]) -> None:
        count = int(query.get("count", ["10"])[0])
        interval = float(query.get("interval", ["0.5"])[0])
        count = max(1, min(count, 10_000))
        lines = []
        for index in range(count):
            self._stream_seq += 1
            lines.append(
                metrics_ndjson_line(
                    self.scheduler.metrics.snapshot(),
                    self._stream_seq,
                    timestamp=time.time(),
                )
            )
            if index + 1 < count:
                await asyncio.sleep(interval)
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        await self._send_response(
            writer, 200, payload, content_type="application/x-ndjson"
        )


def _parse_wait(text: str) -> float:
    """The ``?wait=`` seconds of a status long-poll (``ValueError`` -> 400)."""
    seconds = float(text)
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError(f"wait must be a finite number of seconds >= 0, got {text!r}")
    return seconds


async def run_service(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: Optional[str] = None,
    shards: Optional[int] = DEFAULT_SERVICE_SHARDS,
    workers: int = 2,
    address_file: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    journal_dir: Optional[str] = None,
    max_pending_submissions: Optional[int] = None,
    max_inflight_chunks: Optional[int] = None,
    retry_after: float = 0.5,
) -> None:
    """Run the sweep service until ``POST /shutdown`` or SIGINT/SIGTERM.

    Opens (creating or adopting) the sharded result store at ``cache_dir``,
    migrates any flat-layout entries into shards, starts the scheduler and
    HTTP server, and optionally writes the bound URL to ``address_file`` so
    scripts using ``port=0`` can discover the port.

    With ``journal_dir`` set, the scheduler journals every submission to a
    durable WAL there and replays it on startup — a serve process killed
    mid-sweep resumes its live submissions on restart with zero re-executed
    completed chunks.  A ``serve.pid`` file in the journal directory (plus a
    ``<address_file>.pid`` twin when ``address_file`` is given) stops a
    second serve from double-running the same journal: starting against a
    live pidfile raises, while a stale one (the owner was SIGKILLed) is
    reclaimed.  ``max_pending_submissions`` / ``max_inflight_chunks`` arm
    admission control (429 + ``Retry-After: retry_after`` when saturated).
    """
    store = None
    if cache_dir is not None:
        store = ResultStore(cache_dir, shards=shards)
        migrated = store.migrate_flat_entries()
        if migrated:
            print(f"migrated {migrated} flat cache entr(ies) into shards")
    journal = None
    pid_files = []
    if journal_dir is not None:
        journal = SubmissionJournal(journal_dir)
        pid_path = journal.directory / SERVE_PID_FILE
        acquire_pid_file(pid_path)
        pid_files.append(pid_path)
    if address_file:
        address_pid = Path(str(address_file) + ".pid")
        acquire_pid_file(address_pid)
        pid_files.append(address_pid)
    try:
        scheduler = SweepScheduler(
            store=store,
            workers=workers,
            metrics=metrics,
            journal=journal,
            max_pending_submissions=max_pending_submissions,
            max_inflight_chunks=max_inflight_chunks,
            retry_after=retry_after,
        )
        await scheduler.start()
        service = SweepService(scheduler, host=host, port=port)
        await service.start()
        print(f"eraser-repro sweep service listening on {service.url}", flush=True)
        if address_file:
            Path(address_file).write_text(service.url + "\n", encoding="utf-8")

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, service.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await service.wait_for_shutdown()
        finally:
            await service.stop()
            await scheduler.stop(drain=True)
    finally:
        for pid_path in pid_files:
            release_pid_file(pid_path)


def serve_forever(**kwargs) -> None:
    """Synchronous wrapper around :func:`run_service` (the CLI entry point)."""
    asyncio.run(run_service(**kwargs))
