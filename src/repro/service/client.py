"""Stdlib HTTP client for the sweep service, plus an executor facade.

Two layers:

* :class:`SweepServiceClient` — a ``urllib``-based wrapper over the
  service API (:mod:`repro.service.server`): submit plans, long-poll status,
  fetch results, tail the NDJSON telemetry stream.  Requests retry with
  jittered exponential backoff on connection errors and 5xx responses,
  honor ``Retry-After`` on 429/503 (the server's admission-control
  rejections), and respect an optional per-request deadline — which is
  what lets a client ride through a service SIGKILL + restart without the
  caller noticing.  Every submit carries an idempotency key, so a retry
  after an ambiguous failure (response lost mid-flight) dedupes onto the
  already-accepted submission instead of double-running the sweep.
* :class:`ServiceExecutor` — a drop-in stand-in for
  :class:`~repro.experiments.executor.SweepExecutor` that routes plans
  through a running service instead of executing in-process, and degrades
  gracefully to a local executor when the service stays unreachable.  The
  report builder (Section 6 / Figures 6–9 pipelines) accepts it unchanged:
  it exposes the same ``run(plan)`` / ``run_job(job)`` / ``last_stats``
  surface, and the results coming back over the wire — or computed by the
  local fallback — are bit-identical to a local run (JSON floats
  round-trip exactly; chunk seeds are position-keyed, so the backend
  cannot change a statistic).

No third-party dependencies — the repo's no-new-deps rule holds here too.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import time
import urllib.error
import urllib.request
import uuid
from typing import Dict, Iterator, List, Optional, Tuple

from repro.experiments.executor import SweepExecutor, SweepStats
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.metrics import MetricsRegistry
from repro.experiments.results import MemoryExperimentResult, result_from_wire
from repro.service.server import MAX_STATUS_WAIT
from repro.service.wire import parse_metrics_ndjson

DEFAULT_SERVICE_URL = "http://127.0.0.1:7917"
SERVICE_URL_ENV = "ERASER_REPRO_SERVICE_URL"

#: Retry ceilings: per-delay cap and status-poll interval cap (seconds).
DEFAULT_BACKOFF_CAP = 5.0
DEFAULT_POLL_CAP = 2.0


def default_service_url() -> str:
    """Service URL from ``ERASER_REPRO_SERVICE_URL``, else the default port."""
    return os.environ.get(SERVICE_URL_ENV, DEFAULT_SERVICE_URL)


class ServiceError(RuntimeError):
    """An HTTP-level or application-level error from the sweep service."""


class ServiceUnavailable(ServiceError):
    """A retryable server response: 429/503 (with ``Retry-After``) or 5xx."""

    def __init__(self, message: str, retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceUnreachable(ServiceError):
    """No server answered at all (connection refused/reset, timeout, DNS)."""


def content_submission_key(plan: SweepPlan) -> str:
    """A deterministic idempotency key derived from the plan's content.

    Use this instead of the default per-call random key when *independent*
    submitters (separate processes, CI retries of a whole script) must
    dedupe onto one submission.  Two plans with identical jobs — including
    seed material — map to the same key.
    """
    from repro.experiments.store import config_hash

    return "plan-" + config_hash({"plan": plan.to_wire()})


class SweepServiceClient:
    """Talk to a running sweep service over its local HTTP API.

    Args:
        base_url: Service root, e.g. ``http://127.0.0.1:7917`` (defaults to
            :func:`default_service_url`).
        timeout: Per-request socket timeout in seconds.
        retries: How many times a failed request may be retried (connection
            errors, 5xx, and 429/503 rate-limit responses).  ``0`` restores
            the fail-fast behaviour.
        backoff: Base of the jittered exponential backoff between retries.
        backoff_cap: Upper bound on a single backoff delay (a server-sent
            ``Retry-After`` may exceed it).
        deadline: Default per-request wall-clock budget in seconds; retries
            never sleep past it.  ``None`` leaves only ``retries`` bounding.
        telemetry: Registry for the client-side counters
            (``client_retries``, ``client_rate_limited``,
            ``client_connect_errors``); created when not supplied and
            exposed as :attr:`telemetry`.
        rng: Jitter source (tests inject a seeded ``random.Random``).
    """

    def __init__(
        self,
        base_url: Optional[str] = None,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.1,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        deadline: Optional[float] = None,
        telemetry: Optional[MetricsRegistry] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.base_url = (base_url or default_service_url()).rstrip("/")
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.backoff_cap = float(backoff_cap)
        self.deadline = deadline
        #: Client-side telemetry (retries, rate limits, connect errors).
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        self._rng = rng if rng is not None else random.Random()

    # ------------------------------------------------------------------
    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]],
        deadline_at: Optional[float],
    ) -> bytes:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        timeout = self.timeout
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise ServiceUnreachable(
                    f"deadline exhausted before {method} {path} to {self.base_url}"
                )
            timeout = min(timeout, remaining) if timeout else remaining
        request = urllib.request.Request(
            self.base_url + path, data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.read()
        except urllib.error.HTTPError as error:
            retry_after = _parse_retry_after(error.headers.get("Retry-After"))
            detail = error.read().decode("utf-8", "replace").strip()
            try:
                detail = json.loads(detail).get("error", detail)
            except (ValueError, AttributeError):
                pass
            message = f"{method} {path} failed ({error.code}): {detail}"
            if error.code in (429, 503):
                if error.code == 429:
                    self.telemetry.counter("client_rate_limited").inc()
                raise ServiceUnavailable(message, retry_after=retry_after) from None
            if error.code >= 500:
                raise ServiceUnavailable(message) from None
            raise ServiceError(message) from None
        except (urllib.error.URLError, http.client.HTTPException, OSError) as error:
            # RemoteDisconnected escapes urllib unwrapped (it is raised by
            # getresponse(), after the request body went out), so catch the
            # http.client layer too: that is exactly the ambiguous-failure
            # window the idempotency key exists for.
            self.telemetry.counter("client_connect_errors").inc()
            reason = getattr(error, "reason", error)
            raise ServiceUnreachable(
                f"cannot reach sweep service at {self.base_url}: {reason}"
            ) from None

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
        deadline: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> bytes:
        """One API call with jittered-exponential retry.

        Connection errors and 5xx/429/503 responses are retried up to
        ``retries`` times; other HTTP errors raise immediately.  A
        server-sent ``Retry-After`` raises the next delay, and no retry
        sleeps past the request ``deadline``.
        """
        budget = self.retries if retries is None else int(retries)
        effective_deadline = self.deadline if deadline is None else deadline
        deadline_at = (
            None
            if effective_deadline is None
            else time.monotonic() + effective_deadline
        )
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload, deadline_at)
            except (ServiceUnavailable, ServiceUnreachable) as error:
                if attempt >= budget:
                    raise
                delay = min(
                    self.backoff_cap, self.backoff * (2 ** attempt)
                ) * (0.5 + self._rng.random())
                retry_after = getattr(error, "retry_after", None)
                if retry_after is not None:
                    delay = max(delay, retry_after)
                if (
                    deadline_at is not None
                    and time.monotonic() + delay > deadline_at
                ):
                    raise
                self.telemetry.counter("client_retries").inc()
                time.sleep(delay)
                attempt += 1

    def _request_json(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
        deadline: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> Dict[str, object]:
        return json.loads(
            self._request(method, path, payload, deadline=deadline, retries=retries)
        )

    # ------------------------------------------------------------------
    def ping(self) -> bool:
        """Whether the service answers its health probe (ok or degraded)."""
        try:
            status = self._request_json("GET", "/healthz", retries=0).get("status")
            return status in ("ok", "degraded")
        except ServiceError:
            return False

    def health(self) -> Dict[str, object]:
        """The full ``/healthz`` payload (status, queue depth, workers)."""
        return self._request_json("GET", "/healthz")

    def submit(
        self,
        plan: SweepPlan,
        submission_key: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> str:
        """Submit a plan; returns the service-side submission id.

        Every submit carries an idempotency key — a fresh random one per
        call unless ``submission_key`` is given (see
        :func:`content_submission_key` for content-derived keys).  Retries
        of this call therefore always dedupe server-side: a response lost
        after the server accepted the plan cannot double-run the sweep.
        """
        key = submission_key or uuid.uuid4().hex
        payload = {"plan": plan.to_wire(), "submission_key": key}
        return str(
            self._request_json("POST", "/submit", payload, deadline=deadline)["job_id"]
        )

    def status(self, job_id: str, wait: float = 0.0) -> Dict[str, object]:
        """The submission's status; with ``wait > 0`` a long-poll.

        The server holds a long-poll until the submission is terminal or
        ``min(wait, MAX_STATUS_WAIT)`` seconds pass, whichever comes first.
        """
        query = f"?wait={wait:g}" if wait > 0 else ""
        return self._request_json("GET", f"/status/{job_id}{query}")

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll: float = 0.2,
        poll_cap: float = DEFAULT_POLL_CAP,
    ) -> Dict[str, object]:
        """Block until the submission reaches a terminal state.

        Each check is a ``status`` long-poll for the remaining ``timeout``,
        held at most half the request timeout, so completion is seen the
        moment it happens.  ``poll`` only paces the fallback: when a
        non-terminal answer comes back early (a server draining or without
        long-poll support), the client sleeps an interval that grows
        exponentially from ``poll`` up to ``poll_cap`` with jitter before
        asking again.  ``timeout=0`` performs exactly one plain status check;
        a positive ``timeout`` always checks at least once and raises
        :class:`TimeoutError` once it elapses.  Raises
        :class:`ServiceError` when the sweep fails or is cancelled.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        # Half the tightest request timeout, so a held request never times out.
        limits = [t for t in (self.timeout, self.deadline) if t]
        longest_hold = min(limits) / 2 if limits else MAX_STATUS_WAIT
        attempt = 0
        while True:
            hold = longest_hold
            if deadline is not None:
                hold = min(hold, max(0.0, deadline - time.monotonic()))
            asked = time.monotonic()
            status = self.status(job_id, wait=hold) if hold > 0 else self.status(job_id)
            held = time.monotonic() - asked
            state = status.get("state")
            if state == "done":
                return status
            if state in ("failed", "cancelled"):
                raise ServiceError(
                    f"submission {job_id} {state}: {status.get('error')}"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"submission {job_id} still {state} after {timeout}s"
                )
            if hold > 0 and held >= 0.9 * min(hold, MAX_STATUS_WAIT):
                continue  # held the full term (less timer slack): ask again now
            delay = min(poll_cap, poll * (2 ** attempt)) * (
                0.75 + 0.5 * self._rng.random()
            )
            if deadline is not None:
                delay = min(delay, max(0.0, deadline - time.monotonic()))
            time.sleep(delay)
            attempt += 1

    def results(
        self, job_id: str
    ) -> Tuple[List[MemoryExperimentResult], SweepStats]:
        """Fetch a finished submission's results and run statistics."""
        payload = self._request_json("GET", f"/results/{job_id}")
        results = [result_from_wire(entry) for entry in payload["results"]]
        stats = SweepStats.from_dict(payload["stats"])
        return results, stats

    def cancel(self, job_id: str) -> bool:
        return bool(self._request_json("POST", f"/cancel/{job_id}")["cancelled"])

    def metrics(self) -> Dict[str, object]:
        """One canonical server-side telemetry snapshot (``GET /metrics``)."""
        return self._request_json("GET", "/metrics")

    def metrics_stream(
        self, count: int = 10, interval: float = 0.5
    ) -> Iterator[Dict[str, object]]:
        """Yield ``count`` NDJSON telemetry snapshots from the live stream."""
        raw = self._request(
            "GET", f"/metrics/stream?count={int(count)}&interval={interval}"
        )
        for line in raw.decode("utf-8").splitlines():
            if line.strip():
                yield parse_metrics_ndjson(line)

    def workers(self) -> Dict[str, object]:
        """Worker pool introspection: PIDs and pool generation."""
        return self._request_json("GET", "/workers")

    def shutdown(self) -> None:
        self._request_json("POST", "/shutdown", retries=0)


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Parse a ``Retry-After`` header (delta-seconds form only)."""
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


class ServiceExecutor:
    """:class:`~repro.experiments.executor.SweepExecutor`-compatible facade.

    ``run(plan)`` submits to the service, blocks until completion, and
    returns the results in plan order; :attr:`last_stats` then carries the
    service-side :class:`~repro.experiments.executor.SweepStats` — exactly
    the contract the report builder and render pipeline already rely on.

    With ``local_fallback=True`` (the default) a service that stays
    unreachable past the client's retry budget downgrades the run to an
    in-process :class:`~repro.experiments.executor.SweepExecutor` instead
    of raising: the position-keyed seed discipline makes the local results
    bit-identical to what the service would have returned, so callers only
    lose the shared cache, never correctness.  :attr:`used_fallback`
    records which path served the last ``run``.  Application-level
    failures (a failed sweep, a cancelled submission) still raise — only
    *unreachability* falls back.

    Args:
        base_url: Service root (defaults to :func:`default_service_url`).
        timeout: Wait budget for sweep completion, in seconds.
        poll: Initial fallback poll interval (see
            :meth:`SweepServiceClient.wait`).
        retries: Per-request retry budget (see :class:`SweepServiceClient`).
        deadline: Per-request deadline forwarded to the client.
        local_fallback: Degrade to a local executor when unreachable.
        local_executor: The executor used for fallback (a plain serial
            :class:`~repro.experiments.executor.SweepExecutor` when omitted).
    """

    def __init__(
        self,
        base_url: Optional[str] = None,
        timeout: Optional[float] = None,
        poll: float = 0.2,
        retries: int = 3,
        deadline: Optional[float] = None,
        local_fallback: bool = True,
        local_executor: Optional[SweepExecutor] = None,
    ) -> None:
        self.client = SweepServiceClient(base_url, retries=retries, deadline=deadline)
        self.timeout = timeout
        self.poll = poll
        self.local_fallback = local_fallback
        self.local_executor = local_executor
        self.last_stats = SweepStats()
        self.last_job_id: Optional[str] = None
        self.used_fallback = False

    def run(self, plan: SweepPlan) -> List[MemoryExperimentResult]:
        try:
            job_id = self.client.submit(plan)
            self.last_job_id = job_id
            self.client.wait(job_id, timeout=self.timeout, poll=self.poll)
            results, stats = self.client.results(job_id)
        except ServiceUnreachable:
            if not self.local_fallback:
                raise
            return self._run_locally(plan)
        self.used_fallback = False
        self.last_stats = stats
        return results

    def _run_locally(self, plan: SweepPlan) -> List[MemoryExperimentResult]:
        """Service gone: execute in-process (bit-identical by seed discipline)."""
        self.used_fallback = True
        self.last_job_id = None
        self.client.telemetry.counter("client_local_fallbacks").inc()
        executor = self.local_executor or SweepExecutor()
        results = executor.run(plan)
        self.last_stats = executor.last_stats
        return results

    def run_job(self, job: SweepJob) -> MemoryExperimentResult:
        return self.run(SweepPlan([job]))[0]
