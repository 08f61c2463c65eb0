"""Sweep-as-a-service: scheduler, HTTP API, client, journal, telemetry.

Promotes the Section 6 Monte-Carlo sweep machinery from a one-shot CLI
helper to a long-running local service: many clients share one warm
content-addressed result cache (sharded so concurrent workers never contend
on a single directory) and one supervised worker pool.  The paper's figures each burn millions of shots;
a resident scheduler with chunk-granular scheduling, crash recovery and
live telemetry is what makes that traffic cheap to serve repeatedly.

Modules:

* :mod:`repro.service.scheduler` — asyncio job scheduler over a supervised
  ``ProcessPoolExecutor`` pool (heartbeats, bounded retry-with-backoff on
  worker death, admission control, graceful drain).
* :mod:`repro.service.journal` — durable, checksummed NDJSON submission
  journal (WAL) with atomic compaction, replayed on startup so a SIGKILLed
  service resumes its live submissions, plus the serve PID file.
* :mod:`repro.service.server` — minimal local HTTP front-end
  (``submit`` / ``status`` / ``results`` / ``cancel`` / ``metrics``) with
  429 + ``Retry-After`` admission rejections and an ok/degraded/draining
  health probe.
* :mod:`repro.service.client` — stdlib client with jittered-exponential
  retry, idempotent submit keys and per-request deadlines, plus a
  :class:`~repro.service.client.ServiceExecutor` facade that drops into any
  code written against :class:`~repro.experiments.executor.SweepExecutor`
  and degrades to a local executor when the service is unreachable.
* :mod:`repro.service.wire` — the NDJSON metrics stream's wire form
  (results travel as :func:`~repro.experiments.results.result_to_wire`).
* :mod:`repro.service.chaos` — fault-injection harness (SIGKILL a real
  serve subprocess, inject connection resets / dropped responses, tear
  journal tails) driving the chaos test suites and the CI chaos job.

The crash/retry/resume guarantees are proven by the fault-injection suites
(``tests/test_service_faults.py``, ``tests/test_service_recovery.py``,
``tests/test_service_chaos.py``): workers SIGKILLed mid-chunk, the *server*
SIGKILLed mid-sweep, torn shard entries and torn journal tails all recover
to results bit-identical to a serial
:class:`~repro.experiments.executor.SweepExecutor` run.
"""

from repro.service.client import (
    ServiceError,
    ServiceExecutor,
    ServiceUnavailable,
    ServiceUnreachable,
    SweepServiceClient,
    content_submission_key,
    default_service_url,
)
from repro.service.journal import SubmissionJournal
from repro.service.scheduler import (
    SchedulerDraining,
    SchedulerSaturated,
    SweepScheduler,
)
from repro.service.server import SweepService, run_service, serve_forever

__all__ = [
    "ServiceError",
    "ServiceExecutor",
    "ServiceUnavailable",
    "ServiceUnreachable",
    "SweepServiceClient",
    "content_submission_key",
    "default_service_url",
    "SubmissionJournal",
    "SchedulerDraining",
    "SchedulerSaturated",
    "SweepScheduler",
    "SweepService",
    "run_service",
    "serve_forever",
]
