"""Asyncio sweep scheduler: supervised workers, retries, crash recovery.

The resident core of the sweep service, which runs the Section 6
Monte-Carlo evaluation (Figures 14-18) for many clients at once.  A
:class:`SweepScheduler` accepts :class:`~repro.experiments.jobs.SweepPlan`
submissions and dispatches their chunks to a supervised
``ProcessPoolExecutor`` worker pool through the shared
:class:`~repro.experiments.executor.PlanExecution` core, speaking the same
``claim_tasks``/``record_chunk`` protocol as the in-process executor (so
statistics are bit-identical between backends).  Admission claims
``workers`` chunks of a plan; every recorded chunk refills one claim, so
each live submission keeps up to ``workers`` chunks queued or running and
concurrent submissions interleave at chunk granularity rather than running
FIFO by whole plan.

Supervision and fault tolerance:

* **Heartbeats** — every worker process runs a daemon thread touching a
  per-PID heartbeat file; the scheduler's supervisor task scans them,
  publishes the ``workers_alive`` gauge, and counts silently-dead workers.
* **Retry with backoff** — a worker death (SIGKILL, OOM, segfault) breaks
  the pool; every in-flight chunk gets ``BrokenProcessPool``.  The pool is
  rebuilt once (generation-guarded) and the chunks requeue with exponential
  backoff, bounded by ``max_chunk_retries``.  Because chunk random streams
  are position-keyed (see :mod:`repro.experiments.jobs`), a re-executed chunk
  reproduces its result exactly, so crashes never change a statistic.
* **Job-granular persistence** — each job merges and persists to the
  (sharded) :class:`~repro.experiments.store.ResultStore` the moment its
  last chunk lands, so a scheduler killed mid-sweep resumes by resubmitting
  the same plan: completed jobs are cache hits, incomplete ones re-run.
* **Graceful drain** — :meth:`SweepScheduler.drain` stops accepting
  submissions and waits for every accepted sweep to reach a terminal state.
* **Durable journal** — with a
  :class:`~repro.service.journal.SubmissionJournal` attached, every
  acceptance is WAL-logged before admission and replayed on the next
  :meth:`SweepScheduler.start`, so a SIGKILLed *service* process resumes
  its live submissions (persisted jobs and spilled chunks re-execute zero
  times) with the same ids and idempotency keys.
* **Admission control** — optional watermarks on active submissions and
  the unfinished-chunk backlog; a saturated scheduler raises
  :class:`SchedulerSaturated` (the HTTP layer's 429 + ``Retry-After``),
  and :meth:`SweepScheduler.health` reports ok/degraded/draining.
* **Bounded retention** — live submissions sit in their own table, so
  per-event bookkeeping (gauges, backlog, journal compaction) scales with
  live work only; at most :data:`MAX_FINISHED_SUBMISSIONS` finished ones
  are kept for ``/status`` and ``/results``.  The oldest-finished is
  evicted with its idempotency key and then reads as unknown; its jobs
  stay in the result store, so resubmitting the plan is all cache hits.

All activity is counted into one
:class:`~repro.experiments.metrics.MetricsRegistry` (job lifecycle, chunk
cache/execute traffic, per-chunk latency, worker supervision, and every
worker's ``decoder_*`` dispatch counters), which the HTTP layer snapshots
and streams.  Lifecycle events (accepted, started, completed, failed,
cancelled, evicted) are logged to the ``repro.service`` logger, each record
carrying ``submission_id`` and ``event`` attributes.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

from repro.experiments.executor import PlanExecution, execute_chunk_with_stats
from repro.experiments.jobs import SweepPlan
from repro.experiments.metrics import MetricsRegistry
from repro.experiments.results import MemoryExperimentResult
from repro.experiments.store import ResultStore
from repro.service.journal import SubmissionJournal, pid_alive

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

TERMINAL_STATES = (STATE_DONE, STATE_FAILED, STATE_CANCELLED)

#: Terminal state -> (journal/log event, lifecycle counter).
_TERMINAL_EVENTS = {
    STATE_DONE: ("completed", "jobs_completed"),
    STATE_FAILED: ("failed", "jobs_failed"),
    STATE_CANCELLED: ("cancelled", "jobs_cancelled"),
}

#: Finished submissions kept for ``/status`` and ``/results``; beyond this
#: the oldest-finished is evicted (about 4.6 KB each for a one-job plan).
MAX_FINISHED_SUBMISSIONS = 256

logger = logging.getLogger("repro.service")


def _log(event: str, submission_id: str, detail: str, *args, level: int = logging.INFO) -> None:
    """One lifecycle record on the ``repro.service`` logger, keyed by id."""
    logger.log(
        level,
        "submission %s %s: " + detail,
        submission_id,
        event,
        *args,
        extra={"submission_id": submission_id, "event": event},
    )


class SchedulerDraining(RuntimeError):
    """Submission rejected because the scheduler is draining for shutdown."""

    def __init__(self, retry_after: float = 1.0) -> None:
        super().__init__("scheduler is draining and not accepting submissions")
        self.retry_after = retry_after


class SchedulerSaturated(RuntimeError):
    """Submission rejected by admission control (queue/watermark full).

    Carries the ``retry_after`` hint the HTTP layer turns into a 429 with a
    ``Retry-After`` header, so well-behaved clients back off instead of
    hammering a saturated service.
    """

    def __init__(self, reason: str, retry_after: float) -> None:
        super().__init__(f"service saturated: {reason}")
        self.retry_after = retry_after


def _worker_heartbeat(heartbeat_dir: str, interval: float) -> None:
    """Worker-pool initializer: touch a per-PID heartbeat file forever.

    Runs in the worker process.  The thread is a daemon so it never delays
    worker shutdown; a SIGKILLed worker simply stops beating, which is how
    the supervisor notices it died.

    The initializer also severs the signal plumbing a fork-started worker
    inherits from the serving process.  The parent's asyncio loop installs
    SIGTERM/SIGINT handlers backed by ``signal.set_wakeup_fd``; a forked
    worker shares that wakeup pipe, so a worker receiving SIGTERM (which the
    pool sends to survivors when a sibling dies) would write the signal byte
    into the *parent's* pipe and trick the service into a graceful shutdown
    mid-recovery.  Resetting the wakeup fd and dispositions here keeps
    worker signals inside the worker.

    The beat doubles as an orphan watchdog: a SIGKILLed serve process
    cannot clean up its pool, and the orphans would otherwise linger
    forever (every worker holds a copy of the pool queue's write end, so
    no EOF ever arrives) while keeping the *listening socket* they
    inherited on fork bound — blocking the restart the crash-recovery
    journal exists for.  When the parent changes (re-parented to init/a
    subreaper), the worker hard-exits within one heartbeat interval,
    releasing every inherited fd.
    """
    import signal as _signal

    try:
        _signal.set_wakeup_fd(-1)
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread or exotic platform
        pass
    path = os.path.join(heartbeat_dir, f"worker-{os.getpid()}")
    parent = os.getppid()

    def _beat() -> None:
        while True:
            if os.getppid() != parent:
                os._exit(1)  # orphaned: the serve process is gone
            try:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(f"{time.time():.6f}")
            except OSError:
                pass
            time.sleep(interval)

    threading.Thread(target=_beat, daemon=True, name="heartbeat").start()


class SweepSubmission:
    """One accepted sweep plan and its execution state inside the scheduler."""

    def __init__(
        self,
        submission_id: str,
        plan: SweepPlan,
        execution: PlanExecution,
        key: Optional[str] = None,
    ) -> None:
        self.id = submission_id
        self.plan = plan
        self.execution = execution
        #: Client-supplied idempotency key (dedupes retried submits).
        self.key = key
        self.state = STATE_QUEUED
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.done_event = asyncio.Event()
        #: Serialises record_chunk calls (PlanExecution is not thread-safe).
        self.record_lock = asyncio.Lock()

    def status_dict(self) -> Dict[str, object]:
        """The JSON status payload served by ``GET /status/<id>``."""
        execution = self.execution
        return {
            "id": self.id,
            "state": self.state,
            "error": self.error,
            "jobs_total": len(self.plan.jobs),
            "jobs_done": execution.jobs_done,
            "cache_hits": execution.stats.cache_hits,
            "chunks_total": self.plan.total_chunks,
            "chunks_done": execution.chunks_done,
            "chunks_executed": execution.stats.chunks_run,
            "chunks_recovered": execution.stats.chunks_recovered,
            "shots_saved": execution.stats.shots_saved,
            "jobs_stopped_early": execution.stats.jobs_stopped_early,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
        }


class SweepScheduler:
    """Long-running asyncio scheduler over a supervised process pool.

    Args:
        store: Shared (typically sharded) result store; completed jobs
            persist here, and submissions are served from it before any
            Monte-Carlo work is scheduled.
        workers: Worker processes in the pool (also the number of pump
            tasks, i.e. the chunk-level concurrency).
        metrics: Telemetry registry (created if not supplied); exposed as
            :attr:`metrics` for the HTTP layer to snapshot.
        max_chunk_retries: How many times one chunk may be re-dispatched
            after worker deaths before its sweep fails.
        retry_backoff: Base of the exponential backoff (seconds) between a
            worker death and the chunk's re-dispatch.
        heartbeat_interval: Worker heartbeat period (seconds); the
            supervisor scans at the same cadence.
        journal: Durable submission journal
            (:class:`~repro.service.journal.SubmissionJournal`).  When set,
            every acceptance is logged before admission, terminal states are
            logged as they happen, and :meth:`start` replays the log to
            resume submissions a previous (crashed) process left live.
            Executed chunks of incomplete jobs are additionally spilled to a
            chunk store under the journal directory, so recovery re-executes
            zero already-completed chunks.
        max_pending_submissions: Admission-control watermark on concurrently
            active (non-terminal) submissions; ``None`` disables the limit.
        max_inflight_chunks: Admission-control watermark on the
            unfinished-chunk backlog: the sum over active submissions of
            ``chunks_total - chunks_done`` (also ``/healthz``'s
            ``queue_depth``).  ``None`` disables the limit.
        retry_after: The ``Retry-After`` hint (seconds) attached to
            saturation/draining rejections.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        max_chunk_retries: int = 3,
        retry_backoff: float = 0.1,
        heartbeat_interval: float = 0.25,
        journal: Optional[SubmissionJournal] = None,
        max_pending_submissions: Optional[int] = None,
        max_inflight_chunks: Optional[int] = None,
        retry_after: float = 0.5,
    ) -> None:
        self.store = store
        self.workers = max(1, int(workers))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_chunk_retries = int(max_chunk_retries)
        self.retry_backoff = float(retry_backoff)
        self.heartbeat_interval = float(heartbeat_interval)
        self.journal = journal
        self.max_pending_submissions = max_pending_submissions
        self.max_inflight_chunks = max_inflight_chunks
        self.retry_after = float(retry_after)
        self._chunk_store: Optional[ResultStore] = None
        if journal is not None:
            self._chunk_store = ResultStore(journal.directory / "chunk-spill")
        #: Non-terminal submissions, in admission order.
        self._live: Dict[str, SweepSubmission] = {}
        #: Terminal submissions, oldest-finished first (bounded).
        self._finished: Dict[str, SweepSubmission] = {}
        self._keys: Dict[str, str] = {}
        self._ids = itertools.count(1)
        self._draining = False
        #: Set once a drain or stop begins; wakes held ``/status`` long-polls.
        self.drain_started = asyncio.Event()
        self._started = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_generation = 0
        self._heartbeat_dir: Optional[str] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bring up the worker pool, pump tasks and heartbeat supervisor."""
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._queue: asyncio.Queue = asyncio.Queue()
        self._pool_lock = asyncio.Lock()
        self._heartbeat_dir = tempfile.mkdtemp(prefix="eraser-service-hb-")
        self._pool = self._make_pool()
        self._pumps = [
            asyncio.create_task(self._pump(), name=f"sweep-pump-{index}")
            for index in range(self.workers)
        ]
        self._supervisor_task = asyncio.create_task(
            self._supervise(), name="sweep-supervisor"
        )
        self._started = True
        if self.journal is not None:
            await self._recover()

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_worker_heartbeat,
            initargs=(self._heartbeat_dir, self.heartbeat_interval),
        )

    def worker_pids(self) -> List[int]:
        """PIDs of the current pool's worker processes (may be warming up)."""
        pool = self._pool
        if pool is None or not pool._processes:  # noqa: SLF001 - stdlib has no API
            return []
        return sorted(pool._processes.keys())  # noqa: SLF001

    async def drain(self) -> None:
        """Stop accepting submissions and wait for accepted ones to finish."""
        self._draining = True
        self.drain_started.set()
        pending = list(self._live.values())
        if pending:
            await asyncio.gather(*(s.done_event.wait() for s in pending))

    async def stop(self, drain: bool = True) -> None:
        """Shut down; ``drain=False`` abandons queued work immediately."""
        if not self._started:
            return
        if drain:
            await self.drain()
        self._draining = True
        self.drain_started.set()
        for task in self._pumps:
            task.cancel()
        self._supervisor_task.cancel()
        await asyncio.gather(*self._pumps, self._supervisor_task, return_exceptions=True)
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=drain, cancel_futures=True)
        if self._heartbeat_dir:
            shutil.rmtree(self._heartbeat_dir, ignore_errors=True)
        if self.journal is not None:
            self.journal.close()
        self._started = False

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Submissions
    # ------------------------------------------------------------------
    async def submit(self, plan: SweepPlan, submission_key: Optional[str] = None) -> str:
        """Accept a plan; returns the submission id immediately.

        Cached jobs are resolved synchronously (a fully-cached plan is done
        before this returns — the warm-resubmit path executes zero chunks);
        the rest is claimed from the plan's chunk frontier as workers free
        up.

        ``submission_key`` is an idempotency token: a retried submit with a
        key the scheduler has already seen returns the existing submission's
        id instead of admitting the plan twice, which is what makes a retry
        after an ambiguous failure (response lost, connection reset) safe.
        Raises :class:`SchedulerDraining` during shutdown and
        :class:`SchedulerSaturated` when admission control rejects the plan.
        """
        if not self._started:
            raise RuntimeError("scheduler is not running")
        if self._draining:
            raise SchedulerDraining(self.retry_after)
        if submission_key:
            existing = self._keys.get(submission_key)
            if existing is not None:
                self.metrics.counter("submissions_deduped").inc()
                return existing
        reason = self._saturation_reason()
        if reason is not None:
            self.metrics.counter("submissions_rejected_saturated").inc()
            raise SchedulerSaturated(reason, self.retry_after)
        submission_id = f"sweep-{next(self._ids):06d}"
        if self.journal is not None:
            # WAL discipline: the acceptance is durable before any effect.
            self.journal.append(
                {
                    "event": "accepted",
                    "id": submission_id,
                    "key": submission_key,
                    "ts": time.time(),
                    "plan": plan.to_wire(),
                }
            )
        return await self._admit(plan, submission_id, submission_key)

    async def _admit(
        self,
        plan: SweepPlan,
        submission_id: str,
        submission_key: Optional[str] = None,
    ) -> str:
        """Admission core shared by :meth:`submit` and journal recovery."""
        execution = await asyncio.to_thread(
            PlanExecution, plan, self.store, self.metrics, self._chunk_store
        )
        submission = SweepSubmission(submission_id, plan, execution, key=submission_key)
        self._live[submission_id] = submission
        if submission_key:
            self._keys[submission_key] = submission_id
        self.metrics.counter("jobs_submitted").inc()
        self.metrics.counter("sweep_jobs_total").inc(len(plan.jobs))
        _log("accepted", submission_id, "%d job(s), %d chunk(s)", len(plan.jobs), plan.total_chunks)
        if execution.is_complete:
            self._finish(submission)
        else:
            submission.state = STATE_RUNNING
            submission.started = time.time()
            self._journal_event("started", submission)
            _log("started", submission_id, "%d chunk(s) left", execution.chunks_left)
            # Claim enough chunks to saturate the pool; _run_chunk refills
            # one claim per recorded chunk.
            for job_index, chunk in execution.claim_tasks(self.workers):
                self._queue.put_nowait((submission, job_index, chunk, 0))
        self._update_gauges()
        return submission_id

    async def _recover(self) -> None:
        """Replay the journal: resume every submission the crash left live.

        Re-admitted submissions keep their original ids (the id counter
        restarts above the highest journaled serial), their idempotency keys
        rebind, and their executions reload persisted jobs from the result
        store plus spilled chunks from the chunk store — so already-finished
        work re-executes zero times and the resumed statistics are
        bit-identical to an uninterrupted run.  A record whose plan no longer
        parses is journaled as ``failed`` and counted in ``jobs_failed``.
        """
        assert self.journal is not None
        recovery = await asyncio.to_thread(self.journal.replay)
        self.metrics.counter("journal_replays").inc()
        if recovery.dropped:
            self.metrics.counter("journal_torn_records_dropped").inc(recovery.dropped)
        self._ids = itertools.count(recovery.max_serial + 1)
        for submission_id, record in recovery.live.items():
            try:
                plan = SweepPlan.from_wire(record["plan"])
            except (KeyError, TypeError, ValueError) as error:
                # A plan this build cannot rebuild (e.g. one naming a retired
                # decoder method) ends here instead of failing every restart.
                self.journal.append(
                    {
                        "event": "failed",
                        "id": submission_id,
                        "ts": time.time(),
                        "error": f"{type(error).__name__}: {error}",
                    }
                )
                self.metrics.counter("jobs_failed").inc()
                continue
            key = record.get("key") or None
            self.metrics.counter("submissions_recovered").inc()
            await self._admit(plan, submission_id, key)
        # Startup compaction drops dead records and any torn tail for free.
        await asyncio.to_thread(self.journal.compact, self._live_accepted_records())

    def _live_accepted_records(self) -> List[Dict[str, object]]:
        """The ``accepted`` records a compacted journal must preserve."""
        return [
            {
                "event": "accepted",
                "id": submission.id,
                "key": submission.key,
                "ts": submission.created,
                "plan": submission.plan.to_wire(),
            }
            for submission in self._live.values()
        ]

    def _backlog(self) -> int:
        """Unfinished chunks over every live submission (admission depth)."""
        return sum(s.execution.chunks_left for s in self._live.values())

    def _journal_event(self, event: str, submission: SweepSubmission) -> None:
        if self.journal is None:
            return
        self.journal.append({"event": event, "id": submission.id, "ts": time.time()})
        if submission.state in TERMINAL_STATES and self.journal.compaction_due:
            self.journal.compact(self._live_accepted_records())

    def _saturation_reason(self) -> Optional[str]:
        """Why admission control would reject right now (``None`` = admit)."""
        if self.max_pending_submissions is not None:
            active = len(self._live)
            if active >= self.max_pending_submissions:
                return (
                    f"{active} active submission(s) at the "
                    f"max_pending_submissions={self.max_pending_submissions} limit"
                )
        if self.max_inflight_chunks is not None:
            depth = self._backlog()
            if depth >= self.max_inflight_chunks:
                return (
                    f"{depth} unfinished chunk(s) at the "
                    f"max_inflight_chunks={self.max_inflight_chunks} limit"
                )
        return None

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` payload: ok / degraded (saturated) / draining."""
        if self._draining:
            status = "draining"
        elif self._saturation_reason() is not None:
            status = "degraded"
        else:
            status = "ok"
        payload: Dict[str, object] = {
            "status": status,
            "queue_depth": self._backlog(),
            "active_submissions": len(self._live),
            "workers_alive": int(self.metrics.gauge("workers_alive").value),
        }
        if status != "ok":
            payload["retry_after"] = self.retry_after
        return payload

    def get(self, submission_id: str) -> SweepSubmission:
        """A live or retained submission; ``KeyError`` if unknown or evicted."""
        submission = self._live.get(submission_id) or self._finished.get(submission_id)
        if submission is None:
            raise KeyError(f"unknown submission {submission_id!r}")
        return submission

    def status(self, submission_id: str) -> Dict[str, object]:
        return self.get(submission_id).status_dict()

    def list_submissions(self) -> List[Dict[str, object]]:
        """Status of every retained submission: finished first, then live."""
        return [
            s.status_dict()
            for s in itertools.chain(self._finished.values(), self._live.values())
        ]

    def results(self, submission_id: str) -> List[MemoryExperimentResult]:
        submission = self.get(submission_id)
        if submission.state != STATE_DONE:
            raise RuntimeError(
                f"submission {submission_id} is {submission.state}, not done"
            )
        return submission.execution.results  # type: ignore[return-value]

    def cancel(self, submission_id: str) -> bool:
        """Cancel a submission; returns False if it already finished."""
        return self._retire(self.get(submission_id), STATE_CANCELLED)

    async def wait(self, submission_id: str, timeout: Optional[float] = None) -> str:
        """Block until the submission reaches a terminal state; returns it."""
        submission = self.get(submission_id)
        await asyncio.wait_for(submission.done_event.wait(), timeout)
        return submission.state

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _finish(self, submission: SweepSubmission) -> None:
        self._retire(submission, STATE_DONE)

    def _fail(self, submission: SweepSubmission, error: BaseException) -> None:
        self._retire(submission, STATE_FAILED, f"{type(error).__name__}: {error}")

    def _retire(
        self, submission: SweepSubmission, state: str, error: Optional[str] = None
    ) -> bool:
        """Move a live submission to ``state`` (terminal) and into retention.

        Returns False, changing nothing, if it is already terminal.  Evicts
        the oldest-finished submissions beyond :data:`MAX_FINISHED_SUBMISSIONS`.
        """
        if submission.state in TERMINAL_STATES:
            return False
        submission.state = state
        submission.error = error
        submission.finished = time.time()
        if state == STATE_DONE:
            elapsed = submission.finished - (submission.started or submission.created)
            submission.execution.finish(elapsed)
        submission.done_event.set()
        del self._live[submission.id]
        self._finished[submission.id] = submission
        event, counter = _TERMINAL_EVENTS[state]
        self._journal_event(event, submission)
        self.metrics.counter(counter).inc()
        if error is None:
            _log(event, submission.id, "in %.3f s", submission.finished - submission.created)
        else:
            _log(event, submission.id, "%s", error, level=logging.WARNING)
        while len(self._finished) > MAX_FINISHED_SUBMISSIONS:
            self._evict(next(iter(self._finished)))
        self._update_gauges()
        return True

    def _evict(self, submission_id: str) -> None:
        """Forget a finished submission and its idempotency key."""
        submission = self._finished.pop(submission_id)
        if submission.key and self._keys.get(submission.key) == submission_id:
            del self._keys[submission.key]
        self.metrics.counter("submissions_evicted").inc()
        _log("evicted", submission_id, "was %s", submission.state)

    def _update_gauges(self) -> None:
        states = [s.state for s in self._live.values()]
        self.metrics.gauge("jobs_queued").set(states.count(STATE_QUEUED))
        self.metrics.gauge("jobs_running").set(states.count(STATE_RUNNING))
        self.metrics.gauge("queue_depth").set(self._backlog())

    async def _pump(self) -> None:
        """One chunk-dispatch loop; ``workers`` of these run concurrently."""
        while True:
            submission, job_index, chunk, attempt = await self._queue.get()
            try:
                await self._run_chunk(submission, job_index, chunk, attempt)
            finally:
                self._queue.task_done()
                self._update_gauges()

    async def _run_chunk(
        self, submission: SweepSubmission, job_index: int, chunk: int, attempt: int
    ) -> None:
        if submission.state != STATE_RUNNING:
            return  # cancelled or failed while queued
        job = submission.plan.jobs[job_index]
        generation = self._pool_generation
        started = time.perf_counter()
        try:
            result, decoder_stats = await self._loop.run_in_executor(
                self._pool, execute_chunk_with_stats, job, chunk
            )
        except BrokenProcessPool as error:
            await self._restart_pool(generation)
            if attempt >= self.max_chunk_retries:
                self._fail(
                    submission,
                    RuntimeError(
                        f"chunk (job {job_index}, chunk {chunk}) still failing "
                        f"after {self.max_chunk_retries} worker-death retries: {error}"
                    ),
                )
                return
            self.metrics.counter("chunk_retries").inc()
            await asyncio.sleep(self.retry_backoff * (2 ** attempt))
            if submission.state == STATE_RUNNING:
                self._queue.put_nowait((submission, job_index, chunk, attempt + 1))
            return
        except asyncio.CancelledError:
            raise
        except Exception as error:  # a real simulation error: fail the sweep
            self._fail(submission, error)
            return
        self.metrics.histogram("chunk_latency_seconds").observe(
            time.perf_counter() - started
        )
        if decoder_stats:
            self.metrics.merge_counts(decoder_stats, prefix="decoder_")
        if submission.state != STATE_RUNNING:
            return
        async with submission.record_lock:
            await asyncio.to_thread(
                submission.execution.record_chunk, job_index, chunk, result
            )
            if submission.state == STATE_RUNNING:
                # Refill the frontier: one freshly-claimed chunk per recorded
                # chunk keeps the in-flight count constant until the stopping
                # rule (or plain completion) dries the claimable set up.
                for next_job, next_chunk in submission.execution.claim_tasks(1):
                    self._queue.put_nowait((submission, next_job, next_chunk, 0))
        if submission.execution.is_complete:
            self._finish(submission)

    async def _restart_pool(self, generation: int) -> None:
        """Replace a broken pool exactly once per breakage (generation guard)."""
        async with self._pool_lock:
            if self._pool is None or self._pool_generation != generation:
                return
            broken, self._pool = self._pool, self._make_pool()
            self._pool_generation += 1
            self.metrics.counter("worker_restarts").inc()
            broken.shutdown(wait=False, cancel_futures=True)

    async def _supervise(self) -> None:
        """Scan worker heartbeat files; publish liveness metrics."""
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            self._scan_heartbeats()
            self._update_gauges()

    def _scan_heartbeats(self) -> None:
        directory = self._heartbeat_dir
        if not directory:
            return
        alive = 0
        stale_before = time.time() - 4 * self.heartbeat_interval
        try:
            entries = os.listdir(directory)
        except OSError:
            return
        for name in entries:
            if not name.startswith("worker-"):
                continue
            path = os.path.join(directory, name)
            try:
                pid = int(name.split("-", 1)[1])
                mtime = os.path.getmtime(path)
            except (ValueError, OSError):
                continue
            if not pid_alive(pid):
                # The worker died without unwinding (SIGKILL/OOM); its last
                # heartbeat outlives it, so reap the file and count the death.
                try:
                    os.unlink(path)
                except OSError:
                    pass
                self.metrics.counter("worker_deaths_detected").inc()
            elif mtime >= stale_before:
                alive += 1
        self.metrics.gauge("workers_alive").set(alive)
