"""Sweep execution backends: serial, multiprocess, cached, resumable.

The :class:`SweepExecutor` turns a :class:`~repro.experiments.jobs.SweepPlan`
into results.  Work is scheduled at *chunk* granularity — every job is split
into fixed-size shot chunks with independent, order-insensitive random
streams — so a pool stays saturated even when the sweep mixes one expensive
configuration with many cheap ones, and the serial backend (``jobs=1``)
produces bit-identical statistics by running exactly the same chunks through
exactly the same merge.

When a cache directory is configured, finished jobs are persisted to a
content-addressed :class:`~repro.experiments.store.ResultStore` and looked up
before any Monte-Carlo work is scheduled.  A rerun of the same sweep (same
configurations, same seed) therefore performs zero simulation, and a sweep
interrupted part-way resumes from the jobs already on disk.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.adaptive import AdaptiveConfig, apply_adaptive, job_adaptive_config
from repro.experiments.jobs import SweepJob, SweepPlan, merge_chunk_results
from repro.experiments.metrics import MetricsRegistry
from repro.experiments.results import MemoryExperimentResult
from repro.experiments.store import ResultStore, config_hash, default_cache_dir


def _execute_chunk(job: SweepJob, index: int) -> MemoryExperimentResult:
    """Worker entry point (module-level so it pickles under every backend)."""
    return job.run_chunk(index)


class _InlineExecutor(Executor):
    """The serial backend: runs each submitted call at once, in this process."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as error:
            future.set_exception(error)
        return future


def execute_chunk_with_stats(
    job: SweepJob, index: int
) -> Tuple[MemoryExperimentResult, Optional[Dict[str, int]]]:
    """Worker entry point that also surfaces the decoder's dispatch counters.

    The sweep service uses this variant so its telemetry layer can merge
    every worker's :class:`~repro.decoder.decoder.DecoderStats` (cache/LRU
    hits, table builds) into the shared
    :class:`~repro.experiments.metrics.MetricsRegistry`.
    """
    shots = job.chunk_sizes()[index]
    rng = np.random.default_rng(job.chunk_seed(index))
    experiment = job.build_experiment(rng)
    result = experiment.run(shots)
    decoder_stats = (
        experiment.decoder.stats.as_dict() if experiment.decoder is not None else None
    )
    return result, decoder_stats


def warn_unseeded_cache(seed, cache_dir, resume: bool) -> None:
    """Warn when caching can never produce a hit across invocations.

    An unseeded plan draws fresh OS entropy every build, and a live
    ``Generator`` contributes a fresh draw from its stream; either way the
    derived entropy is part of each job's content address, so
    ``cache_dir``/``resume`` writes entries that no later invocation can
    reuse.  Only an explicit integer seed gives stable cache addresses.
    """
    if (cache_dir or resume) and (
        seed is None or isinstance(seed, np.random.Generator)
    ):
        warnings.warn(
            "sweep caching/resume without an explicit integer seed: every "
            "invocation derives fresh entropy, so cached results can never "
            "be reused across runs — pass a fixed seed to make the cache "
            "effective",
            UserWarning,
            stacklevel=3,
        )


#: :class:`SweepStats` counters whose metrics-registry name differs from
#: the field name (every other counter is published under its field name).
REGISTRY_NAMES = {
    "cache_hits": "sweep_jobs_cached",
    "chunks_run": "chunks_executed",
    "jobs_completed": "sweep_jobs_completed",
}


def _counter():
    """A :class:`SweepStats` field counted through :meth:`PlanExecution._count`."""
    return field(default=0, metadata={"counter": True})


@dataclass
class SweepStats:
    """What the last :meth:`SweepExecutor.run` actually did.

    The execution's only counter record; an attached metrics registry
    mirrors every counter field (:meth:`counter_names`).  Counters only grow.
    """

    jobs_total: int = 0
    #: Jobs served from the result store (a warm adaptive prefix included).
    cache_hits: int = _counter()
    jobs_run: int = 0
    #: Chunks executed, stragglers past a stop point included.
    chunks_run: int = _counter()
    elapsed_seconds: float = 0.0
    #: Chunks reused from the crash-recovery spill store instead of being
    #: re-executed (service restarts only; ``0`` everywhere else).
    chunks_recovered: int = _counter()
    #: Shots the sequential stopping rule skipped: the difference between
    #: each adaptively-stopped job's planned budget and the shots it
    #: actually needed to hit its Wilson-interval target.
    shots_saved: int = _counter()
    #: Jobs the stopping rule finalised before their full shot budget ran.
    jobs_stopped_early: int = _counter()
    #: Chunks of cached jobs (or of a cached adaptive prefix).
    chunks_cached: int = _counter()
    #: Chunks past an adaptive stop point, counted when the job stops.
    chunks_skipped: int = _counter()
    #: Executed or recovered chunks past a stop point, dropped unmerged.
    chunks_discarded: int = _counter()
    #: Jobs merged and persisted by this execution (cache hits excluded).
    jobs_completed: int = _counter()

    @classmethod
    def counter_names(cls) -> Dict[str, str]:
        """Each counter field mapped to its metrics-registry name."""
        return {
            item.name: REGISTRY_NAMES.get(item.name, item.name)
            for item in fields(cls)
            if item.metadata.get("counter")
        }

    def merge(self, other: "SweepStats") -> "SweepStats":
        """Accumulate another run's statistics into this one (returns self)."""
        for item in fields(self):
            setattr(self, item.name, getattr(self, item.name) + getattr(other, item.name))
        return self

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (used by the report's ``run_stats.json``)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepStats":
        """Rebuild stats from :meth:`to_dict` (the service wire format);
        missing keys read as defaults, unknown keys are ignored."""
        return cls(
            **{
                item.name: type(item.default)(payload.get(item.name, item.default))
                for item in fields(cls)
            }
        )

    def summary(self) -> str:
        text = (
            f"{self.jobs_total} job(s): {self.cache_hits} cached, "
            f"{self.jobs_run} executed ({self.chunks_run} chunk(s)) "
            f"in {self.elapsed_seconds:.2f}s"
        )
        if self.chunks_recovered:
            text += f", {self.chunks_recovered} chunk(s) recovered"
        if self.jobs_stopped_early:
            text += (
                f", {self.jobs_stopped_early} job(s) stopped early "
                f"({self.shots_saved} shot(s) saved)"
            )
        return text


class PlanExecution:
    """Chunk-granular bookkeeping for one plan — the shared execution core.

    Both sweep backends drive this object: the in-process
    :class:`SweepExecutor` feeds it chunk results from the calling process
    or a ``ProcessPoolExecutor``, and the service scheduler
    (:mod:`repro.service.scheduler`) feeds it from its supervised worker
    pool.  Construction performs the cache lookup (cached jobs never produce
    claimable chunks); :meth:`record_chunk` merges and persists each job the
    moment its last chunk lands, which is what makes interrupted sweeps
    resumable at job granularity.  Because chunk random streams are position-keyed
    (Section 6 seed discipline, see :mod:`repro.experiments.jobs`), the
    merged statistics are bit-identical no matter which backend, worker
    interleaving, or crash/retry history produced the chunks.

    :attr:`stats` is the execution's only counter record.  Every count goes
    through :meth:`_count`, which also mirrors it into a supplied
    :class:`~repro.experiments.metrics.MetricsRegistry` under the field's
    registry name (:data:`REGISTRY_NAMES`), so a live telemetry snapshot
    reconciles exactly with :attr:`stats`.  Counters only grow, and
    :attr:`chunks_done` is ``chunks_run + chunks_cached + chunks_recovered
    + chunks_skipped - chunks_discarded``, which reaches the plan's total
    chunk count when the plan finishes: a job stopped early counts every
    chunk past its stop point as skipped, and a straggler chunk that lands
    past it counts as executed (or recovered) *and* discarded.

    When a ``chunk_store`` is supplied (the sweep service's journal-backed
    crash-recovery mode), every executed chunk except a job's last is also
    spilled to it under a chunk-granular content address, and construction
    reloads any spilled chunks for still-pending jobs.  A service killed
    mid-job therefore resumes without re-executing the chunks that already
    landed — and because chunk streams are position-keyed, the recovered
    statistics are bit-identical to an uninterrupted run.  Spilled entries
    are deleted the moment their job's merged result persists.

    **The chunk frontier.**  Work leaves this object only through
    :meth:`claim_tasks`, and every backend runs the same loop: claim up to
    its width, execute, :meth:`record_chunk` each result as it lands,
    refill.  The claim order is derived from the plan: job-major while no
    unfinished job carries a stopping target (so each job completes, and
    persists, before the next starts), round-robin across unfinished jobs
    otherwise.

    **Stopping rule.**  Jobs carrying a Wilson-interval target
    (:func:`~repro.experiments.adaptive.job_adaptive_config`) stop
    sequentially: after every recorded chunk the rule looks for the
    smallest prefix length ``L >= min_chunks`` whose cumulative Wilson
    half-width meets the job's target.  When one exists the job finalises
    early: chunks ``0..L-1`` merge in a single :func:`merge_chunk_results`
    call (bit-identical to a fixed run of ``L * chunk_shots`` shots, by the
    position-keyed seed discipline) and the result persists under the
    *prefix job's* cache key (``replace(job, shots=L * chunk_shots)``), so a
    later fixed run of that prefix — or a warm adaptive rerun, which probes
    prefix keys during construction — is a pure cache hit.  The stop point
    depends only on the chunk statistics, never on arrival order or worker
    count; straggler chunks past the stop point are discarded on arrival.
    """

    def __init__(
        self,
        plan: SweepPlan,
        store: Optional[ResultStore] = None,
        metrics: Optional[MetricsRegistry] = None,
        chunk_store: Optional[ResultStore] = None,
    ) -> None:
        self.plan = plan
        self.store = store
        self.metrics = metrics
        self.chunk_store = chunk_store
        self.stats = SweepStats(jobs_total=len(plan.jobs))
        self.results: List[Optional[MemoryExperimentResult]] = [None] * len(plan.jobs)
        self.pending: List[int] = []
        self._chunk_results: Dict[Tuple[int, int], MemoryExperimentResult] = {}
        self._remaining: Dict[int, int] = {}
        self._adaptive: Dict[int, AdaptiveConfig] = {}
        self._merge_base: Dict[int, MemoryExperimentResult] = {}
        self._base_chunks: Dict[int, int] = {}
        self._next_chunk: Dict[int, int] = {}
        self._rr_cursor = 0
        for index, job in enumerate(plan.jobs):
            config = job_adaptive_config(job) if job.decode else None
            if config is not None:
                self._adaptive[index] = config
            cached = store.load(job.cache_key()) if store is not None else None
            if cached is not None:
                self.results[index] = cached
                self._count("cache_hits")
                self._count("chunks_cached", job.num_chunks)
                continue
            if config is not None and store is not None:
                prefix, length = self._probe_adaptive_prefix(job)
                if (
                    prefix is not None
                    and length >= config.min_chunks
                    and config.satisfied(prefix.logical_errors, prefix.shots)
                ):
                    # A previous adaptive run already stopped this job at
                    # ``length`` chunks and its interval still meets the
                    # target: a warm rerun is a pure cache hit.
                    self.results[index] = prefix
                    self._count("cache_hits")
                    self._count("shots_saved", job.shots - prefix.shots)
                    self._count("chunks_cached", length)
                    self._count("chunks_skipped", job.num_chunks - length)
                    continue
                if prefix is not None:
                    # Cached prefix exists but no longer meets the (tighter)
                    # target: reuse it as the merge base and only simulate
                    # the chunks beyond it.  Counts are exact; merged LPR
                    # float means may differ from an uninterrupted run by
                    # final-rounding only.
                    self._merge_base[index] = prefix
                    self._base_chunks[index] = length
                    self._count("chunks_cached", length)
                    self.pending.append(index)
                    self._remaining[index] = job.num_chunks - length
                    self._next_chunk[index] = length
                    continue
            self.pending.append(index)
            self._remaining[index] = job.num_chunks
        self.stats.jobs_run = len(self.pending)
        if chunk_store is not None:
            self._recover_spilled_chunks()

    def _count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the :attr:`stats` counter ``name`` and its
        registry mirror."""
        setattr(self.stats, name, getattr(self.stats, name) + amount)
        if self.metrics is not None:
            self.metrics.counter(REGISTRY_NAMES.get(name, name)).inc(amount)

    def _probe_adaptive_prefix(
        self, job: SweepJob
    ) -> Tuple[Optional[MemoryExperimentResult], int]:
        """Longest cached *prefix* of an adaptive job (result, chunk count).

        An earlier adaptive run that stopped ``job`` at ``L`` chunks saved
        its merged result under the key of the fixed job of
        ``L * chunk_shots`` shots (see :meth:`_finalize`).  That key's config
        differs from the job's own only in ``shots``, so every candidate key
        comes from one :meth:`SweepJob.config_dict`.
        Returns ``(None, 0)`` when no prefix is cached.
        """
        assert self.store is not None
        config = job.config_dict()
        for length in range(job.num_chunks - 1, 0, -1):
            config["shots"] = length * job.chunk_shots
            cached = self.store.load(config_hash(config))
            if cached is not None:
                return cached, length
        return None, 0

    # ------------------------------------------------------------------
    def _chunk_key(self, job_index: int, chunk: int) -> str:
        """Content address of one chunk's spilled result.

        Derived from the owning job's full configuration (which already
        embeds the plan entropy and the job's spawn key) plus the chunk
        index, so a spilled chunk can only ever be recovered by the exact
        chunk of the exact job that produced it.
        """
        return config_hash(
            {"chunk": chunk, "chunk_of": self.plan.jobs[job_index].config_dict()}
        )

    def _recover_spilled_chunks(self) -> None:
        """Reload chunks spilled by a previous (crashed) service process."""
        assert self.chunk_store is not None
        for job_index in list(self.pending):
            for chunk in range(self.plan.jobs[job_index].num_chunks):
                spilled = self.chunk_store.load(self._chunk_key(job_index, chunk))
                if spilled is not None:
                    self.record_chunk(job_index, chunk, spilled, recovered=True)

    def claim_tasks(self, limit: int = 1) -> List[Tuple[int, int]]:
        """Claim up to ``limit`` chunks for execution.

        Chunk indices are handed out incrementally.  While no unfinished job
        has a stopping target the order is job-major: each job's chunks go
        out before the next job's, so a serial sweep persists job by job and
        an interrupted one resumes per job.  Otherwise the order is
        round-robin across unfinished jobs, so the shot budget flows to the
        jobs whose confidence intervals are still loose: a job that
        finalises early simply stops being claimable and the worker slots
        it would have occupied drain to the remaining jobs.  Chunks already
        recorded (recovered spills, duplicate retries) are skipped.
        """
        claimed: List[Tuple[int, int]] = []
        active = [index for index in self.pending if self.results[index] is None]
        if limit <= 0 or not active:
            return claimed
        round_robin = any(index in self._adaptive for index in active)
        if round_robin:
            start = self._rr_cursor % len(active)
            active = active[start:] + active[:start]
        per_job = 1 if round_robin else limit
        progressed = True
        while len(claimed) < limit and progressed:
            progressed = False
            for job_index in active:
                for _ in range(min(per_job, limit - len(claimed))):
                    chunk = self._next_unclaimed(job_index)
                    if chunk is None:
                        break
                    claimed.append((job_index, chunk))
                    progressed = True
        self._rr_cursor += len(claimed)
        return claimed

    def _next_unclaimed(self, job_index: int) -> Optional[int]:
        """Advance ``job_index``'s claim cursor; ``None`` once it is exhausted."""
        num_chunks = self.plan.jobs[job_index].num_chunks
        chunk = self._next_chunk.get(job_index, 0)
        while chunk < num_chunks and (job_index, chunk) in self._chunk_results:
            chunk += 1
        if chunk >= num_chunks:
            self._next_chunk[job_index] = chunk
            return None
        self._next_chunk[job_index] = chunk + 1
        return chunk

    @property
    def is_complete(self) -> bool:
        return all(result is not None for result in self.results)

    @property
    def jobs_done(self) -> int:
        return sum(1 for result in self.results if result is not None)

    @property
    def chunks_done(self) -> int:
        """Chunks accounted for so far (cached jobs count all their chunks).

        Chunks the stopping rule skipped count as done — an early-stopped
        job is finished, and progress displays should reach 100%.
        Discarded stragglers are subtracted: their slots already count as
        skipped.
        """
        stats = self.stats
        return (
            stats.chunks_run
            + stats.chunks_cached
            + stats.chunks_recovered
            + stats.chunks_skipped
            - stats.chunks_discarded
        )

    @property
    def chunks_left(self) -> int:
        """Planned chunks not yet accounted for: the plan's unfinished backlog."""
        return self.plan.total_chunks - self.chunks_done

    def record_chunk(
        self,
        job_index: int,
        chunk: int,
        result: MemoryExperimentResult,
        recovered: bool = False,
    ) -> bool:
        """Account one executed chunk; returns True when its job completed.

        On job completion the chunks merge in fixed chunk order (so the
        arithmetic is backend-independent) and the merged result persists to
        the store immediately — a sweep killed later loses only unfinished
        jobs.  Duplicate deliveries of a chunk (a retried worker whose first
        attempt actually finished) are harmless: the rerun is bit-identical
        by seed discipline, and the chunk is only counted once.

        ``recovered=True`` marks a chunk reloaded from the crash-recovery
        spill store rather than freshly executed: it counts toward
        ``chunks_recovered`` instead of ``chunks_run``/``chunks_executed``.
        When a ``chunk_store`` is configured, every freshly-executed chunk
        except the job's last is spilled to it so a crash between job
        completions loses nothing already simulated.  (Adaptive jobs spill
        *every* chunk — the stop point isn't known in advance, so any chunk
        may turn out to be the last.)

        A chunk arriving after its job already finalised (an in-flight
        straggler past an early stop point) is counted as executed (or
        recovered) and as discarded — the stopping rule's result depends
        only on the prefix.
        """
        if self.results[job_index] is not None or job_index not in self._remaining:
            self._count("chunks_recovered" if recovered else "chunks_run")
            self._count("chunks_discarded")
            return False
        duplicate = (job_index, chunk) in self._chunk_results
        self._chunk_results[(job_index, chunk)] = result
        if duplicate:
            return False
        self._count("chunks_recovered" if recovered else "chunks_run")
        if not recovered and self.chunk_store is not None and (
            self._remaining[job_index] > 1 or job_index in self._adaptive
        ):
            self.chunk_store.save(self._chunk_key(job_index, chunk), result)
        self._remaining[job_index] -= 1
        if job_index in self._adaptive and self._maybe_finalize_early(job_index):
            return True
        if self._remaining[job_index] > 0:
            return False
        self._finalize(job_index, self.plan.jobs[job_index].num_chunks)
        return True

    def _finalize(self, job_index: int, length: int) -> None:
        """Merge a job's first ``length`` chunks, persist it and mark it done.

        The parts (the cached merge base, if any, then the recorded chunks)
        merge in chunk order in one :func:`merge_chunk_results` call.  A full
        job saves under its own cache key.  A job the stopping rule ended
        early (``length < num_chunks``) saves under the key of the equivalent
        *fixed* job, ``replace(job, shots=length * chunk_shots)``: by the
        position-keyed seed discipline that job runs exactly these chunks,
        so the truncated result is bit-identical to it and either run's
        cache entry serves the other.
        """
        job = self.plan.jobs[job_index]
        parts = [self._merge_base.pop(job_index)] if job_index in self._merge_base else []
        parts.extend(
            self._chunk_results.pop((job_index, chunk))
            for chunk in range(self._base_chunks.pop(job_index, 0), length)
        )
        merged = merge_chunk_results(parts)
        early = length < job.num_chunks
        saved = replace(job, shots=length * job.chunk_shots) if early else job
        if self.store is not None:
            self.store.save(saved.cache_key(), merged, config=saved.config_dict())
        self.results[job_index] = merged
        del self._remaining[job_index]
        self._count("jobs_completed")
        if early:
            # Every chunk past the stop point counts as skipped; those
            # already executed out of order are dropped here as discarded.
            self._count("chunks_skipped", job.num_chunks - length)
            self._count(
                "chunks_discarded",
                sum(
                    self._chunk_results.pop((job_index, chunk), None) is not None
                    for chunk in range(length, job.num_chunks)
                ),
            )
            self._count("shots_saved", job.shots - saved.shots)
            self._count("jobs_stopped_early")
        if self.chunk_store is not None:
            for spilled_chunk in range(job.num_chunks):
                self.chunk_store.remove(self._chunk_key(job_index, spilled_chunk))

    # -- adaptive stopping rule ----------------------------------------
    def _maybe_finalize_early(self, job_index: int) -> bool:
        """Apply the sequential stopping rule to ``job_index``.

        Scans prefix lengths over the *contiguous* recorded prefix and
        finalises at the smallest ``L >= min_chunks`` whose cumulative
        Wilson half-width meets the job's target.  Because the scan always
        walks lengths in ascending order over whatever prefix is contiguous
        so far, the chosen stop point is a pure function of the chunk
        statistics — independent of chunk arrival order and worker count.
        Returns True when the job finalised.
        """
        config = self._adaptive[job_index]
        job = self.plan.jobs[job_index]
        base = self._merge_base.get(job_index)
        cum_errors = max(base.logical_errors, 0) if base is not None else 0
        cum_shots = base.shots if base is not None else 0
        length = self._base_chunks.get(job_index, 0)
        stop = False
        while not stop and (job_index, length) in self._chunk_results:
            part = self._chunk_results[(job_index, length)]
            cum_errors += max(part.logical_errors, 0)
            cum_shots += part.shots
            length += 1
            if length >= job.num_chunks:
                break  # full job: the normal completion merge handles it
            stop = length >= config.min_chunks and config.satisfied(cum_errors, cum_shots)
        if self.metrics is not None and cum_shots > 0:
            self.metrics.gauge(f"ler_ci_halfwidth_job{job_index}").set(
                config.halfwidth(cum_errors, cum_shots)
            )
        if stop:
            self._finalize(job_index, length)
        return stop

    def finish(self, elapsed_seconds: float) -> SweepStats:
        """Stamp the elapsed time and return the final statistics."""
        self.stats.elapsed_seconds = elapsed_seconds
        return self.stats


class SweepExecutor:
    """Runs sweep plans serially or across a process pool, with caching.

    Args:
        jobs: Worker processes.  ``1`` (default) runs in-process; ``N > 1``
            fans chunks out over a :class:`~concurrent.futures.ProcessPoolExecutor`
            of at most ``N`` workers, never more than there are pending
            chunks.  Both backends yield identical statistics for the same
            plan.
        cache_dir: Directory for the content-addressed result store.  When
            set, completed jobs are saved there and future runs reuse them.
        resume: Reuse (and keep extending) the default cache directory when
            ``cache_dir`` is not given — the switch that lets an interrupted
            invocation pick up where it left off.
        store: Pre-built :class:`ResultStore` (overrides ``cache_dir``).
        metrics: Optional :class:`~repro.experiments.metrics.MetricsRegistry`
            mirroring every :class:`SweepStats` counter (chunk, cache and
            stopping-rule traffic).  Per-chunk latency is observed only by
            the sweep service's scheduler, not here.
        adaptive: Optional :class:`~repro.experiments.adaptive.AdaptiveConfig`
            applied to every decode job in the plan (jobs carrying their own
            targets keep them).  Enables the sequential stopping rule: each
            job runs only until the Wilson interval on its logical error
            rate is tighter than the target, and the shot budget drains to
            the jobs whose intervals are still loose.  Perf-only: job cache
            identity is unchanged, and an early-stopped job's result is
            bit-identical to a fixed run of the prefix it executed.

    After :meth:`run`, :attr:`last_stats` reports cache hits and the number of
    chunks actually simulated (``0`` on a fully-cached rerun).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        resume: bool = False,
        store: Optional[ResultStore] = None,
        metrics: Optional[MetricsRegistry] = None,
        adaptive: Optional[AdaptiveConfig] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = int(jobs)
        if store is None:
            root = cache_dir if cache_dir else (default_cache_dir() if resume else None)
            store = ResultStore(root) if root else None
        self.store = store
        self.metrics = metrics
        self.adaptive = adaptive
        self.last_stats = SweepStats()

    # ------------------------------------------------------------------
    def run_job(self, job: SweepJob) -> MemoryExperimentResult:
        """Convenience wrapper: run a single job through the full machinery."""
        return self.run(SweepPlan([job]))[0]

    def run(self, plan: SweepPlan) -> List[MemoryExperimentResult]:
        """Execute ``plan`` and return results in plan order."""
        started = time.perf_counter()
        plan = apply_adaptive(plan, self.adaptive)
        execution = PlanExecution(plan, store=self.store, metrics=self.metrics)

        # The one dispatch loop: keep ``width`` chunks in flight, record each
        # result as it lands, refill from the frontier.  Serial is width 1
        # on an in-process executor.  In a pool, up to ``width - 1``
        # straggler chunks past a stop point may execute and be discarded;
        # the recorded statistics do not depend on arrival order.
        width = min(self.jobs, execution.chunks_left)
        backend = ProcessPoolExecutor(max_workers=width) if width > 1 else _InlineExecutor()
        with backend:
            in_flight: Dict[Future, Tuple[int, int]] = {}
            while True:
                for job_index, chunk in execution.claim_tasks(width - len(in_flight)):
                    future = backend.submit(_execute_chunk, plan.jobs[job_index], chunk)
                    in_flight[future] = (job_index, chunk)
                if not in_flight:
                    break
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    execution.record_chunk(*in_flight.pop(future), future.result())

        self.last_stats = execution.finish(time.perf_counter() - started)
        return execution.results  # type: ignore[return-value]
