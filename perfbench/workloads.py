"""The four benchmark workloads, driven through the program's public entry points.

Each workload is a closed loop with one caller.  A *pass* is one unit of
timed work on inputs derived from a pass seed: the benchmark repeats passes
until its run time is used up.  Every knob of the program is left at its
default, so the benchmark measures the path users get; only the grid, shot
counts and stopping target below are chosen here.

- ``fig14-grid``: Fig. 14's grid (d = 3..9 x {always-lrc, eraser}, p = 1e-3,
  10 cycles) through a serial ``SweepExecutor`` over an in-memory store.
  Decoder-bound.
- ``low-p-adaptive``: d = 3..7 x {always-lrc, eraser} at p = 1e-4 with a
  Wilson-interval stopping target.  Simulator-bound; drives the adaptive
  chunk frontier.
- ``report-quick``: ``ReportBuilder`` at ``--quick`` settings, cold into a
  fresh on-disk cache, then warm from it.  Set-up-bound (per-chunk set-up,
  decoding-graph builds, store writes/reads, density-matrix study).
- ``service-loop``: submit -> wait -> results against a live
  ``SweepService`` over HTTP, fresh submissions then cached resubmissions.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import random
import shutil
import statistics
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.experiments import EXPERIMENTS, SweepExecutor, SweepPlan
from repro.experiments.adaptive import AdaptiveConfig
from repro.experiments.store import DEFAULT_SERVICE_SHARDS, InMemoryResultStore, ResultStore
from repro.report import QUICK_MAX_DISTANCE, QUICK_SHOTS, ReportBuilder
from repro.service import SubmissionJournal, SweepScheduler, SweepService, SweepServiceClient

from layers import percentile
from speed import stopwatch
from tracer import Tracer, paused


def sub_seed(*parts: int) -> int:
    """A derived seed: the same parts always give the same value."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint32)[0])


def digest(results) -> str:
    """Content hash of a list of results (bit-identity checks)."""
    hasher = hashlib.sha256()
    for result in results:
        scalars, arrays = result.to_state()
        hasher.update(json.dumps(scalars, sort_keys=True).encode("utf-8"))
        for key in sorted(arrays):
            hasher.update(np.ascontiguousarray(arrays[key]).tobytes())
    return hasher.hexdigest()[:16]


def clear_graph_caches() -> None:
    """Drop process-wide decoding graphs so every pass pays its own builds."""
    from repro.decoder import graph

    clear = getattr(graph, "clear_shared_graphs", None)
    if clear is not None:
        clear()


@dataclass
class PassResult:
    """What one pass measured and verified."""

    #: Latencies of the cold operation(s): the grid sweep, the time to
    #: solution, the cold report build, or each fresh submission.
    fresh: List[float]
    #: Latencies of the warm operation(s) served from the result cache.
    warm: List[float]
    #: Per latency, the factor taking it to the reference CPU speed.
    fresh_scale: List[float]
    warm_scale: List[float]
    #: Shots the cold operation(s) simulated.
    shots: int
    #: Seconds of timed work in the pass, warm blocks included.
    busy: float
    digest: str
    attempted: int
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Workload-specific per-layer values (adaptive, service).
    layer: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    #: End-to-end metrics dominated by CPU work, reported at the reference
    #: CPU speed (see ``speed.py``).
    cpu_bound = ("setup_s", "wall_s", "warm_wall_s", "shots_per_s")
    #: Run on one CPU, so the speed sampler measures the CPU doing the work.
    pin_cpu = True

    def __init__(self, workdir: Path, tracer: Optional[Tracer] = None) -> None:
        self.workdir = workdir
        self.tracer = tracer

    def params(self) -> Dict[str, object]:
        return {}

    def setup(self, seed: int, replicas: int = 1) -> None:
        """Everything before the first timed operation (what ``setup_s`` times)."""

    def run_pass(self, seed: int, replica: int = 0) -> PassResult:
        raise NotImplementedError

    def planned_ops(self, seed: int) -> int:
        """Operations a pass attempts, charged as failed when it raises."""
        return 1

    def trace_summary(self, untraced: List[PassResult]) -> Dict[str, float]:
        """Run-level per-layer values computed once after the traced passes."""
        return {}

    def close(self) -> None:
        pass


class SweepWorkload(Workload):
    """A grid sweep through a serial ``SweepExecutor`` plus warm reruns."""

    distances = (3, 5, 7, 9)
    policies = ("always-lrc", "eraser")
    cycles = 10
    p = 1e-3
    shots = 32
    #: Seconds of warm reruns per pass, timed as one block: a single rerun
    #: takes well under 10 ms, too short to time steadily.
    warm_seconds = 1.0

    def params(self) -> Dict[str, object]:
        return {"distances": list(self.distances), "policies": list(self.policies),
                "cycles": self.cycles, "p": self.p, "shots_per_job": self.shots}

    def plan(self, seed: int) -> SweepPlan:
        return SweepPlan.build(
            [dict(distance=d, policy=policy, shots=self.shots, cycles=self.cycles, p=self.p)
             for d in self.distances for policy in self.policies],
            seed=seed,
        )

    def make_executor(self) -> SweepExecutor:
        return SweepExecutor(store=InMemoryResultStore())

    def setup(self, seed: int, replicas: int = 1) -> None:
        self.plan(sub_seed(seed, 0))

    def planned_ops(self, seed: int) -> int:
        return self.plan(seed).total_chunks

    def run_pass(self, seed: int, replica: int = 0) -> PassResult:
        plan = self.plan(seed)
        clear_graph_caches()
        executor = self.make_executor()
        watch = stopwatch()
        results = executor.run(plan)
        wall, wall_scale = watch.read()
        cold = executor.last_stats
        watch, reps = stopwatch(), 0
        while not reps or watch.elapsed() < self.warm_seconds:
            again = executor.run(plan)
            reps += 1
        warm, warm_scale = watch.read()
        rerun = executor.last_stats
        checks = {
            "warm rerun is all cache hits": rerun.cache_hits == len(plan) and rerun.chunks_run == 0,
            "warm rerun is bit-identical": digest(again) == digest(results),
        }
        checks.update(self.check(plan, results, cold))
        return PassResult(
            fresh=[wall], warm=[warm / reps], fresh_scale=[wall_scale], warm_scale=[warm_scale],
            shots=sum(r.shots for r in results), busy=wall + warm, digest=digest(results),
            attempted=cold.chunks_run, checks=checks, layer=self.layer(plan, results, cold),
        )

    def check(self, plan, results, stats) -> Dict[str, bool]:
        return {}

    def layer(self, plan, results, stats) -> Dict[str, float]:
        return {}


class Fig14Grid(SweepWorkload):
    name = "fig14-grid"
    why = ("Fig. 14 grid d=3-9 x {always-lrc, eraser}, p=1e-3: decoder-bound "
           "(match, per-shot Dijkstra at d=9); moves shots_per_s and wall_s")
    #: Shots per d >= 7 job re-decoded by exact matching for ``ler_excess``.
    excess_shots = 16

    def __init__(self, workdir: Path, tracer: Optional[Tracer] = None) -> None:
        super().__init__(workdir, tracer)
        self.captured: List[tuple] = []
        self._capturing = False
        if tracer is not None:
            tracer.observe("decoder.dispatch", self._capture)

    def _capture(self, args, errors) -> None:
        """Keep the first shots of every d >= 7 decode for ``ler_excess``."""
        decoder, histories, final_bits = args[:3]
        if self._capturing and decoder.code.distance >= 7:
            n = self.excess_shots
            self.captured.append((decoder.code, decoder.num_rounds, np.array(histories[:n]),
                                  np.array(final_bits[:n]), np.array(errors[:n])))

    def run_pass(self, seed: int, replica: int = 0) -> PassResult:
        self._capturing = replica == 1 and not self.captured
        try:
            return super().run_pass(seed, replica)
        finally:
            self._capturing = False

    def check(self, plan, results, stats) -> Dict[str, bool]:
        lrcs = {(job.distance, job.policy): r.lrcs_per_round for job, r in zip(plan, results)}
        return {
            "every job ran its planned shots": all(r.shots == job.shots for job, r in zip(plan, results)),
            "eraser LRCs/round < always-lrc at every d": all(
                lrcs[(d, "eraser")] < lrcs[(d, "always-lrc")] for d in self.distances
            ),
        }

    def trace_summary(self, untraced: List[PassResult]) -> Dict[str, float]:
        """``ler_excess``: default-decoder failures minus exact-MWPM failures."""
        from repro.decoder.decoder import SurfaceCodeDecoder

        default_failures = exact_failures = shots = 0
        for code, rounds, histories, final_bits, errors in self.captured:
            exact = SurfaceCodeDecoder(code=code, num_rounds=rounds, method="mwpm")
            exact_failures += int(np.count_nonzero(exact.decode_batch(histories, final_bits)))
            default_failures += int(np.count_nonzero(errors))
            shots += len(errors)
        self.excess_sample = (default_failures, exact_failures, shots)
        return {"ler_excess": (default_failures - exact_failures) / shots if shots else 0.0}


class LowPAdaptive(SweepWorkload):
    name = "low-p-adaptive"
    why = ("d=3-7 x {always-lrc, eraser} at p=1e-4 with a Wilson stopping target: "
           "simulator-bound, adaptive chunk frontier; a decoder gain should not move it")
    distances = (3, 5, 7)
    p = 1e-4
    #: Shot budget per job (16 default-size chunks).
    shots = 4096
    #: Wilson half-width target on each job's LER: the one the registry's
    #: ``ler-low-p-adaptive`` entry uses.  Every job meets it at the minimum
    #: of two chunks, so a pass does the same work whatever the seed.
    target = 2.5e-2

    def params(self) -> Dict[str, object]:
        return {**super().params(), "target_ci_halfwidth": self.target}

    def config(self) -> AdaptiveConfig:
        return AdaptiveConfig(target_ci_halfwidth=self.target)

    def make_executor(self) -> SweepExecutor:
        return SweepExecutor(store=InMemoryResultStore(), adaptive=self.config())

    def planned_ops(self, seed: int) -> int:
        return len(self.plan(seed))

    def _used_chunks(self, job, result) -> int:
        return math.ceil(result.shots / job.chunk_shots)

    def check(self, plan, results, stats) -> Dict[str, bool]:
        config = self.config()
        used = sum(self._used_chunks(job, r) for job, r in zip(plan, results))
        skipped = plan.total_chunks - used
        cached = 0  # a fresh store serves nothing
        return {
            "every job met its target or used its budget": all(
                config.satisfied(r.logical_errors, r.shots) or r.shots == job.shots
                for job, r in zip(plan, results)
            ),
            "executed + cached + skipped chunks == planned chunks":
                stats.chunks_run == used and stats.chunks_run + cached + skipped == plan.total_chunks,
            "jobs stopped early are the ones under budget":
                stats.jobs_stopped_early == sum(r.shots < job.shots for job, r in zip(plan, results)),
        }

    def layer(self, plan, results, stats) -> Dict[str, float]:
        used = sum(self._used_chunks(job, r) for job, r in zip(plan, results))
        return {
            "adaptive.shots_executed": sum(r.shots for r in results),
            "adaptive.chunks_executed": stats.chunks_run,
            "adaptive.chunks_skipped": plan.total_chunks - stats.chunks_run,
            "adaptive.jobs_stopped_early": stats.jobs_stopped_early,
            "adaptive.useful_chunk_frac": used / stats.chunks_run if stats.chunks_run else 0.0,
        }


class ReportQuick(Workload):
    name = "report-quick"
    why = ("report --quick (40 shots, d<=3, figures off) cold into a fresh disk cache, "
           "then warm: chunk set-up, graph builds, store I/O and densitymatrix")

    def params(self) -> Dict[str, object]:
        return {"shots": QUICK_SHOTS, "max_distance": QUICK_MAX_DISTANCE, "figures": False}

    def builder(self, output_dir: Path, cache_dir: Path, seed: int) -> ReportBuilder:
        return ReportBuilder(output_dir=str(output_dir), shots=QUICK_SHOTS,
                             max_distance=QUICK_MAX_DISTANCE, seed=seed,
                             cache_dir=str(cache_dir), figures=False)

    def setup(self, seed: int, replicas: int = 1) -> None:
        root = Path(tempfile.mkdtemp(prefix="report-setup-", dir=self.workdir))
        try:
            self.builder(root / "out", root / "cache", sub_seed(seed, 0))
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def planned_ops(self, seed: int) -> int:
        return 2 * len(EXPERIMENTS)

    def run_pass(self, seed: int, replica: int = 0) -> PassResult:
        root = Path(tempfile.mkdtemp(prefix="report-", dir=self.workdir))
        try:
            cold_builder = self.builder(root / "cold", root / "cache", seed)
            clear_graph_caches()
            watch = stopwatch()
            cold = cold_builder.build()
            wall, wall_scale = watch.read()
            warm_builder = self.builder(root / "warm", root / "cache", seed)
            clear_graph_caches()
            watch = stopwatch()
            warm = warm_builder.build()
            warm_wall, warm_scale = watch.read()
            with paused(self.tracer):
                store = ResultStore(str(root / "cache"))
                shots = sum(store.load(key).shots for key in store.keys())
                outputs = {
                    path.name: path.read_bytes()
                    for path in sorted((root / "cold").iterdir()) if path.name != "run_stats.json"
                }
                warm_outputs = {
                    path.name: path.read_bytes()
                    for path in sorted((root / "warm").iterdir()) if path.name != "run_stats.json"
                }
        finally:
            shutil.rmtree(root, ignore_errors=True)
        renders = len(cold.artifacts) + len(warm.artifacts)
        checks = {
            "every registry entry renders": len(cold.artifacts) == len(EXPERIMENTS) == len(warm.artifacts),
            "warm build executes 0 chunks": warm.total_stats.chunks_run == 0,
            "warm index.md and CSVs byte-identical to cold": outputs == warm_outputs
            and "index.md" in outputs,
        }
        hasher = hashlib.sha256()
        for name, data in outputs.items():
            hasher.update(name.encode("utf-8") + data)
        return PassResult(
            fresh=[wall], warm=[warm_wall], fresh_scale=[wall_scale], warm_scale=[warm_scale],
            shots=shots, busy=wall + warm_wall, digest=hasher.hexdigest()[:16],
            attempted=renders + cold.total_stats.chunks_run, checks=checks,
        )


class _ServiceThread:
    """A ``SweepService`` (1 worker, sharded store, journal) on its own loop thread."""

    def __init__(self, directory: Path, client_seed: int) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, name="sweep-service", daemon=True)
        self.thread.start()
        self.scheduler, self.service = self._call(self._start(directory))
        self.client = SweepServiceClient(self.service.url, rng=random.Random(client_seed))

    def _call(self, coroutine, timeout: float = 120.0):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(timeout)

    async def _start(self, directory: Path):
        scheduler = SweepScheduler(
            store=ResultStore(str(directory / "cache"), shards=DEFAULT_SERVICE_SHARDS),
            workers=1,
            journal=SubmissionJournal(directory / "journal"),
        )
        await scheduler.start()
        service = SweepService(scheduler)
        await service.start()
        return scheduler, service

    async def _run(self, plan: SweepPlan) -> None:
        submission = await self.scheduler.submit(plan)
        await self.scheduler.wait(submission, timeout=120)

    def warm_up(self, plan: SweepPlan) -> None:
        """Run one plan in-process so the worker pool is live."""
        self._call(self._run(plan))

    async def _stop(self) -> None:
        await self.service.stop()
        await self.scheduler.stop(drain=True)

    def close(self) -> None:
        try:
            self._call(self._stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=60)
            self.loop.close()


class ServiceLoop(Workload):
    name = "service-loop"
    why = ("submit->wait->results over HTTP to a 1-worker SweepService with journal, "
           "fresh then cached resubmits: the only workload through HTTP, journal, scheduler")
    submissions = 10
    #: Times each plan is resubmitted after the fresh round (all cache hits).
    resubmissions = 5
    #: The client, the server's event loop and its helper threads hand work
    #: to each other; on one CPU each hand-off waits for the OS scheduler,
    #: which made cached latencies spread three times wider.
    pin_cpu = False
    #: A fresh submission's latency is mostly the client's first poll sleep,
    #: which does not scale with CPU speed.
    cpu_bound = ("setup_s", "warm_wall_s")
    plan_config = dict(distance=3, policy="eraser", p=1e-3, cycles=3, shots=64)

    def params(self) -> Dict[str, object]:
        return {"plan": dict(self.plan_config), "submissions_per_pass": self.submissions,
                "resubmissions": self.resubmissions, "workers": 1}

    def plan(self, seed: int) -> SweepPlan:
        return SweepPlan.build([dict(self.plan_config)], seed=seed)

    def setup(self, seed: int, replicas: int = 1) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="service-", dir=self.workdir))
        self.services: List[_ServiceThread] = []
        self.plan(sub_seed(seed, 0, 0))
        for replica in range(replicas):
            service = _ServiceThread(self.root / f"service{replica}", client_seed=seed)
            self.services.append(service)
            service.warm_up(self.plan(sub_seed(seed, 1 << 30, replica)))

    def planned_ops(self, seed: int) -> int:
        return (1 + self.resubmissions) * self.submissions

    def _roundtrip(self, client: SweepServiceClient, plan: SweepPlan):
        """(latency, its speed factor, results, stats) of submit -> wait -> results."""
        watch = stopwatch()
        job_id = client.submit(plan)
        client.wait(job_id)
        results, stats = client.results(job_id)
        return (*watch.read(), results, stats)

    def _chunk_seconds(self, client: SweepServiceClient) -> float:
        with paused(self.tracer):
            return client.metrics()["histograms"].get("chunk_latency_seconds", {}).get("sum", 0.0)

    def run_pass(self, seed: int, replica: int = 0) -> PassResult:
        service = self.services[replica]
        client = service.client
        traced = self.tracer is not None and self.tracer.enabled
        plans = [self.plan(sub_seed(seed, i)) for i in range(self.submissions)]
        fresh, warm, fresh_scale, warm_scale = [], [], [], []
        digests, chunk_times, overheads = [], [], []
        failed = chunks = shots = 0
        fresh_ok = cached_ok = True
        retries_before = client.telemetry.counter("client_retries").value
        for plan in plans:
            before = self._chunk_seconds(client) if traced else 0.0
            try:
                latency, scale, results, stats = self._roundtrip(client, plan)
            except Exception:  # noqa: BLE001 - a failed submission is a measured outcome
                failed += 1
                fresh.append(math.inf)
                fresh_scale.append(1.0)
                continue
            fresh.append(latency)
            fresh_scale.append(scale)
            digests.append(digest(results))
            chunks += stats.chunks_run
            shots += sum(r.shots for r in results)
            fresh_ok &= stats.chunks_run == plan.total_chunks
            if traced:
                chunk_times.append(self._chunk_seconds(client) - before)
                overheads.append(latency - chunk_times[-1])
        for plan in plans * self.resubmissions:
            try:
                latency, scale, _, stats = self._roundtrip(client, plan)
            except Exception:  # noqa: BLE001
                failed += 1
                warm.append(math.inf)
                warm_scale.append(1.0)
                continue
            warm.append(latency)
            warm_scale.append(scale)
            cached_ok &= stats.chunks_run == 0 and stats.cache_hits == len(plan)
        with paused(self.tracer):
            sample = digest(SweepExecutor().run(plans[0]))
        layer = {}
        if traced:
            with paused(self.tracer):
                counters = client.metrics()["counters"]
            layer = {
                "service.chunk_s": statistics.median(chunk_times) if chunk_times else 0.0,
                "service.overhead_s.p50": statistics.median(overheads) if overheads else 0.0,
                "service.client_retries": client.telemetry.counter("client_retries").value - retries_before,
                "service.rejected": counters.get("http_429_served", 0) + counters.get("http_503_served", 0),
            }
        return PassResult(
            fresh=fresh, warm=warm, fresh_scale=fresh_scale, warm_scale=warm_scale, shots=shots,
            busy=sum(t for t in fresh + warm if math.isfinite(t)),
            digest=hashlib.sha256("".join(digests).encode()).hexdigest()[:16],
            attempted=len(fresh) + len(warm) + chunks, failed=failed,
            checks={
                "fresh submissions execute every planned chunk": fresh_ok,
                "every resubmission executes 0 chunks": cached_ok,
                "service results bit-identical to in-process SweepExecutor": bool(digests) and digests[0] == sample,
            },
            layer=layer,
        )

    def trace_summary(self, untraced: List[PassResult]) -> Dict[str, float]:
        fresh = sorted(t for r in untraced for t in r.fresh)
        warm = sorted(t for r in untraced for t in r.warm)
        return {
            "submit_to_results_s.p90": percentile(fresh, 0.9),
            "cached_submit_to_results_s.p90": percentile(warm, 0.9),
        }

    def close(self) -> None:
        for service in getattr(self, "services", []):
            service.close()
        if hasattr(self, "root"):
            shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Fig14Grid, LowPAdaptive, ReportQuick, ServiceLoop)}
