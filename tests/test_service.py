"""Sweep service end-to-end: scheduler, HTTP API, client, executor facade.

Exercises the service stack of the sweep-service PR over a real (loopback)
HTTP connection: submissions complete with results bit-identical to the
serial :class:`~repro.experiments.executor.SweepExecutor`, warm resubmits
execute zero chunks, the telemetry endpoints serve canonical snapshots and
NDJSON streams, and the error paths (unknown ids, premature results,
draining) answer with proper status codes instead of hanging.
"""

import asyncio
import json
import urllib.request

import numpy as np
import pytest

from repro.experiments.adaptive import AdaptiveConfig, apply_adaptive
from repro.experiments.executor import SweepExecutor
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.results import result_from_wire, result_to_wire
from repro.experiments.store import ResultStore
from repro.service import (
    ServiceExecutor,
    SweepScheduler,
    SweepService,
    SweepServiceClient,
)
from repro.service.client import ServiceError
from repro.service.wire import metrics_ndjson_line, parse_metrics_ndjson


def make_plan(shots=120, policies=("eraser", "always-lrc"), p=2e-3):
    jobs = [
        SweepJob(
            distance=3,
            policy=policy,
            shots=shots,
            rounds=3,
            p=p,
            chunk_shots=40,
            seed_entropy=4242,
            spawn_key=(index,),
        )
        for index, policy in enumerate(policies)
    ]
    return SweepPlan(jobs)


def with_service(test_body, *, workers=2, shards=4, tmp_path=None):
    """Run ``test_body(client, scheduler, service)`` against a live service."""

    async def runner():
        store = None
        if tmp_path is not None:
            store = ResultStore(tmp_path / "cache", shards=shards)
        scheduler = SweepScheduler(store=store, workers=workers, heartbeat_interval=0.1)
        await scheduler.start()
        service = SweepService(scheduler)
        await service.start()
        try:
            await test_body(SweepServiceClient(service.url), scheduler, service)
        finally:
            await service.stop()
            await scheduler.stop(drain=False)

    asyncio.run(runner())


class TestWireForms:
    def test_result_round_trip_bit_identical(self):
        result = SweepExecutor().run_job(make_plan().jobs[0])
        rebuilt = result_from_wire(json.loads(json.dumps(result_to_wire(result))))
        assert rebuilt.statistically_equal(result)

    def test_plan_round_trip(self):
        plan = make_plan()
        rebuilt = SweepPlan.from_wire(json.loads(json.dumps(plan.to_wire())))
        assert rebuilt.jobs == plan.jobs
        assert [j.cache_key() for j in rebuilt.jobs] == [
            j.cache_key() for j in plan.jobs
        ]

    def test_metrics_ndjson_round_trip(self):
        line = metrics_ndjson_line({"counters": {"x": 1}}, seq=3, timestamp=1.5)
        payload = parse_metrics_ndjson(line)
        assert payload == {"seq": 3, "metrics": {"counters": {"x": 1}}, "ts": 1.5}


class TestEndToEnd:
    def test_submit_wait_results_bit_identical_to_serial(self, tmp_path):
        serial = SweepExecutor().run(make_plan())

        async def body(client, scheduler, service):
            t = asyncio.to_thread
            assert await t(client.ping)
            job_id = await t(client.submit, make_plan())
            status = await t(client.wait, job_id, 120)
            assert status["state"] == "done"
            assert status["chunks_done"] == status["chunks_total"]
            results, stats = await t(client.results, job_id)
            assert stats.chunks_run == make_plan().total_chunks
            assert len(results) == len(serial)
            for ours, theirs in zip(results, serial):
                assert ours.statistically_equal(theirs)

        with_service(body, tmp_path=tmp_path)

    def test_mixed_adaptive_plan_identical_across_backends(self, tmp_path):
        """An adaptive decode job next to a ``decode=False`` job: claims go
        round-robin over a job the stopping rule never applies to, and
        serial, ``jobs=2`` and the service agree bit for bit."""
        configs = [
            dict(distance=3, policy="eraser", shots=400, cycles=1, p=0.02),
            dict(distance=3, policy="always-lrc", shots=150, cycles=1, p=0.02, decode=False),
        ]
        plan = apply_adaptive(
            SweepPlan.build(configs, seed=7, chunk_shots=50),
            AdaptiveConfig(target_ci_halfwidth=0.2, min_chunks=2),
        )
        assert plan.jobs[0].target_ci_halfwidth == 0.2
        assert plan.jobs[1].target_ci_halfwidth is None
        serial_executor = SweepExecutor(jobs=1)
        serial = serial_executor.run(plan)
        pool_executor = SweepExecutor(jobs=2)
        pooled = pool_executor.run(plan)
        assert serial_executor.last_stats.jobs_stopped_early == 1
        assert serial_executor.last_stats.shots_saved > 0
        assert serial[0].shots < 400 and serial[1].shots == 150

        served = []

        async def body(client, scheduler, service):
            t = asyncio.to_thread
            job_id = await t(client.submit, plan)
            status = await t(client.wait, job_id, 120)
            assert status["state"] == "done"
            served.append(await t(client.results, job_id))

        with_service(body, tmp_path=tmp_path)
        service_results, service_stats = served[0]
        for stats in (pool_executor.last_stats, service_stats):
            assert stats.shots_saved == serial_executor.last_stats.shots_saved
            assert stats.jobs_stopped_early == 1
        for results in (pooled, service_results):
            for ours, theirs in zip(results, serial):
                assert ours.shots == theirs.shots
                assert ours.statistically_equal(theirs)
                np.testing.assert_array_equal(ours.lpr_data, theirs.lpr_data)
                np.testing.assert_array_equal(ours.lpr_parity, theirs.lpr_parity)

    def test_warm_resubmit_executes_zero_chunks(self, tmp_path):
        async def body(client, scheduler, service):
            t = asyncio.to_thread
            first = await t(client.submit, make_plan())
            await t(client.wait, first, 120)
            second = await t(client.submit, make_plan())
            status = await t(client.wait, second, 60)
            assert status["state"] == "done"
            assert status["chunks_executed"] == 0
            assert status["cache_hits"] == len(make_plan().jobs)
            _, stats = await t(client.results, second)
            assert stats.chunks_run == 0
            assert stats.cache_hits == len(make_plan().jobs)

        with_service(body, tmp_path=tmp_path)

    def test_metrics_endpoint_reconciles_with_plan(self, tmp_path):
        async def body(client, scheduler, service):
            t = asyncio.to_thread
            job_id = await t(client.submit, make_plan())
            await t(client.wait, job_id, 120)
            snapshot = await t(client.metrics)
            counters = snapshot["counters"]
            assert counters["chunks_executed"] == make_plan().total_chunks
            assert counters["jobs_completed"] == 1
            assert counters["sweep_jobs_completed"] == len(make_plan().jobs)
            # The snapshot is canonical: re-serialising is byte-stable.
            from repro.experiments.metrics import canonical_metrics_json

            assert canonical_metrics_json(snapshot) == canonical_metrics_json(
                json.loads(canonical_metrics_json(snapshot))
            )

        with_service(body, tmp_path=tmp_path)

    def test_metrics_stream_is_ordered_ndjson(self, tmp_path):
        async def body(client, scheduler, service):
            t = asyncio.to_thread
            lines = await t(lambda: list(client.metrics_stream(count=3, interval=0.01)))
            assert len(lines) == 3
            seqs = [line["seq"] for line in lines]
            assert seqs == sorted(seqs)
            assert all("metrics" in line for line in lines)

        with_service(body, tmp_path=tmp_path)

    def test_workers_endpoint_reports_pool(self, tmp_path):
        async def body(client, scheduler, service):
            t = asyncio.to_thread
            job_id = await t(client.submit, make_plan())
            await t(client.wait, job_id, 120)
            info = await t(client.workers)
            assert info["generation"] == 0
            assert len(info["pids"]) >= 1
            assert all(isinstance(pid, int) for pid in info["pids"])

        with_service(body, tmp_path=tmp_path)

    def test_cancel_prevents_completion(self, tmp_path):
        async def body(client, scheduler, service):
            t = asyncio.to_thread
            # Plenty of chunks so cancellation lands before completion.
            plan = make_plan(shots=4000)
            job_id = await t(client.submit, plan)
            assert await t(client.cancel, job_id)
            status = await t(client.status, job_id)
            assert status["state"] == "cancelled"
            with pytest.raises(ServiceError):
                await t(client.results, job_id)
            # A cancelled submission cannot be cancelled twice.
            assert not await t(client.cancel, job_id)

        with_service(body, tmp_path=tmp_path)


class TestErrorPaths:
    def test_unknown_submission_is_404(self, tmp_path):
        async def body(client, scheduler, service):
            t = asyncio.to_thread
            with pytest.raises(ServiceError, match="404"):
                await t(client.status, "sweep-999999")
            with pytest.raises(ServiceError, match="404"):
                await t(client.results, "sweep-999999")

        with_service(body, tmp_path=tmp_path)

    def test_results_before_done_is_conflict(self, tmp_path):
        async def body(client, scheduler, service):
            t = asyncio.to_thread
            job_id = await t(client.submit, make_plan(shots=4000))
            with pytest.raises(ServiceError, match="not done"):
                await t(client.results, job_id)
            await t(client.cancel, job_id)

        with_service(body, tmp_path=tmp_path)

    def test_unknown_route_is_404(self, tmp_path):
        async def body(client, scheduler, service):
            def probe():
                try:
                    urllib.request.urlopen(service.url + "/nope", timeout=10)
                except urllib.error.HTTPError as error:
                    return error.code
                return None

            assert await asyncio.to_thread(probe) == 404

        with_service(body, tmp_path=tmp_path)

    def test_draining_scheduler_rejects_submissions(self, tmp_path):
        async def body(client, scheduler, service):
            # retries=0: a draining service answers 503, which a default
            # client would (correctly) retry — here we want the rejection.
            fail_fast = SweepServiceClient(service.url, retries=0)
            scheduler._draining = True
            with pytest.raises(ServiceError, match="draining"):
                await asyncio.to_thread(fail_fast.submit, make_plan())
            scheduler._draining = False

        with_service(body, tmp_path=tmp_path)

    def test_ping_false_when_unreachable(self):
        client = SweepServiceClient("http://127.0.0.1:9", timeout=0.5)
        assert not client.ping()

    def test_wait_timeout_zero_checks_status_exactly_once(self, tmp_path):
        async def body(client, scheduler, service):
            def probe():
                job_id = client.submit(make_plan(shots=4000))
                checks = []
                original = client.status
                client.status = lambda jid: checks.append(jid) or original(jid)
                try:
                    with pytest.raises(TimeoutError):
                        client.wait(job_id, timeout=0)
                finally:
                    client.status = original
                client.cancel(job_id)
                return checks

            checks = await asyncio.to_thread(probe)
            assert len(checks) == 1

        with_service(body, tmp_path=tmp_path)


class TestServiceExecutor:
    def test_drop_in_facade_matches_serial(self, tmp_path):
        serial_results = SweepExecutor().run(make_plan())
        serial_job = SweepExecutor().run_job(make_plan().jobs[0])

        async def body(client, scheduler, service):
            def use_executor():
                executor = ServiceExecutor(service.url)
                results = executor.run(make_plan())
                stats = executor.last_stats
                single = executor.run_job(make_plan().jobs[0])
                return results, stats, single

            results, stats, single = await asyncio.to_thread(use_executor)
            for ours, theirs in zip(results, serial_results):
                assert ours.statistically_equal(theirs)
            assert stats.jobs_total == len(make_plan().jobs)
            assert single.statistically_equal(serial_job)

        with_service(body, tmp_path=tmp_path)
