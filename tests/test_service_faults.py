"""Fault-injection harness for the sweep service (the PR's proof obligation).

Three families of induced failures, all required to recover to results
**bit-identical** to a serial :class:`~repro.experiments.executor.SweepExecutor`
run of the same plan (the Section 6 seed discipline makes chunk streams
position-keyed, so no crash, retry, worker interleaving or cache state may
change a statistic):

* a worker process SIGKILLed mid-chunk — the scheduler rebuilds the pool and
  retries the lost chunks with backoff;
* corrupt/torn entries in the sharded result store — damaged jobs silently
  re-execute (torn reads as miss), intact jobs stay cache hits;
* the scheduler itself dying mid-sweep — a fresh scheduler over the same
  store resumes from the persisted jobs, and a further warm resubmit
  executes zero chunks (the acceptance criterion of the PR).
"""

import asyncio
import json
import os
import signal
import time

import pytest

from repro.experiments.executor import SweepExecutor
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.store import ResultStore
from repro.service import SweepScheduler, SweepService, SweepServiceClient


def make_plan(shots=2500, chunk_shots=25, policies=("eraser",)):
    """A deliberately chunk-heavy plan so faults land mid-sweep."""
    jobs = [
        SweepJob(
            distance=3,
            policy=policy,
            shots=shots,
            rounds=3,
            p=2e-3,
            chunk_shots=chunk_shots,
            seed_entropy=7331,
            spawn_key=(index,),
        )
        for index, policy in enumerate(policies)
    ]
    return SweepPlan(jobs)


def serial_reference(plan):
    return SweepExecutor().run(plan)


class TestWorkerDeath:
    def test_sigkill_mid_chunk_recovers_bit_identical(self, tmp_path):
        plan = make_plan()
        reference = serial_reference(make_plan())

        async def body():
            store = ResultStore(tmp_path / "cache", shards=4)
            scheduler = SweepScheduler(
                store=store, workers=2, heartbeat_interval=0.05, retry_backoff=0.01
            )
            await scheduler.start()
            service = SweepService(scheduler)
            await service.start()
            client = SweepServiceClient(service.url)
            t = asyncio.to_thread
            try:
                job_id = await t(client.submit, make_plan())
                # Let the sweep get going, then murder a real worker.
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    status = await t(client.status, job_id)
                    if status["chunks_done"] >= 2:
                        break
                    await asyncio.sleep(0.02)
                victims = (await t(client.workers))["pids"]
                assert victims, "worker pool reported no PIDs"
                os.kill(victims[0], signal.SIGKILL)
                status = await t(client.wait, job_id, 180)
                assert status["state"] == "done"
                results, stats = await t(client.results, job_id)
                counters = scheduler.metrics.snapshot()["counters"]
                # The pool noticed the death and the sweep still finished.
                assert (
                    counters.get("worker_restarts", 0) >= 1
                    or counters.get("worker_deaths_detected", 0) >= 1
                )
                assert stats.chunks_run >= plan.total_chunks
                for ours, theirs in zip(results, reference):
                    assert ours.statistically_equal(theirs)
            finally:
                await service.stop()
                await scheduler.stop(drain=False)

        asyncio.run(body())

    def test_repeated_pool_breakage_exhausts_retries_cleanly(self, tmp_path):
        """A chunk that can never run fails the sweep — it must not hang."""

        async def body():
            scheduler = SweepScheduler(
                workers=1,
                heartbeat_interval=0.05,
                retry_backoff=0.01,
                max_chunk_retries=1,
            )
            await scheduler.start()
            try:
                # Break the pool persistently: replace the chunk runner with
                # one whose pool is shut down before every dispatch.
                job_id = await scheduler.submit(make_plan(shots=100))
                submission = scheduler.get(job_id)
                for _ in range(200):
                    pool = scheduler._pool
                    if pool is not None:
                        for process in list(pool._processes.values()):
                            try:
                                os.kill(process.pid, signal.SIGKILL)
                            except (ProcessLookupError, TypeError):
                                pass
                    if submission.done_event.is_set():
                        break
                    await asyncio.sleep(0.05)
                await asyncio.wait_for(submission.done_event.wait(), 60)
                assert submission.state in ("done", "failed")
                if submission.state == "failed":
                    assert "retries" in (submission.error or "")
            finally:
                await scheduler.stop(drain=False)

        asyncio.run(body())


class TestTornStoreEntries:
    def test_corrupt_shard_entries_reexecute_and_match_serial(self, tmp_path):
        plan = make_plan(shots=200, policies=("eraser", "always-lrc"))
        reference = serial_reference(
            make_plan(shots=200, policies=("eraser", "always-lrc"))
        )

        async def body():
            store = ResultStore(tmp_path / "cache", shards=4)
            scheduler = SweepScheduler(store=store, workers=2, heartbeat_interval=0.05)
            await scheduler.start()
            try:
                first = await scheduler.submit(make_plan(shots=200, policies=("eraser", "always-lrc")))
                await scheduler.wait(first, 120)
                # Tear one job's entry mid-write and corrupt the other's arrays.
                key_a = plan.jobs[0].cache_key()
                key_b = plan.jobs[1].cache_key()
                store.json_path(key_a).write_text('{"form', encoding="utf-8")
                entry_b = json.loads(store.json_path(key_b).read_text(encoding="utf-8"))
                entry_b["result"]["arrays"]["lpr_data"] = "garbage"
                store.json_path(key_b).write_text(json.dumps(entry_b), encoding="utf-8")
                assert store.load(key_a) is None and store.load(key_b) is None
                second = await scheduler.submit(
                    make_plan(shots=200, policies=("eraser", "always-lrc"))
                )
                await scheduler.wait(second, 120)
                status = scheduler.status(second)
                assert status["state"] == "done"
                # Both damaged jobs re-executed (no torn entry read as data).
                assert status["cache_hits"] == 0
                assert status["chunks_executed"] == plan.total_chunks
                results = scheduler.results(second)
                for ours, theirs in zip(results, reference):
                    assert ours.statistically_equal(theirs)
                # The store healed: a third submission is fully warm.
                third = await scheduler.submit(
                    make_plan(shots=200, policies=("eraser", "always-lrc"))
                )
                await scheduler.wait(third, 60)
                assert scheduler.status(third)["chunks_executed"] == 0
            finally:
                await scheduler.stop(drain=False)

        asyncio.run(body())

    def test_partially_torn_store_keeps_intact_jobs_cached(self, tmp_path):
        plan = make_plan(shots=200, policies=("eraser", "always-lrc"))

        async def body():
            store = ResultStore(tmp_path / "cache", shards=4)
            scheduler = SweepScheduler(store=store, workers=1, heartbeat_interval=0.05)
            await scheduler.start()
            try:
                first = await scheduler.submit(
                    make_plan(shots=200, policies=("eraser", "always-lrc"))
                )
                await scheduler.wait(first, 120)
                store.json_path(plan.jobs[0].cache_key()).unlink()
                second = await scheduler.submit(
                    make_plan(shots=200, policies=("eraser", "always-lrc"))
                )
                await scheduler.wait(second, 120)
                status = scheduler.status(second)
                assert status["cache_hits"] == 1  # the intact job
                assert status["chunks_executed"] == plan.jobs[0].num_chunks
            finally:
                await scheduler.stop(drain=False)

        asyncio.run(body())


class TestSchedulerRestart:
    def test_restart_mid_sweep_resumes_from_store(self, tmp_path):
        plan = make_plan(shots=2500, policies=("eraser", "always-lrc"))
        reference = serial_reference(
            make_plan(shots=2500, policies=("eraser", "always-lrc"))
        )

        async def body():
            root = tmp_path / "cache"
            # First scheduler: killed (stopped without drain) mid-sweep.
            first_store = ResultStore(root, shards=4)
            first = SweepScheduler(store=first_store, workers=2, heartbeat_interval=0.05)
            await first.start()
            job_id = await first.submit(
                make_plan(shots=2500, policies=("eraser", "always-lrc"))
            )
            submission = first.get(job_id)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if submission.execution.jobs_done >= 1:
                    break
                await asyncio.sleep(0.02)
            interrupted_jobs_done = submission.execution.jobs_done
            await first.stop(drain=False)  # the "crash"

            # Second scheduler over the same store resumes and completes.
            second_store = ResultStore(root)
            assert second_store.shards > 1  # adopted the recorded sharding
            second = SweepScheduler(
                store=second_store, workers=2, heartbeat_interval=0.05
            )
            await second.start()
            try:
                resumed = await second.submit(
                    make_plan(shots=2500, policies=("eraser", "always-lrc"))
                )
                await second.wait(resumed, 180)
                status = second.status(resumed)
                assert status["state"] == "done"
                # Whatever finished before the crash was reused, not re-run.
                assert status["cache_hits"] >= interrupted_jobs_done
                results = second.results(resumed)
                for ours, theirs in zip(results, reference):
                    assert ours.statistically_equal(theirs)

                # Acceptance criterion: a warm resubmit executes zero chunks.
                warm = await second.submit(
                    make_plan(shots=2500, policies=("eraser", "always-lrc"))
                )
                await second.wait(warm, 60)
                warm_status = second.status(warm)
                assert warm_status["chunks_executed"] == 0
                assert warm_status["cache_hits"] == len(plan.jobs)
            finally:
                await second.stop(drain=False)

        asyncio.run(body())

    def test_drain_refuses_new_work_but_finishes_accepted(self, tmp_path):
        async def body():
            store = ResultStore(tmp_path / "cache", shards=4)
            scheduler = SweepScheduler(store=store, workers=2, heartbeat_interval=0.05)
            await scheduler.start()
            try:
                job_id = await scheduler.submit(make_plan(shots=400))
                drain = asyncio.create_task(scheduler.drain())
                await asyncio.sleep(0)  # let drain flip the flag
                with pytest.raises(RuntimeError, match="draining"):
                    await scheduler.submit(make_plan(shots=400))
                await asyncio.wait_for(drain, 120)
                assert scheduler.status(job_id)["state"] == "done"
            finally:
                await scheduler.stop(drain=False)

        asyncio.run(body())
