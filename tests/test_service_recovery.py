"""Crash-recovery and admission-control proof for the sweep service.

The acceptance criteria of the crash-recovery PR, exercised in-process
(the subprocess SIGKILL variant lives in ``tests/test_service_chaos.py``):

* a scheduler killed mid-sweep and restarted over the same journal + store
  resumes the *same* submission id, re-executes **zero** already-completed
  chunks (persisted jobs are cache hits, spilled chunks are recovered), and
  produces results bit-identical to an uninterrupted serial
  :class:`~repro.experiments.executor.SweepExecutor` run — the Section 6
  position-keyed seed discipline at work;
* a retried submit carrying the same idempotency key dedupes onto the
  existing submission instead of double-running, in-process and across a
  crash/restart;
* journal edge cases (empty journal, torn tail, store shards migrated
  between restarts) recover cleanly;
* a saturated service answers 429 + ``Retry-After`` and the retrying
  client eventually completes; ``/healthz`` walks ok/degraded/draining.
"""

import asyncio
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.executor import SweepExecutor
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.store import ResultStore
from repro.service import (
    SchedulerSaturated,
    SubmissionJournal,
    SweepScheduler,
    SweepService,
    SweepServiceClient,
)


def make_plan(shots=2500, chunk_shots=25, policies=("eraser",)):
    """A deliberately chunk-heavy plan so the crash lands mid-job."""
    jobs = [
        SweepJob(
            distance=3,
            policy=policy,
            shots=shots,
            rounds=3,
            p=2e-3,
            chunk_shots=chunk_shots,
            seed_entropy=90210,
            spawn_key=(index,),
        )
        for index, policy in enumerate(policies)
    ]
    return SweepPlan(jobs)


def make_scheduler(tmp_path, shards=4, **kwargs):
    store = ResultStore(tmp_path / "cache", shards=shards)
    journal = SubmissionJournal(tmp_path / "journal")
    defaults = dict(store=store, workers=2, heartbeat_interval=0.05)
    defaults.update(kwargs)
    return SweepScheduler(journal=journal, **defaults)


async def wait_for(predicate, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(interval)
    raise TimeoutError("condition not reached in time")


def assert_rejected_and_never_journaled(tmp_path, field, value, message):
    """POST a plan whose first job sets ``field`` to ``value``: expect a 400
    carrying ``message``, no journal record and no admitted job."""

    async def body():
        scheduler = make_scheduler(tmp_path)
        await scheduler.start()
        service = SweepService(scheduler)
        await service.start()
        try:
            wire = make_plan(shots=40).to_wire()
            wire["jobs"][0][field] = value

            def probe():
                request = urllib.request.Request(
                    service.url + "/submit",
                    data=json.dumps({"plan": wire}).encode("utf-8"),
                    method="POST",
                )
                try:
                    urllib.request.urlopen(request, timeout=10)
                except urllib.error.HTTPError as error:
                    return error.code, json.loads(error.read())
                return None, None

            code, payload = await asyncio.to_thread(probe)
            assert code == 400
            assert message in payload["error"]
            records, dropped = scheduler.journal.records()
            assert records == [] and dropped == 0
            counters = scheduler.metrics.snapshot()["counters"]
            assert counters.get("jobs_submitted", 0) == 0
        finally:
            await service.stop()
            await scheduler.stop(drain=False)

    asyncio.run(body())


class TestCrashRecovery:
    def test_sigkilled_scheduler_resumes_with_zero_reexecuted_chunks(self, tmp_path):
        plan = make_plan()
        reference = SweepExecutor().run(make_plan())

        async def body():
            first = make_scheduler(tmp_path)
            await first.start()
            job_id = await first.submit(make_plan())
            submission = first.get(job_id)
            await wait_for(lambda: submission.execution.stats.chunks_run >= 5)
            executed_before_crash = submission.execution.stats.chunks_run
            await first.stop(drain=False)  # the "SIGKILL": no terminal event

            second = make_scheduler(tmp_path)
            await second.start()
            try:
                counters = second.metrics.snapshot()["counters"]
                assert counters["journal_replays"] == 1
                assert counters["submissions_recovered"] == 1
                # The submission resumed under its original id.
                status = second.status(job_id)
                assert status["state"] in ("running", "done")
                await second.wait(job_id, 180)
                status = second.status(job_id)
                assert status["state"] == "done"
                # Chunks spilled before the crash were recovered, not re-run:
                # recovered + re-executed exactly covers the plan.
                assert status["chunks_recovered"] >= 1
                assert (
                    status["chunks_executed"] + status["chunks_recovered"]
                    == plan.total_chunks
                )
                counters = second.metrics.snapshot()["counters"]
                assert (
                    counters["chunks_executed"] + counters["chunks_recovered"]
                    == plan.total_chunks
                )
                # The pre-crash spill really carried work across the restart.
                assert status["chunks_recovered"] >= executed_before_crash - 1
                for ours, theirs in zip(second.results(job_id), reference):
                    assert ours.statistically_equal(theirs)
            finally:
                await second.stop(drain=False)

        asyncio.run(body())

    def test_completed_submissions_do_not_replay(self, tmp_path):
        async def body():
            first = make_scheduler(tmp_path)
            await first.start()
            job_id = await first.submit(make_plan(shots=200))
            await first.wait(job_id, 120)
            await first.stop(drain=False)

            second = make_scheduler(tmp_path)
            await second.start()
            try:
                counters = second.metrics.snapshot()["counters"]
                assert counters.get("submissions_recovered", 0) == 0
                with pytest.raises(KeyError):
                    second.get(job_id)
                # Ids continue above the journaled serial — never reissued.
                fresh = await second.submit(make_plan(shots=200))
                assert fresh > job_id
            finally:
                await second.stop(drain=False)

        asyncio.run(body())

    def test_empty_journal_recovers_to_nothing(self, tmp_path):
        async def body():
            scheduler = make_scheduler(tmp_path)
            await scheduler.start()
            try:
                counters = scheduler.metrics.snapshot()["counters"]
                assert counters["journal_replays"] == 1
                assert counters.get("submissions_recovered", 0) == 0
                assert scheduler.list_submissions() == []
            finally:
                await scheduler.stop(drain=False)

        asyncio.run(body())

    def test_journal_with_retired_dp_knob_recovers(self, tmp_path):
        """An acceptance journaled while jobs still carried the retired
        ``decoder_dp_threshold`` and ``decoder_cache_size`` wire keys
        recovers under its original id."""
        plan = make_plan(shots=200)
        reference = SweepExecutor().run(make_plan(shots=200))
        wire = plan.to_wire()
        for job in wire["jobs"]:
            job["decoder_dp_threshold"] = 12
            job["decoder_cache_size"] = 64
        with SubmissionJournal(tmp_path / "journal") as journal:
            journal.append(
                {
                    "event": "accepted",
                    "id": "sweep-000007",
                    "key": None,
                    "ts": time.time(),
                    "plan": wire,
                }
            )

        async def body():
            scheduler = make_scheduler(tmp_path)
            await scheduler.start()
            try:
                counters = scheduler.metrics.snapshot()["counters"]
                assert counters["submissions_recovered"] == 1
                recovered = scheduler.get("sweep-000007")
                assert [job.cache_key() for job in recovered.plan.jobs] == [
                    job.cache_key() for job in plan.jobs
                ]
                await scheduler.wait("sweep-000007", 120)
                assert scheduler.status("sweep-000007")["state"] == "done"
                for ours, theirs in zip(scheduler.results("sweep-000007"), reference):
                    assert ours.statistically_equal(theirs)
            finally:
                await scheduler.stop(drain=False)

        asyncio.run(body())

    def test_unreplayable_record_fails_and_the_rest_recovers(self, tmp_path):
        """A journaled plan that no longer parses (here: a decoder method
        this build does not know) is failed once; the valid submission
        beside it still recovers and finishes bit-identical."""
        plan = make_plan(shots=200)
        reference = SweepExecutor().run(make_plan(shots=200))
        bad = make_plan(shots=200).to_wire()
        bad["jobs"][0]["decoder_method"] = "tensor-network"
        with SubmissionJournal(tmp_path / "journal") as journal:
            for submission_id, wire in (("sweep-000003", bad), ("sweep-000004", plan.to_wire())):
                journal.append(
                    {
                        "event": "accepted",
                        "id": submission_id,
                        "key": None,
                        "ts": time.time(),
                        "plan": wire,
                    }
                )

        async def body():
            first = make_scheduler(tmp_path)
            await first.start()
            try:
                counters = first.metrics.snapshot()["counters"]
                assert counters["jobs_failed"] == 1
                assert counters["submissions_recovered"] == 1
                with pytest.raises(KeyError):
                    first.get("sweep-000003")
                await first.wait("sweep-000004", 120)
                assert first.status("sweep-000004")["state"] == "done"
                results = first.results("sweep-000004")
                assert len(results) == len(reference)
                for ours, theirs in zip(results, reference):
                    assert ours.statistically_equal(theirs)
            finally:
                await first.stop(drain=False)

            with SubmissionJournal(tmp_path / "journal") as journal:
                assert "sweep-000003" not in journal.replay().live
            second = make_scheduler(tmp_path)
            await second.start()
            try:
                counters = second.metrics.snapshot()["counters"]
                assert counters.get("jobs_failed", 0) == 0
                assert counters.get("submissions_recovered", 0) == 0
            finally:
                await second.stop(drain=False)

        asyncio.run(body())

    def test_torn_journal_tail_drops_only_the_tail(self, tmp_path):
        async def body():
            first = make_scheduler(tmp_path)
            await first.start()
            kept = await first.submit(make_plan())
            torn = await first.submit(make_plan(policies=("always-lrc",)))
            await first.stop(drain=False)

            # Tear the journal mid-way through the second acceptance: keep
            # every line up to it plus a torn prefix of the record itself.
            journal_path = tmp_path / "journal" / "journal.ndjson"
            lines = journal_path.read_text(encoding="utf-8").splitlines()
            torn_index = next(
                index for index, line in enumerate(lines) if torn in line
            )
            torn_text = "\n".join(lines[:torn_index] + [lines[torn_index][:25]])
            journal_path.write_text(torn_text, encoding="utf-8")

            second = make_scheduler(tmp_path)
            await second.start()
            try:
                counters = second.metrics.snapshot()["counters"]
                assert counters["submissions_recovered"] == 1
                assert counters["journal_torn_records_dropped"] >= 1
                assert second.status(kept)["state"] in ("running", "done")
                with pytest.raises(KeyError):
                    second.get(torn)
                await second.wait(kept, 180)
            finally:
                await second.stop(drain=False)

        asyncio.run(body())

    def test_replay_against_migrated_store_shards(self, tmp_path):
        plan = make_plan(shots=400, policies=("eraser", "always-lrc"))
        reference = SweepExecutor().run(
            make_plan(shots=400, policies=("eraser", "always-lrc"))
        )

        async def body():
            journal = SubmissionJournal(tmp_path / "journal")
            flat_store = ResultStore(tmp_path / "cache")  # legacy flat layout
            first = SweepScheduler(
                store=flat_store, journal=journal, workers=2, heartbeat_interval=0.05
            )
            await first.start()
            job_id = await first.submit(
                make_plan(shots=400, policies=("eraser", "always-lrc"))
            )
            submission = first.get(job_id)
            await wait_for(lambda: submission.execution.jobs_done >= 1)
            jobs_done_at_crash = submission.execution.jobs_done
            await first.stop(drain=False)

            # Operator reopens the store sharded and migrates between restarts.
            sharded = ResultStore(tmp_path / "cache", shards=8)
            assert sharded.migrate_flat_entries() >= jobs_done_at_crash
            second = SweepScheduler(
                store=sharded,
                journal=SubmissionJournal(tmp_path / "journal"),
                workers=2,
                heartbeat_interval=0.05,
            )
            await second.start()
            try:
                await second.wait(job_id, 180)
                status = second.status(job_id)
                assert status["state"] == "done"
                # Jobs persisted pre-crash resolved as cache hits post-migration.
                assert status["cache_hits"] >= jobs_done_at_crash
                for ours, theirs in zip(second.results(job_id), reference):
                    assert ours.statistically_equal(theirs)
            finally:
                await second.stop(drain=False)

        asyncio.run(body())


class TestIdempotentSubmit:
    def test_same_key_dedupes_in_process(self, tmp_path):
        async def body():
            scheduler = make_scheduler(tmp_path)
            await scheduler.start()
            try:
                first = await scheduler.submit(make_plan(), submission_key="retry-1")
                second = await scheduler.submit(make_plan(), submission_key="retry-1")
                assert first == second
                assert len(scheduler.list_submissions()) == 1
                counters = scheduler.metrics.snapshot()["counters"]
                assert counters["submissions_deduped"] == 1
                await scheduler.wait(first, 180)
                # Exactly one execution of the plan.
                assert (
                    scheduler.status(first)["chunks_executed"]
                    == make_plan().total_chunks
                )
            finally:
                await scheduler.stop(drain=False)

        asyncio.run(body())

    def test_key_dedupe_survives_restart(self, tmp_path):
        async def body():
            first = make_scheduler(tmp_path)
            await first.start()
            original = await first.submit(make_plan(), submission_key="retry-2")
            await first.stop(drain=False)

            second = make_scheduler(tmp_path)
            await second.start()
            try:
                retried = await second.submit(make_plan(), submission_key="retry-2")
                assert retried == original
                assert len(second.list_submissions()) == 1
                await second.wait(original, 180)
            finally:
                await second.stop(drain=False)

        asyncio.run(body())

    def test_distinct_keys_run_independently(self, tmp_path):
        async def body():
            scheduler = make_scheduler(tmp_path)
            await scheduler.start()
            try:
                first = await scheduler.submit(
                    make_plan(shots=200), submission_key="a"
                )
                second = await scheduler.submit(
                    make_plan(shots=200), submission_key="b"
                )
                assert first != second
            finally:
                await scheduler.stop(drain=False)

        asyncio.run(body())


class TestAdmissionControl:
    def test_saturated_scheduler_raises_with_retry_after(self, tmp_path):
        async def body():
            scheduler = make_scheduler(
                tmp_path, max_pending_submissions=1, retry_after=0.125
            )
            await scheduler.start()
            try:
                await scheduler.submit(make_plan())
                with pytest.raises(SchedulerSaturated) as excinfo:
                    await scheduler.submit(make_plan(policies=("always-lrc",)))
                assert excinfo.value.retry_after == 0.125
                counters = scheduler.metrics.snapshot()["counters"]
                assert counters["submissions_rejected_saturated"] == 1
            finally:
                await scheduler.stop(drain=False)

        asyncio.run(body())

    def test_http_429_carries_retry_after_and_client_retries_through(self, tmp_path):
        async def body():
            scheduler = make_scheduler(
                tmp_path, max_pending_submissions=1, retry_after=0.05
            )
            await scheduler.start()
            service = SweepService(scheduler)
            await service.start()
            try:
                blocking = await scheduler.submit(make_plan())

                # Raw probe: the rejection is a real 429 with Retry-After.
                def probe():
                    body = json.dumps({"plan": make_plan(shots=40).to_wire()})
                    request = urllib.request.Request(
                        service.url + "/submit",
                        data=body.encode("utf-8"),
                        method="POST",
                    )
                    try:
                        urllib.request.urlopen(request, timeout=10)
                    except urllib.error.HTTPError as error:
                        return error.code, error.headers.get("Retry-After")
                    return None, None

                code, retry_after = await asyncio.to_thread(probe)
                assert code == 429
                assert retry_after == "0.05"

                # A retrying client parks on the 429s and completes once the
                # blocking submission is cancelled.
                client = SweepServiceClient(
                    service.url, retries=50, backoff=0.02, backoff_cap=0.1
                )
                submit = asyncio.create_task(
                    asyncio.to_thread(client.submit, make_plan(shots=200))
                )
                rate_limited = client.telemetry.counter("client_rate_limited")
                await wait_for(lambda: rate_limited.value >= 1, timeout=30)
                scheduler.cancel(blocking)
                job_id = await asyncio.wait_for(submit, 60)
                await scheduler.wait(job_id, 120)
                client_counters = client.telemetry.snapshot()["counters"]
                assert client_counters["client_rate_limited"] >= 1
                assert client_counters["client_retries"] >= 1
                server_counters = scheduler.metrics.snapshot()["counters"]
                assert server_counters["http_429_served"] >= 1
            finally:
                await service.stop()
                await scheduler.stop(drain=False)

        asyncio.run(body())

    def test_chunk_backlog_watermark_rejects_until_drained(self, tmp_path):
        """``max_inflight_chunks`` bounds the unfinished-chunk backlog: the
        sum over live submissions of ``chunks_total - chunks_done``."""

        async def body():
            scheduler = make_scheduler(
                tmp_path, max_inflight_chunks=10, retry_after=0.125
            )
            await scheduler.start()
            service = SweepService(scheduler)
            await service.start()
            try:
                blocking = await scheduler.submit(make_plan())  # 100 chunks
                health = scheduler.health()
                assert health["queue_depth"] == 100
                assert health["status"] == "degraded"
                with pytest.raises(SchedulerSaturated) as excinfo:
                    await scheduler.submit(make_plan(policies=("always-lrc",)))
                assert excinfo.value.retry_after == 0.125

                def probe():
                    body = json.dumps({"plan": make_plan(shots=40).to_wire()})
                    request = urllib.request.Request(
                        service.url + "/submit",
                        data=body.encode("utf-8"),
                        method="POST",
                    )
                    try:
                        urllib.request.urlopen(request, timeout=10)
                    except urllib.error.HTTPError as error:
                        return error.code, error.headers.get("Retry-After")
                    return None, None

                assert await asyncio.to_thread(probe) == (429, "0.125")
                counters = scheduler.metrics.snapshot()["counters"]
                assert counters["submissions_rejected_saturated"] == 2

                assert await scheduler.wait(blocking, 120) == "done"
                health = scheduler.health()
                assert health["queue_depth"] == 0
                assert health["status"] == "ok"
                admitted = await scheduler.submit(make_plan(shots=40))
                assert await scheduler.wait(admitted, 120) == "done"
            finally:
                await service.stop()
                await scheduler.stop(drain=False)

        asyncio.run(body())

    def test_unknown_engine_is_400_and_never_journaled(self, tmp_path):
        """A plan naming a retired engine is rejected at admission.

        Without the check in ``SweepJob`` the submission would be accepted
        and journaled, then fail the whole sweep inside a worker.
        """
        assert_rejected_and_never_journaled(
            tmp_path, "engine", "batched", "unknown engine 'batched'"
        )

    def test_unknown_decoder_method_is_400_and_never_journaled(self, tmp_path):
        assert_rejected_and_never_journaled(
            tmp_path, "decoder_method", "nope", "unknown matching method 'nope'"
        )

    def test_healthz_walks_ok_degraded_draining(self, tmp_path):
        async def body():
            scheduler = make_scheduler(tmp_path, retry_after=0.25)
            await scheduler.start()
            service = SweepService(scheduler)
            await service.start()
            client = SweepServiceClient(service.url)
            try:
                t = asyncio.to_thread
                health = await t(client.health)
                assert health["status"] == "ok"
                assert "retry_after" not in health
                assert await t(client.ping)

                # Saturate: a zero watermark makes every admission reject.
                scheduler.max_pending_submissions = 0
                health = await t(client.health)
                assert health["status"] == "degraded"
                assert health["retry_after"] == 0.25
                assert await t(client.ping)  # degraded still answers

                scheduler.max_pending_submissions = None
                scheduler._draining = True
                health = await t(client.health)
                assert health["status"] == "draining"
                assert not await t(client.ping)
                scheduler._draining = False
            finally:
                await service.stop()
                await scheduler.stop(drain=False)

        asyncio.run(body())


class TestJournalSchedulerIntegration:
    def test_terminal_events_compact_away(self, tmp_path):
        async def body():
            journal = SubmissionJournal(tmp_path / "journal", compact_threshold=2)
            scheduler = SweepScheduler(
                store=ResultStore(tmp_path / "cache", shards=2),
                journal=journal,
                workers=2,
                heartbeat_interval=0.05,
            )
            await scheduler.start()
            try:
                for _ in range(3):
                    job_id = await scheduler.submit(make_plan(shots=120))
                    await scheduler.wait(job_id, 120)
                records, dropped = journal.records()
                assert dropped == 0
                # Compaction fired: the log no longer carries every event.
                live_ids = [r["id"] for r in records if r["event"] == "accepted"]
                terminal_ids = [r["id"] for r in records if r["event"] == "completed"]
                assert len(records) < 3 * 2 + 1
                assert set(live_ids) >= set(terminal_ids)
            finally:
                await scheduler.stop(drain=False)

        asyncio.run(body())

    def test_recovery_is_itself_crash_safe(self, tmp_path):
        """Crash during recovery (before any chunk lands) loses nothing."""

        async def body():
            first = make_scheduler(tmp_path)
            await first.start()
            job_id = await first.submit(make_plan())
            submission = first.get(job_id)
            await wait_for(lambda: submission.execution.stats.chunks_run >= 3)
            await first.stop(drain=False)

            # Second process crashes immediately after start (recovery ran,
            # nothing new executed to completion is required).
            second = make_scheduler(tmp_path)
            await second.start()
            assert second.status(job_id)["state"] in ("running", "done")
            await second.stop(drain=False)

            third = make_scheduler(tmp_path)
            await third.start()
            try:
                await third.wait(job_id, 180)
                status = third.status(job_id)
                assert status["state"] == "done"
                assert status["chunks_recovered"] >= 1
            finally:
                await third.stop(drain=False)

        asyncio.run(body())
