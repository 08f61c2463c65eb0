"""Long-poll ``/status``, bounded submission retention and lifecycle logs.

* ``GET /status/<id>?wait=<s>`` answers the moment the submission ends
  (done, failed or cancelled), after at most ``MAX_STATUS_WAIT`` seconds
  with the live state, or at once when the service stops or the scheduler
  starts draining; a malformed ``wait`` is a 400.
* ``SweepServiceClient.wait`` rides on it: a sweep that finishes inside one
  hold costs one status request and no sleep.
* The scheduler keeps at most ``MAX_FINISHED_SUBMISSIONS`` finished
  submissions; the oldest-finished is evicted with its idempotency key,
  reads as unknown (404), and resubmitting its plan is all cache hits.
  Live submissions are never evicted, and journal recovery still resumes
  exactly the live ones.
"""

import asyncio
import logging
import time
import urllib.error
import urllib.request

import pytest

import repro.service.scheduler as scheduler_module
import repro.service.server as server_module
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.store import ResultStore
from repro.service import (
    SubmissionJournal,
    SweepScheduler,
    SweepService,
    SweepServiceClient,
)
from repro.service.client import ServiceError


def make_plan(shots=40, chunk_shots=40, seed=7):
    return SweepPlan([
        SweepJob(
            distance=3, policy="eraser", shots=shots, rounds=3, p=2e-3,
            chunk_shots=chunk_shots, seed_entropy=seed, spawn_key=(0,),
        )
    ])


def long_plan():
    """Thousands of chunks: stays live until a test cancels it."""
    return make_plan(shots=200_000, chunk_shots=25, seed=99)


def make_scheduler(tmp_path):
    return SweepScheduler(
        store=ResultStore(tmp_path / "cache", shards=2),
        journal=SubmissionJournal(tmp_path / "journal"),
        workers=1,
        heartbeat_interval=0.1,
    )


def with_service(test_body, tmp_path):
    """Run ``test_body(client, scheduler, service)`` against a live service."""

    async def runner():
        scheduler = make_scheduler(tmp_path)
        await scheduler.start()
        service = SweepService(scheduler)
        await service.start()
        try:
            await test_body(SweepServiceClient(service.url), scheduler, service)
        finally:
            await service.stop()
            await scheduler.stop(drain=False)

    asyncio.run(runner())


def timed(fn, *args):
    started = time.monotonic()
    value = fn(*args)
    return value, time.monotonic() - started


def start_hold(client, job_id, seconds=9.0):
    """A ``/status?wait=`` request in a thread; resolves to (status, elapsed)."""
    return asyncio.create_task(asyncio.to_thread(timed, client.status, job_id, seconds))


class TestLongPoll:
    def test_wakes_when_the_submission_completes(self, tmp_path):
        async def body(client, scheduler, service):
            job_id = await scheduler.submit(make_plan(shots=120))
            status, elapsed = await start_hold(client, job_id)
            assert status["state"] == "done"
            assert elapsed < 8.0

        with_service(body, tmp_path)

    @pytest.mark.parametrize("end", ["failed", "cancelled"])
    def test_wakes_on_failure_and_cancel(self, tmp_path, end):
        async def body(client, scheduler, service):
            job_id = await scheduler.submit(long_plan())
            held = start_hold(client, job_id)
            await asyncio.sleep(0.3)
            if end == "failed":
                scheduler._fail(scheduler.get(job_id), RuntimeError("boom"))
            else:
                assert await asyncio.to_thread(client.cancel, job_id)
            status, elapsed = await held
            assert status["state"] == end
            assert elapsed < 5.0

        with_service(body, tmp_path)

    def test_expired_hold_returns_the_live_state(self, tmp_path):
        async def body(client, scheduler, service):
            job_id = await scheduler.submit(long_plan())
            status, elapsed = await start_hold(client, job_id, 0.5)
            assert status["state"] == "running"
            assert 0.45 <= elapsed < 5.0
            scheduler.cancel(job_id)

        with_service(body, tmp_path)

    def test_hold_is_capped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_STATUS_WAIT", 0.3)

        async def body(client, scheduler, service):
            job_id = await scheduler.submit(long_plan())
            status, elapsed = await start_hold(client, job_id, 60.0)
            assert status["state"] == "running"
            assert elapsed < 5.0
            scheduler.cancel(job_id)

        with_service(body, tmp_path)

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1"])
    def test_malformed_wait_is_400(self, tmp_path, value):
        async def body(client, scheduler, service):
            job_id = await scheduler.submit(make_plan())

            def probe():
                try:
                    urllib.request.urlopen(
                        f"{service.url}/status/{job_id}?wait={value}", timeout=10
                    )
                except urllib.error.HTTPError as error:
                    return error.code
                return 200

            assert await asyncio.to_thread(probe) == 400

        with_service(body, tmp_path)

    def test_stop_releases_a_held_request(self, tmp_path):
        async def body(client, scheduler, service):
            job_id = await scheduler.submit(long_plan())
            held = start_hold(client, job_id)
            await asyncio.sleep(0.3)
            started = time.monotonic()
            await service.stop()
            status, _ = await held
            assert time.monotonic() - started < 1.0
            assert status["state"] == "running"
            scheduler.cancel(job_id)

        with_service(body, tmp_path)

    def test_drain_releases_a_held_request(self, tmp_path):
        async def body(client, scheduler, service):
            job_id = await scheduler.submit(long_plan())
            held = start_hold(client, job_id)
            await asyncio.sleep(0.3)
            started = time.monotonic()
            drain = asyncio.create_task(scheduler.drain())
            status, _ = await held
            assert time.monotonic() - started < 1.0
            assert status["state"] == "running"
            scheduler.cancel(job_id)
            await asyncio.wait_for(drain, 10)

        with_service(body, tmp_path)

    def test_client_wait_needs_one_status_request(self, tmp_path):
        async def body(client, scheduler, service):
            calls = []
            original = client.status
            client.status = lambda *args, **kwargs: calls.append(kwargs) or original(*args, **kwargs)
            job_id = await asyncio.to_thread(client.submit, make_plan(shots=120))
            status = await asyncio.to_thread(client.wait, job_id)
            assert status["state"] == "done"
            assert len(calls) == 1
            assert 0 < calls[0]["wait"] <= client.timeout / 2

        with_service(body, tmp_path)

    def test_client_falls_back_to_polling_on_early_answers(self, tmp_path, monkeypatch):
        # A server that never holds: every non-terminal answer comes back
        # early, so the client paces itself with its poll backoff.
        monkeypatch.setattr(server_module, "MAX_STATUS_WAIT", 0.0)

        async def body(client, scheduler, service):
            calls = []
            original = client.status
            client.status = lambda *args, **kwargs: calls.append(kwargs) or original(*args, **kwargs)
            job_id = await asyncio.to_thread(client.submit, make_plan(shots=400))
            status = await asyncio.to_thread(client.wait, job_id, 60, 0.05)
            assert status["state"] == "done"
            assert len(calls) >= 2

        with_service(body, tmp_path)


class TestRetention:
    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "MAX_FINISHED_SUBMISSIONS", 2)

    def test_oldest_finished_is_evicted_and_live_never(self, tmp_path):
        async def body(client, scheduler, service):
            live = await scheduler.submit(long_plan())
            finished = []
            for _ in range(4):
                job_id = await scheduler.submit(make_plan())
                await scheduler.wait(job_id, 60)
                finished.append(job_id)
            ids = [entry["id"] for entry in scheduler.list_submissions()]
            assert ids == finished[2:] + [live]
            assert scheduler.status(live)["state"] == "running"
            for evicted in finished[:2]:
                with pytest.raises(ServiceError, match="404"):
                    await asyncio.to_thread(client.status, evicted)
                with pytest.raises(ServiceError, match="404"):
                    await asyncio.to_thread(client.results, evicted)
            results, _ = await asyncio.to_thread(client.results, finished[-1])
            assert len(results) == 1
            counters = scheduler.metrics.snapshot()["counters"]
            assert counters["submissions_evicted"] == 2
            scheduler.cancel(live)

        with_service(body, tmp_path)

    def test_key_reused_after_eviction_admits_an_all_cache_hit_submission(self, tmp_path):
        async def body(client, scheduler, service):
            plan = make_plan()
            first = await scheduler.submit(plan, submission_key="k")
            await scheduler.wait(first, 60)
            assert await scheduler.submit(plan, submission_key="k") == first
            for _ in range(2):
                await scheduler.wait(await scheduler.submit(make_plan(seed=8)), 60)
            again = await scheduler.submit(plan, submission_key="k")
            assert again != first
            status = scheduler.status(again)
            assert status["state"] == "done"
            assert status["chunks_executed"] == 0
            assert status["cache_hits"] == len(plan.jobs)

        with_service(body, tmp_path)

    def test_journal_recovery_resumes_only_the_live_submission(self, tmp_path):
        async def body():
            first = make_scheduler(tmp_path)
            await first.start()
            live = await first.submit(long_plan())
            finished = []
            for _ in range(3):
                job_id = await first.submit(make_plan())
                await first.wait(job_id, 60)
                finished.append(job_id)
            await first.stop(drain=False)  # a crash: no terminal event for `live`

            second = make_scheduler(tmp_path)
            await second.start()
            try:
                counters = second.metrics.snapshot()["counters"]
                assert counters["submissions_recovered"] == 1
                assert [entry["id"] for entry in second.list_submissions()] == [live]
                for job_id in finished:
                    with pytest.raises(KeyError):
                        second.get(job_id)
                assert second.cancel(live)
            finally:
                await second.stop(drain=False)

        asyncio.run(body())


class TestLifecycleLog:
    def test_events_are_logged_by_submission_id(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(scheduler_module, "MAX_FINISHED_SUBMISSIONS", 2)
        caplog.set_level(logging.INFO, logger="repro.service")

        async def body(client, scheduler, service):
            executed = await scheduler.submit(make_plan())
            await scheduler.wait(executed, 60)
            cached = await scheduler.submit(make_plan())
            cancelled = await scheduler.submit(long_plan())
            scheduler.cancel(cancelled)
            failed = await scheduler.submit(long_plan())
            scheduler._fail(scheduler.get(failed), RuntimeError("boom"))
            return executed, cached, cancelled, failed

        ids = []

        async def recording(client, scheduler, service):
            ids.extend(await body(client, scheduler, service))

        with_service(recording, tmp_path)
        executed, cached, cancelled, failed = ids
        events = [
            (record.submission_id, record.event)
            for record in caplog.records
            if record.name == "repro.service"
        ]
        assert events == [
            (executed, "accepted"), (executed, "started"), (executed, "completed"),
            (cached, "accepted"), (cached, "completed"),
            (cancelled, "accepted"), (cancelled, "started"), (cancelled, "cancelled"),
            (executed, "evicted"),
            (failed, "accepted"), (failed, "started"), (failed, "failed"),
            (cached, "evicted"),
        ]
        failure = [r for r in caplog.records if getattr(r, "event", None) == "failed"]
        assert failure[0].levelno == logging.WARNING
        assert "boom" in failure[0].getMessage()
