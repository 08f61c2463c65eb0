"""Tests for the sweep executor: backends, caching, and resumption.

The serial-equals-parallel tests pin the orchestration contract introduced
with the job-based sweep engine: a single user seed fans out via
``numpy.random.SeedSequence.spawn`` to per-job, per-chunk child streams, so
the execution backend can never change a statistic.
"""

import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.dqlr.protocol import run_dqlr_comparison
from repro.experiments.adaptive import AdaptiveConfig, apply_adaptive
from repro.experiments.executor import PlanExecution, SweepExecutor
from repro.experiments.jobs import SweepPlan
from repro.experiments.store import ResultStore
from repro.experiments.sweep import compare_policies, lpr_time_series, run_single

CONFIGS = [
    dict(distance=3, policy="eraser", shots=8, cycles=1),
    dict(distance=3, policy="always-lrc", shots=8, cycles=1),
]


def build_plan(seed=123, chunk_shots=3, configs=CONFIGS):
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


class TestBackendEquivalence:
    def test_serial_equals_parallel_exactly(self):
        """Regression pin: jobs>1 must not change any statistic."""
        serial = SweepExecutor(jobs=1).run(build_plan())
        parallel = SweepExecutor(jobs=2).run(build_plan())
        assert len(serial) == len(parallel) == len(CONFIGS)
        for a, b in zip(serial, parallel):
            assert a.statistically_equal(b)
            np.testing.assert_array_equal(a.lpr_data, b.lpr_data)
            np.testing.assert_array_equal(a.lpr_parity, b.lpr_parity)
            assert a.speculation == b.speculation

    def test_compare_policies_serial_equals_parallel(self):
        kwargs = dict(
            distances=[3], policies=["eraser", "optimal"], cycles=1, shots=7,
            seed=99, chunk_shots=3,
        )
        serial = compare_policies(jobs=1, **kwargs)
        parallel = compare_policies(jobs=2, **kwargs)
        for a, b in zip(serial, parallel):
            assert a.statistically_equal(b)

    def test_dqlr_serial_equals_parallel(self):
        kwargs = dict(distances=[3], policies=["dqlr", "eraser"], cycles=1,
                      shots=6, seed=5, chunk_shots=3)
        serial = run_dqlr_comparison(jobs=1, **kwargs)
        parallel = run_dqlr_comparison(jobs=2, **kwargs)
        for a, b in zip(serial, parallel):
            assert a.statistically_equal(b)

    def test_results_in_plan_order(self):
        results = SweepExecutor(jobs=2).run(build_plan())
        assert [r.policy for r in results] == ["eraser", "always-lrc"]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)


class TestChunkFrontier:
    """Every backend dispatches through ``claim_tasks``; its order comes
    from the plan (2 jobs x 3 chunks here)."""

    def test_claim_order_is_job_major_without_stopping_targets(self):
        execution = PlanExecution(build_plan())
        assert execution.claim_tasks(4) == [(0, 0), (0, 1), (0, 2), (1, 0)]
        assert execution.claim_tasks(4) == [(1, 1), (1, 2)]
        assert execution.claim_tasks(4) == []

    def test_claim_order_is_round_robin_with_a_stopping_target(self):
        plan = apply_adaptive(build_plan(), AdaptiveConfig(target_ci_halfwidth=0.1))
        execution = PlanExecution(plan)
        assert execution.claim_tasks(4) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_pool_never_exceeds_pending_chunks(self, monkeypatch):
        widths = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                widths.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr("repro.experiments.executor.ProcessPoolExecutor", RecordingPool)
        one_chunk_jobs = build_plan(chunk_shots=8)
        SweepExecutor(jobs=8).run(one_chunk_jobs)
        # A single pending chunk runs in-process: no pool at all.
        SweepExecutor(jobs=8).run(SweepPlan(one_chunk_jobs.jobs[:1]))
        assert widths == [2]


class TestCaching:
    def test_second_run_does_zero_monte_carlo_work(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
        first = executor.run(build_plan())
        assert executor.last_stats.chunks_run > 0
        assert executor.last_stats.cache_hits == 0

        again = SweepExecutor(jobs=1, cache_dir=tmp_path)
        second = again.run(build_plan())
        assert again.last_stats.chunks_run == 0
        assert again.last_stats.jobs_run == 0
        assert again.last_stats.cache_hits == len(CONFIGS)
        for a, b in zip(first, second):
            assert a.statistically_equal(b)

    def test_cache_hit_skips_execution(self, tmp_path, monkeypatch):
        """Stronger than timing: the chunk runner must never be called."""
        SweepExecutor(jobs=1, cache_dir=tmp_path).run(build_plan())

        def boom(self, index):
            raise AssertionError("cache hit should not execute any chunk")

        monkeypatch.setattr("repro.experiments.jobs.SweepJob.run_chunk", boom)
        results = SweepExecutor(jobs=1, cache_dir=tmp_path).run(build_plan())
        assert len(results) == len(CONFIGS)

    def test_parallel_run_populates_cache_for_serial(self, tmp_path):
        SweepExecutor(jobs=2, cache_dir=tmp_path).run(build_plan())
        executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
        executor.run(build_plan())
        assert executor.last_stats.chunks_run == 0

    def test_different_seed_misses_cache(self, tmp_path):
        SweepExecutor(jobs=1, cache_dir=tmp_path).run(build_plan(seed=1))
        executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
        executor.run(build_plan(seed=2))
        assert executor.last_stats.cache_hits == 0

    def test_cached_sweep_through_public_api(self, tmp_path):
        kwargs = dict(distances=[3], policies=["eraser"], cycles=1, shots=6, seed=4)
        first = compare_policies(cache_dir=tmp_path, **kwargs)
        second = compare_policies(cache_dir=tmp_path, **kwargs)
        assert first.results[0].statistically_equal(second.results[0])
        assert len(list(ResultStore(tmp_path).keys())) == 1

    def test_run_single_and_lpr_share_cache_semantics(self, tmp_path):
        a = run_single(3, "eraser", cycles=1, shots=5, seed=8, cache_dir=tmp_path)
        b = run_single(3, "eraser", cycles=1, shots=5, seed=8, cache_dir=tmp_path)
        assert a.statistically_equal(b)
        series1 = lpr_time_series(3, policies=["eraser"], cycles=1, shots=5,
                                  seed=8, cache_dir=tmp_path)
        series2 = lpr_time_series(3, policies=["eraser"], cycles=1, shots=5,
                                  seed=8, cache_dir=tmp_path)
        np.testing.assert_array_equal(series1["eraser"], series2["eraser"])


class TestResume:
    def test_resume_completes_partially_written_sweep(self, tmp_path):
        """Deleting/corrupting part of the cache recomputes exactly that part."""
        full = SweepExecutor(jobs=1, cache_dir=tmp_path)
        reference = full.run(build_plan())

        store = ResultStore(tmp_path)
        keys = [job.cache_key() for job in build_plan().jobs]
        # Simulate an interruption: one entry gone, one torn mid-write.
        store.remove(keys[0])
        store.json_path(keys[1]).write_text('{"format": 1, "resu')

        resumed = SweepExecutor(jobs=1, cache_dir=tmp_path)
        results = resumed.run(build_plan())
        assert resumed.last_stats.cache_hits == 0
        assert resumed.last_stats.jobs_run == 2
        for a, b in zip(reference, results):
            assert a.statistically_equal(b)

    @staticmethod
    def _downgrade_to_format_1(root):
        """Rewrite every entry under ``root`` in the old two-file layout."""
        store = ResultStore(root)
        for key in list(store.keys()):
            entry = json.loads(store.json_path(key).read_text())
            scalars, arrays = store.load(key).to_state()
            np.savez_compressed(root / f"{key}.npz", **arrays)
            entry.update(format=1, result=scalars)
            store.json_path(key).write_text(json.dumps(entry))

    def test_format_1_entries_are_recomputed(self, tmp_path):
        """A cache written in the old two-file layout is read as all misses."""
        reference = SweepExecutor(jobs=1, cache_dir=tmp_path).run(build_plan())
        self._downgrade_to_format_1(tmp_path)

        resumed = SweepExecutor(jobs=1, cache_dir=tmp_path)
        results = resumed.run(build_plan())
        assert resumed.last_stats.cache_hits == 0
        assert resumed.last_stats.jobs_run == 2
        for a, b in zip(reference, results):
            assert a.statistically_equal(b)
        warm = SweepExecutor(jobs=1, cache_dir=tmp_path)
        warm.run(build_plan())
        assert warm.last_stats.cache_hits == 2

    def test_recompute_over_format_1_cache_leaves_no_npz(self, tmp_path):
        SweepExecutor(jobs=1, cache_dir=tmp_path).run(build_plan())
        self._downgrade_to_format_1(tmp_path)
        assert len(list(tmp_path.glob("*.npz"))) == 2
        SweepExecutor(jobs=1, cache_dir=tmp_path).run(build_plan())
        assert list(tmp_path.glob("*.npz")) == []
        assert len(ResultStore(tmp_path)) == 2

    def test_resume_recomputes_only_missing_jobs(self, tmp_path):
        SweepExecutor(jobs=1, cache_dir=tmp_path).run(build_plan())
        keys = [job.cache_key() for job in build_plan().jobs]
        ResultStore(tmp_path).remove(keys[1])

        resumed = SweepExecutor(jobs=1, cache_dir=tmp_path)
        resumed.run(build_plan())
        assert resumed.last_stats.cache_hits == 1
        assert resumed.last_stats.jobs_run == 1

    def test_jobs_persist_incrementally(self, tmp_path, monkeypatch):
        """Finished jobs must hit the disk before later jobs run.

        A sweep killed part-way should lose only unfinished jobs; this pins
        that the executor saves each job as its chunks complete instead of
        persisting everything at the end of the sweep.
        """
        plan = build_plan()
        original = type(plan.jobs[0]).run_chunk
        crash_key = plan.jobs[1].cache_key()

        def crashing(self, index):
            if self.cache_key() == crash_key:
                raise RuntimeError("simulated crash mid-sweep")
            return original(self, index)

        monkeypatch.setattr("repro.experiments.jobs.SweepJob.run_chunk", crashing)
        with pytest.raises(RuntimeError):
            SweepExecutor(jobs=1, cache_dir=tmp_path).run(build_plan())

        store = ResultStore(tmp_path)
        assert store.load(plan.jobs[0].cache_key()) is not None
        assert store.load(crash_key) is None

        monkeypatch.undo()
        resumed = SweepExecutor(jobs=1, cache_dir=tmp_path)
        resumed.run(build_plan())
        assert resumed.last_stats.cache_hits == 1
        assert resumed.last_stats.jobs_run == 1

    def test_resume_flag_uses_default_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ERASER_REPRO_CACHE_DIR", str(tmp_path / "implicit"))
        executor = SweepExecutor(jobs=1, resume=True)
        executor.run(build_plan())
        assert (tmp_path / "implicit").is_dir()
        resumed = SweepExecutor(jobs=1, resume=True)
        resumed.run(build_plan())
        assert resumed.last_stats.chunks_run == 0

    def test_unseeded_cache_warns(self, tmp_path):
        """Caching without a seed can never hit; the helpers must say so."""
        with pytest.warns(UserWarning, match="fixed seed"):
            compare_policies(distances=[3], policies=["eraser"], cycles=1,
                             shots=4, seed=None, cache_dir=tmp_path)
        with pytest.warns(UserWarning, match="fixed seed"):
            run_dqlr_comparison(distances=[3], policies=["eraser"], cycles=1,
                                shots=4, seed=None, cache_dir=tmp_path)

    def test_generator_seeded_cache_warns(self, tmp_path):
        """A live Generator draws fresh entropy per invocation: same problem."""
        with pytest.warns(UserWarning, match="fixed seed"):
            compare_policies(distances=[3], policies=["eraser"], cycles=1,
                             shots=4, seed=np.random.default_rng(7),
                             cache_dir=tmp_path)

    def test_seeded_cache_does_not_warn(self, tmp_path, recwarn):
        compare_policies(distances=[3], policies=["eraser"], cycles=1,
                         shots=4, seed=3, cache_dir=tmp_path)
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_no_cache_without_flags(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ERASER_REPRO_CACHE_DIR", str(tmp_path / "unused"))
        executor = SweepExecutor(jobs=1)
        executor.run(build_plan())
        assert executor.store is None
        assert not (tmp_path / "unused").exists()
