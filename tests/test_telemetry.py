"""Telemetry correctness: counters reconcile exactly with sweep statistics.

Covers the service's live-metrics layer: Counter/Gauge/Histogram semantics,
canonical snapshot serialisation that round-trips byte-stable, NDJSON stream
lines, and — the load-bearing check — that after any mix of cold, warm and
adaptive sweeps every registry counter equals its
:class:`~repro.experiments.executor.SweepStats` field, and that
``chunks_executed + chunks_cached + chunks_recovered + chunks_skipped -
chunks_discarded`` equals the plan's chunk total, stragglers past an early
stop point included.
"""

import json
from dataclasses import fields, replace

import pytest

from repro.experiments.executor import (
    PlanExecution,
    SweepExecutor,
    SweepStats,
    execute_chunk_with_stats,
)
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    canonical_metrics_json,
)
from repro.experiments.store import ResultStore
from repro.service.wire import metrics_ndjson_line, parse_metrics_ndjson


def make_plan(shots=120, chunk_shots=40, policies=("eraser", "always-lrc"), **overrides):
    jobs = [
        SweepJob(
            distance=3,
            policy=policy,
            shots=shots,
            rounds=3,
            p=2e-3,
            chunk_shots=chunk_shots,
            seed_entropy=99,
            spawn_key=(index,),
            **overrides,
        )
        for index, policy in enumerate(policies)
    ]
    return SweepPlan(jobs)


def adaptive_plan(shots=120):
    """One eraser job of 20-shot chunks whose loose target stops it at 2."""
    return make_plan(
        shots=shots,
        chunk_shots=20,
        policies=("eraser",),
        target_ci_halfwidth=0.5,
        adaptive_min_chunks=2,
    )


def chunk_identity(counts, names=None):
    """``chunks_done`` rebuilt from ``SweepStats.to_dict()`` or, with
    ``names`` mapping fields to registry names, from registry counters."""
    names = names or {}
    run, cached, recovered, skipped, discarded = (
        counts.get(names.get(field, field), 0)
        for field in (
            "chunks_run", "chunks_cached", "chunks_recovered", "chunks_skipped", "chunks_discarded"
        )
    )
    return run + cached + recovered + skipped - discarded


#: Reconciliation runs: (plan, plan run beforehand without a registry, shards).
RUNS = {
    "cold": (make_plan, None, 1),
    "warm": (make_plan, make_plan, 1),
    "mixed": (make_plan, lambda: SweepPlan(make_plan().jobs[:1]), 1),
    "adaptive-cold": (adaptive_plan, None, 1),
    "adaptive-warm": (adaptive_plan, adaptive_plan, 1),
    "sharded": (make_plan, lambda: SweepPlan(make_plan().jobs[:1]), 4),
}


class TestPrimitives:
    def test_counter_monotone(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 2

    def test_histogram_buckets_and_aggregates(self):
        histogram = MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(6.25)
        assert snapshot["min"] == 0.05
        assert snapshot["max"] == 5.0
        assert snapshot["buckets"] == {"0.1": 1, "1": 2, "+inf": 1}

    def test_histogram_empty_snapshot(self):
        snapshot = MetricsRegistry().histogram("h", buckets=(1.0,)).snapshot()
        assert snapshot["count"] == 0
        assert snapshot["min"] is None and snapshot["max"] is None

    def test_default_latency_buckets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestRegistry:
    def test_lazy_instruments_are_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_merge_counts_prefixes(self):
        registry = MetricsRegistry()
        registry.merge_counts({"hits": 2, "misses": 1}, prefix="decoder_")
        registry.merge_counts({"hits": 3}, prefix="decoder_")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["decoder_hits"] == 5
        assert snapshot["counters"]["decoder_misses"] == 1

    def test_snapshot_round_trip_byte_stable(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(7)
        registry.gauge("depth").set(2.5)
        registry.histogram("lat", buckets=(0.5, 2.0)).observe(0.4)
        registry.histogram("lat").observe(3.0)
        text = registry.to_json()
        rebuilt = MetricsRegistry.from_snapshot(json.loads(text))
        assert rebuilt.to_json() == text
        # And the rebuilt registry keeps counting correctly.
        rebuilt.counter("jobs").inc()
        assert rebuilt.counter("jobs").value == 8
        rebuilt.histogram("lat").observe(1.0)
        assert rebuilt.histogram("lat").snapshot()["count"] == 3

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_metrics_json({"b": 1, "a": {"z": 1, "y": 2}})
        assert text == '{"a":{"y":2,"z":1},"b":1}'

    def test_ndjson_line_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(3)
        line = metrics_ndjson_line(registry.snapshot(), seq=5)
        assert "\n" not in line
        payload = parse_metrics_ndjson(line)
        assert payload["seq"] == 5
        assert payload["metrics"]["counters"]["n"] == 3
        # Deterministic without a timestamp: identical snapshots give
        # identical lines, so diffs of two streams are meaningful.
        assert line == metrics_ndjson_line(registry.snapshot(), seq=5)

    def test_ndjson_timestamp_included_when_given(self):
        payload = parse_metrics_ndjson(metrics_ndjson_line({}, seq=1, timestamp=12.5))
        assert payload["ts"] == 12.5


class TestReconciliation:
    """Every registry counter mirrors its stats field; chunks add up."""

    @pytest.mark.parametrize("run", list(RUNS))
    def test_every_counter_matches_its_stats_field(self, tmp_path, run):
        make, warm, shards = RUNS[run]
        store = ResultStore(tmp_path / "cache", shards=shards)
        if warm is not None:
            SweepExecutor(store=store).run(warm())
        registry = MetricsRegistry()
        executor = SweepExecutor(store=store, metrics=registry)
        plan = make()
        executor.run(plan)
        counters = registry.snapshot()["counters"]
        stats = executor.last_stats
        for field, name in SweepStats.counter_names().items():
            assert counters.get(name, 0) == getattr(stats, field), field
        assert chunk_identity(stats.to_dict()) == plan.total_chunks

    @pytest.mark.parametrize("method", ["mwpm", "auto", "greedy"])
    def test_decoder_paths_add_up_to_matched(self, method):
        """Each matched syndrome took one decoder path, per chunk and in the
        ``decoder_*`` counters merged into the registry."""
        job = make_plan(shots=80, policies=("eraser",), decoder_method=method).jobs[0]
        registry = MetricsRegistry()
        for chunk in range(job.num_chunks):
            _, stats = execute_chunk_with_stats(job, chunk)
            assert stats["matched"] == stats["enumerated"] + stats["blossom"] + stats["greedy"]
            registry.merge_counts(stats, prefix="decoder_")
        counters = registry.snapshot()["counters"]
        paths = ("enumerated", "blossom", "greedy")
        served = [counters.get(f"decoder_{path}", 0) for path in paths]
        assert counters["decoder_matched"] == sum(served) > 0
        assert (counters.get("decoder_enumerated", 0) > 0) == (method != "greedy")

    def test_stragglers_past_the_stop_point_are_discarded(self):
        plan = adaptive_plan(shots=80)
        job = plan.jobs[0]
        registry = MetricsRegistry()
        execution = PlanExecution(plan, metrics=registry)
        assert execution.claim_tasks(4) == [(0, chunk) for chunk in range(4)]
        chunks = [job.run_chunk(chunk) for chunk in range(4)]
        assert not execution.record_chunk(0, 0, chunks[0])
        assert execution.record_chunk(0, 1, chunks[1])  # stops at L=2
        assert not execution.record_chunk(0, 2, chunks[2])
        assert not execution.record_chunk(0, 3, chunks[3])
        stats = execution.stats
        assert stats.jobs_stopped_early == 1
        assert stats.chunks_skipped == 2
        assert stats.chunks_discarded == 2
        assert execution.chunks_done == plan.total_chunks
        assert chunk_identity(stats.to_dict()) == plan.total_chunks
        counters = registry.snapshot()["counters"]
        names = SweepStats.counter_names()
        assert chunk_identity(counters, names) == plan.total_chunks
        fixed = SweepExecutor().run_job(replace(job, shots=2 * job.chunk_shots))
        assert execution.results[0].statistically_equal(fixed)

    def test_cold_run_counts_every_chunk_as_executed(self, tmp_path):
        registry = MetricsRegistry()
        plan = make_plan()
        executor = SweepExecutor(
            cache_dir=str(tmp_path / "cache"), metrics=registry
        )
        executor.run(plan)
        snapshot = registry.snapshot()["counters"]
        assert snapshot["chunks_executed"] == plan.total_chunks
        assert snapshot.get("chunks_cached", 0) == 0
        assert snapshot["sweep_jobs_completed"] == len(plan.jobs)
        assert executor.last_stats.chunks_run == snapshot["chunks_executed"]

    def test_warm_run_counts_every_chunk_as_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        SweepExecutor(cache_dir=cache).run(make_plan())
        registry = MetricsRegistry()
        executor = SweepExecutor(cache_dir=cache, metrics=registry)
        executor.run(make_plan())
        snapshot = registry.snapshot()["counters"]
        assert snapshot.get("chunks_executed", 0) == 0
        assert snapshot["chunks_cached"] == make_plan().total_chunks
        assert snapshot["sweep_jobs_cached"] == 2
        assert executor.last_stats.cache_hits == 2

    def test_mixed_run_reconciles_exactly(self, tmp_path):
        cache = str(tmp_path / "cache")
        # Warm exactly one of the two jobs.
        warm = SweepPlan([make_plan().jobs[0]])
        SweepExecutor(cache_dir=cache).run(warm)
        registry = MetricsRegistry()
        plan = make_plan()
        executor = SweepExecutor(cache_dir=cache, metrics=registry)
        executor.run(plan)
        counters = registry.snapshot()["counters"]
        executed = counters.get("chunks_executed", 0)
        cached = counters.get("chunks_cached", 0)
        assert executed + cached == plan.total_chunks
        assert cached == plan.jobs[0].num_chunks
        assert executed == plan.jobs[1].num_chunks
        stats = executor.last_stats
        assert stats.cache_hits == 1 and stats.jobs_run == 1
        assert stats.chunks_run == executed

    def test_sharded_store_reconciles_identically(self, tmp_path):
        registry = MetricsRegistry()
        store = ResultStore(tmp_path / "cache", shards=4)
        plan = make_plan()
        SweepExecutor(store=store, metrics=registry).run(plan)
        SweepExecutor(store=store, metrics=registry).run(make_plan())
        counters = registry.snapshot()["counters"]
        assert counters["chunks_executed"] == plan.total_chunks
        assert counters["chunks_cached"] == plan.total_chunks


class TestSweepStatsWire:
    def test_from_dict_round_trip(self):
        # Every field distinct and non-default: a field dropped from the
        # wire cannot round-trip by accident.
        stats = SweepStats(
            **{
                item.name: type(item.default)(index + 1)
                for index, item in enumerate(fields(SweepStats))
            }
        )
        assert SweepStats.from_dict(json.loads(json.dumps(stats.to_dict()))) == stats
        # A payload from an older service lacks the newer counters.
        newer = ("chunks_cached", "chunks_skipped", "chunks_discarded", "jobs_completed")
        older = {key: value for key, value in stats.to_dict().items() if key not in newer}
        assert SweepStats.from_dict(older) == replace(stats, **dict.fromkeys(newer, 0))

    def test_from_dict_tolerates_missing_optional(self):
        stats = SweepStats.from_dict({"jobs_total": 1})
        assert stats.jobs_total == 1
        assert stats.chunks_recovered == 0
        # Unknown keys (fields an older service still sends) are ignored.
        assert SweepStats.from_dict({"jobs_total": 1, "retired_field": 2}) == stats
