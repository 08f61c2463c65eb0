"""Telemetry correctness: counters reconcile exactly with sweep statistics.

Covers the service's live-metrics layer (satellite of the sweep-service PR):
Counter/Gauge/Histogram semantics, canonical snapshot serialisation that
round-trips byte-stable, NDJSON stream lines, and — the load-bearing check —
that after any mix of cold and warm sweeps the registry reconciles exactly
with :class:`~repro.experiments.executor.SweepStats`:
``chunks_executed + chunks_cached == total plan chunks``.
"""

import json

import pytest

from repro.experiments.executor import SweepExecutor, SweepStats
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    canonical_metrics_json,
)
from repro.experiments.store import ResultStore
from repro.service.wire import metrics_ndjson_line, parse_metrics_ndjson


def make_plan(shots=120, chunk_shots=40, policies=("eraser", "always-lrc")):
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
        )
        for index, policy in enumerate(policies)
    ]
    return SweepPlan(jobs)


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
    """chunks_executed + chunks_cached must equal the plan's chunk total."""

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
        stats = SweepStats(
            jobs_total=4,
            cache_hits=1,
            jobs_run=3,
            chunks_run=9,
            elapsed_seconds=1.25,
            chunks_recovered=2,
        )
        assert SweepStats.from_dict(stats.to_dict()) == stats

    def test_from_dict_tolerates_missing_optional(self):
        stats = SweepStats.from_dict({"jobs_total": 1})
        assert stats.jobs_total == 1
        assert stats.chunks_recovered == 0
        # Unknown keys (fields an older service still sends) are ignored.
        assert SweepStats.from_dict({"jobs_total": 1, "retired_field": 2}) == stats
