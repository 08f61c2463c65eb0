"""Tests for the sweep helpers used by the benchmark harness."""

import hashlib

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.adaptive import AdaptiveConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.sweep import (
    compare_policies,
    ler_vs_cycles,
    ler_vs_distance,
    lpr_time_series,
    run_single,
)
from repro.noise.leakage import LeakageTransportModel


class TestRunSingle:
    def test_basic_run(self):
        result = run_single(3, "eraser", p=1e-3, cycles=1, shots=5, seed=0)
        assert result.policy == "eraser"
        assert result.distance == 3
        assert result.shots == 5

    def test_rounds_override(self):
        result = run_single(3, "no-lrc", cycles=10, rounds=4, shots=2, seed=0)
        assert result.rounds == 4

    def test_leakage_disabled(self):
        result = run_single(3, "no-lrc", cycles=1, shots=5, leakage_enabled=False, seed=0)
        assert result.metadata["leakage_enabled"] is False
        assert result.mean_lpr == 0.0

    def test_alternative_transport_model_recorded(self):
        result = run_single(
            3,
            "no-lrc",
            cycles=1,
            shots=2,
            transport_model=LeakageTransportModel.EXCHANGE,
            seed=0,
        )
        assert result.metadata["transport_model"] == "exchange"


class TestComparePolicies:
    def test_sweep_dimensions(self):
        sweep = compare_policies(
            distances=[3],
            policies=["always-lrc", "eraser"],
            cycles=1,
            shots=3,
            seed=1,
        )
        assert len(sweep) == 2
        assert sweep.policies() == ["always-lrc", "eraser"]
        assert sweep.distances() == [3]

    def test_ler_table_structure(self):
        table = ler_vs_distance([3], policies=["eraser"], cycles=1, shots=3, seed=1)
        assert set(table.keys()) == {"eraser"}
        assert set(table["eraser"].keys()) == {3}

    def test_decode_false_skips_decoding(self):
        sweep = compare_policies(
            distances=[3], policies=["eraser"], cycles=1, shots=3, decode=False, seed=1
        )
        assert sweep.results[0].logical_errors == -1


class TestLprTimeSeries:
    def test_series_lengths(self):
        series = lpr_time_series(3, policies=["no-lrc", "always-lrc"], cycles=2, shots=3, seed=2)
        assert set(series.keys()) == {"no-lrc", "always-lrc"}
        for values in series.values():
            assert values.shape == (6,)
            assert np.all(values >= 0.0)


class TestLerVsCycles:
    def test_table_structure(self):
        table = ler_vs_cycles(3, ["no-lrc"], cycles_list=[1, 2], shots=3, seed=3)
        assert set(table.keys()) == {"no-lrc"}
        assert set(table["no-lrc"].keys()) == {1, 2}

    def test_alias_names_map_to_canonical(self):
        table = ler_vs_cycles(3, ["always"], cycles_list=[1], shots=2, seed=4)
        assert "always-lrc" in table


#: SHA-256 of the newline-joined cache keys of every registry plan built with
#: ``make_plan(shots=64, max_distance=5, seed=3, chunk_shots=16)``, in
#: registry order.  Any change to how the helpers turn arguments into jobs
#: moves a cache key and breaks this pin.
REGISTRY_PLAN_DIGEST = "bd1382e38efddc5dd7c7b99034538a0336c14dd6ab89707f6db61f6164bfbc66"


class TestPlanIdentity:
    def test_registry_plans_keep_their_cache_keys(self):
        keys = [
            job.cache_key()
            for spec in EXPERIMENTS.values()
            if spec.has_plan
            for job in spec.make_plan(shots=64, max_distance=5, seed=3, chunk_shots=16)
        ]
        assert len(keys) == 107
        digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
        assert digest == REGISTRY_PLAN_DIGEST


class TestHelperKeywords:
    def test_unknown_keyword_raises(self):
        with pytest.raises(TypeError):
            compare_policies([3], ["eraser"], cycles=1, shots=2, seed=1, cache_dri="x")

    def test_arguments_past_the_grid_are_keyword_only(self):
        with pytest.raises(TypeError):
            compare_policies([3], ["eraser"], 1e-3, 1, 2, True)

    def test_adaptive_reaches_a_caller_executor(self):
        """``adaptive`` is stamped even when ``executor=`` is given."""
        config = AdaptiveConfig(target_ci_halfwidth=0.2, min_chunks=2)
        kwargs = dict(cycles=1, shots=400, chunk_shots=40, seed=1)
        caller = SweepExecutor()
        stamped = compare_policies([3], ["eraser"], adaptive=config, executor=caller, **kwargs)
        configured = SweepExecutor(adaptive=config)
        expected = compare_policies([3], ["eraser"], executor=configured, **kwargs)
        assert configured.last_stats.chunks_run == 2
        assert caller.last_stats.chunks_run == 2
        assert stamped.results[0].shots == expected.results[0].shots == 80
        assert stamped.results[0].logical_errors == expected.results[0].logical_errors
