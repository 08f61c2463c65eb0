"""Tests for adaptive shot allocation.

Covers the low-LER-regime machinery of :mod:`repro.experiments.adaptive`:

* the zero-failure confidence-interval fix (the headline bug: plug-in
  ``ler_stderr`` is 0.0 at 0 failures, hiding all uncertainty — the Wilson
  bounds now exported through ``to_dict`` must stay nonzero),
* the sequential stopping rule (never stops before ``min_chunks``; a
  truncated run is bit-for-bit the prefix of a fixed run; warm reruns
  execute zero chunks; disabling adaptivity is bit-identical to fixed),
* hypothesis property suites for ``wilson_interval``/``binomial_stderr``
  and the stopping-rule statistic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.adaptive import (
    AdaptiveConfig,
    apply_adaptive,
    job_adaptive_config,
)
from repro.experiments.executor import SweepExecutor, SweepStats
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.metrics import (
    binomial_stderr,
    improvement_factor,
    wilson_halfwidth,
    wilson_interval,
)
from repro.experiments.sweep import run_single


def make_job(**overrides):
    fields = dict(
        distance=3, policy="eraser", shots=10, rounds=3, seed_entropy=42,
        spawn_key=(0,), chunk_shots=4,
    )
    fields.update(overrides)
    return SweepJob(**fields)


def build_plan(shots=400, chunk_shots=50, seed=7, p=0.02):
    configs = [dict(distance=3, policy="eraser", shots=shots, cycles=1, p=p)]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


# ----------------------------------------------------------------------
# Satellite 1 (headline): zero-failure points must report nonzero
# uncertainty through the Wilson bounds even though ler_stderr is 0.0.
# ----------------------------------------------------------------------
class TestZeroFailureInterval:
    def test_zero_failures_have_nonzero_wilson_upper_bound(self):
        result = run_single(
            distance=3, policy_name="eraser", p=1e-7, cycles=1, shots=20, seed=0
        )
        assert result.logical_errors == 0
        # The plug-in stderr is degenerately zero — kept for compatibility...
        assert result.logical_error_rate_stderr == 0.0
        # ...but the Wilson interval still expresses the uncertainty.
        low, high = result.logical_error_rate_interval
        assert low == 0.0
        assert high > 0.0
        payload = result.to_dict()
        assert payload["ler_stderr"] == 0.0
        assert payload["ler_ci_low"] == 0.0
        assert payload["ler_ci_high"] == pytest.approx(high)
        assert payload["ler_ci_high"] > 0.0

    def test_interval_matches_wilson_formula(self):
        result = run_single(
            distance=3, policy_name="eraser", p=1e-7, cycles=1, shots=20, seed=0
        )
        assert result.logical_error_rate_interval == pytest.approx(
            wilson_interval(0, result.shots)
        )


# ----------------------------------------------------------------------
# Satellite 2: shots must be validated at construction time.
# ----------------------------------------------------------------------
class TestJobValidation:
    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            make_job(shots=0)

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            make_job(shots=-5)

    def test_zero_chunk_shots_rejected(self):
        with pytest.raises(ValueError, match="chunk_shots"):
            make_job(chunk_shots=0)

    def test_one_shot_is_valid(self):
        assert make_job(shots=1).num_chunks == 1


# ----------------------------------------------------------------------
# Satellite 3: improvement_factor(0, 0) is not an improvement.
# ----------------------------------------------------------------------
class TestImprovementFactor:
    def test_zero_over_zero_is_nan(self):
        assert math.isnan(improvement_factor(0.0, 0.0))

    def test_true_improvement_to_zero_is_inf(self):
        assert improvement_factor(1e-2, 0.0) == float("inf")

    def test_finite_ratio_unchanged(self):
        assert improvement_factor(4e-2, 1e-2) == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Satellite 4a: hypothesis properties of the interval statistics.
# ----------------------------------------------------------------------
class TestWilsonProperties:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_interval_contains_estimate_and_clamps(self, data):
        trials = data.draw(st.integers(min_value=1, max_value=10**6))
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        low, high = wilson_interval(successes, trials)
        estimate = successes / trials
        assert 0.0 <= low <= estimate <= high <= 1.0

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_halfwidth_shrinks_with_more_trials(self, data):
        trials = data.draw(st.integers(min_value=1, max_value=10**5))
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        factor = data.draw(st.integers(min_value=2, max_value=10))
        # Same empirical rate, `factor` times the sample: strictly tighter.
        assert wilson_halfwidth(successes * factor, trials * factor) < (
            wilson_halfwidth(successes, trials)
        )

    @given(trials=st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_rule_of_three_agreement_at_zero_successes(self, trials):
        # At 0 successes the Wilson upper bound tracks the classical
        # rule of three (~3/n): bracketed by 3/(n+4) and 4/n for every n.
        _, high = wilson_interval(0, trials)
        assert 3.0 / (trials + 4) < high < 4.0 / trials

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_binomial_stderr_nonnegative_and_symmetric(self, data):
        trials = data.draw(st.integers(min_value=1, max_value=10**6))
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        stderr = binomial_stderr(successes, trials)
        assert stderr >= 0.0
        assert stderr == pytest.approx(binomial_stderr(trials - successes, trials))

    def test_binomial_stderr_degenerate_at_boundary(self):
        # The documented failure mode the Wilson interval exists to fix.
        assert binomial_stderr(0, 1000) == 0.0
        assert binomial_stderr(1000, 1000) == 0.0


# ----------------------------------------------------------------------
# Satellite 4b: hypothesis properties of the stopping-rule statistic.
# ----------------------------------------------------------------------
class TestAdaptiveConfigProperties:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_satisfied_implies_halfwidth_at_target(self, data):
        target = data.draw(st.floats(min_value=1e-4, max_value=0.5))
        shots = data.draw(st.integers(min_value=1, max_value=10**6))
        errors = data.draw(st.integers(min_value=0, max_value=shots))
        config = AdaptiveConfig(target_ci_halfwidth=target)
        if config.satisfied(errors, shots):
            assert config.halfwidth(errors, shots) <= target

    @given(shots=st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_never_satisfied_without_data_or_targets(self, shots):
        config = AdaptiveConfig(target_ci_halfwidth=0.1)
        assert not config.satisfied(-1, shots)  # undecoded sentinel
        assert not config.satisfied(0, 0)
        assert not AdaptiveConfig().satisfied(0, shots)  # no targets set

    def test_invalid_targets_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(target_ci_halfwidth=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(target_ci_halfwidth=-1.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(target_ci_halfwidth=0.1, min_chunks=0)


# ----------------------------------------------------------------------
# Tentpole: the sequential stopping rule on the executor.
# ----------------------------------------------------------------------
class TestStoppingRule:
    def test_never_stops_before_min_chunks(self):
        # A target so loose it is met by the very first chunk: the rule
        # must still run exactly min_chunks chunks.
        config = AdaptiveConfig(target_ci_halfwidth=0.9, min_chunks=3)
        executor = SweepExecutor(jobs=1, adaptive=config)
        result = executor.run(build_plan(shots=400, chunk_shots=50))[0]
        assert result.shots == 3 * 50
        assert executor.last_stats.jobs_stopped_early == 1
        assert executor.last_stats.shots_saved == 400 - 150

    def test_truncated_run_is_prefix_bit_for_bit(self):
        config = AdaptiveConfig(target_ci_halfwidth=0.2, min_chunks=2)
        executor = SweepExecutor(jobs=1, adaptive=config)
        adaptive = executor.run(build_plan())[0]
        assert executor.last_stats.jobs_stopped_early == 1
        assert adaptive.shots < 400
        fixed = SweepExecutor(jobs=1).run(
            build_plan(shots=adaptive.shots)
        )[0]
        assert fixed.statistically_equal(adaptive)
        np.testing.assert_array_equal(fixed.lpr_data, adaptive.lpr_data)
        np.testing.assert_array_equal(fixed.lpr_parity, adaptive.lpr_parity)

    def test_pool_backend_matches_serial_stop_point(self):
        config = AdaptiveConfig(target_ci_halfwidth=0.2, min_chunks=2)
        serial = SweepExecutor(jobs=1, adaptive=config).run(build_plan())[0]
        pooled = SweepExecutor(jobs=2, adaptive=config).run(build_plan())[0]
        assert pooled.statistically_equal(serial)
        assert pooled.shots == serial.shots

    def test_disabled_adaptivity_is_bit_identical_to_fixed(self):
        fixed = SweepExecutor(jobs=1).run(build_plan())[0]
        plain = SweepExecutor(jobs=1, adaptive=None).run(build_plan())[0]
        assert plain.statistically_equal(fixed)
        np.testing.assert_array_equal(plain.lpr_data, fixed.lpr_data)
        assert plain.shots == 400

    def test_warm_rerun_executes_zero_chunks(self, tmp_path):
        config = AdaptiveConfig(target_ci_halfwidth=0.2, min_chunks=2)
        cold = SweepExecutor(jobs=1, cache_dir=str(tmp_path), adaptive=config)
        first = cold.run(build_plan())[0]
        assert cold.last_stats.chunks_run > 0
        warm = SweepExecutor(jobs=1, cache_dir=str(tmp_path), adaptive=config)
        second = warm.run(build_plan())[0]
        assert warm.last_stats.chunks_run == 0
        assert warm.last_stats.cache_hits == 1
        assert warm.last_stats.shots_saved == 400 - first.shots
        assert second.statistically_equal(first)

    def test_adaptive_targets_do_not_change_cache_identity(self):
        plan = build_plan()
        stamped = apply_adaptive(
            plan, AdaptiveConfig(target_ci_halfwidth=0.1, min_chunks=2)
        )
        for job, adaptive_job in zip(plan.jobs, stamped.jobs):
            assert adaptive_job.target_ci_halfwidth == 0.1
            assert job_adaptive_config(adaptive_job) is not None
            assert adaptive_job.cache_key() == job.cache_key()

    def test_job_carries_the_stamped_config(self):
        # Every AdaptiveConfig field must survive the trip onto the job, so
        # a knob added to the config cannot be dropped silently.
        config = AdaptiveConfig(target_ci_halfwidth=0.1, min_chunks=3)
        for job in apply_adaptive(build_plan(), config).jobs:
            assert job_adaptive_config(job) == config

    def test_stats_wire_roundtrip_and_tolerance(self):
        stats = SweepStats(
            jobs_total=4, cache_hits=1, jobs_run=3, chunks_run=9,
            shots_saved=500, jobs_stopped_early=2,
        )
        rebuilt = SweepStats.from_dict(stats.to_dict())
        assert rebuilt == stats
        # Old wire payloads (pre-adaptive) must still parse.
        legacy = SweepStats.from_dict({"jobs_total": 1, "chunks_run": 2})
        assert legacy.shots_saved == 0
        assert legacy.jobs_stopped_early == 0
        assert "stopped early" in stats.summary()
