"""Tests for the job/plan layer of the sweep orchestration engine."""

import dataclasses

import numpy as np
import pytest

from repro.decoder.matching import canonical_method
from repro.experiments import EXPERIMENTS
from repro.experiments import jobs as jobs_module
from repro.experiments.executor import PlanExecution, SweepExecutor
from repro.experiments.jobs import (
    DEFAULT_CHUNK_SHOTS,
    SweepJob,
    SweepPlan,
    canonical_policy_name,
    merge_chunk_results,
    resolve_policy,
    resolve_rounds,
)
from repro.experiments.sweep import compare_policies_plan
from repro.noise.profiles import NoiseProfile
from repro.service.journal import SubmissionJournal


def make_job(**overrides):
    fields = dict(
        distance=3, policy="eraser", shots=10, rounds=3, seed_entropy=42,
        spawn_key=(0,), chunk_shots=4,
    )
    fields.update(overrides)
    return SweepJob(**fields)


class TestPolicyResolution:
    def test_aliases_canonicalise(self):
        assert canonical_policy_name("always") == "always-lrc"
        assert canonical_policy_name("eraser+m") == "eraser+m"

    def test_dqlr_baseline_resolves(self):
        assert resolve_policy("dqlr").name == "dqlr"

    def test_policy_kwargs_forwarded(self):
        policy = resolve_policy("eraser", num_backups=3)
        assert policy.name == "eraser"


class TestResolveRounds:
    def test_cycles_scale_with_distance(self):
        assert resolve_rounds(5, cycles=10, rounds=None) == 50

    def test_rounds_override(self):
        assert resolve_rounds(5, cycles=10, rounds=7) == 7

    def test_missing_both_raises(self):
        with pytest.raises(ValueError):
            resolve_rounds(5, cycles=None, rounds=None)


class TestChunking:
    def test_chunk_sizes_cover_shots(self):
        job = make_job(shots=10, chunk_shots=4)
        assert job.num_chunks == 3
        assert job.chunk_sizes() == [4, 4, 2]

    def test_single_chunk_when_shots_small(self):
        job = make_job(shots=3, chunk_shots=100)
        assert job.num_chunks == 1
        assert job.chunk_sizes() == [3]

    def test_chunk_seed_matches_seedsequence_spawn(self):
        job = make_job()
        spawned = job.seed_sequence().spawn(job.num_chunks)
        for index in range(job.num_chunks):
            direct = job.chunk_seed(index)
            assert direct.generate_state(4).tolist() == spawned[index].generate_state(4).tolist()

    def test_chunk_seed_out_of_range(self):
        with pytest.raises(IndexError):
            make_job().chunk_seed(99)


class TestPlanBuild:
    def test_jobs_get_distinct_spawn_keys(self):
        plan = SweepPlan.build(
            [
                dict(distance=3, policy="eraser", shots=5, cycles=1),
                dict(distance=3, policy="always", shots=5, cycles=1),
            ],
            seed=7,
        )
        assert [job.spawn_key for job in plan.jobs] == [(0,), (1,)]
        assert plan.jobs[0].seed_entropy == plan.jobs[1].seed_entropy == 7
        assert plan.jobs[1].policy == "always-lrc"

    def test_same_seed_same_plan_identity(self):
        configs = [dict(distance=3, policy="eraser", shots=5, cycles=1)]
        a = SweepPlan.build(configs, seed=11)
        b = SweepPlan.build(configs, seed=11)
        assert a.jobs[0].cache_key() == b.jobs[0].cache_key()

    def test_different_seed_different_identity(self):
        configs = [dict(distance=3, policy="eraser", shots=5, cycles=1)]
        a = SweepPlan.build(configs, seed=11)
        b = SweepPlan.build(configs, seed=12)
        assert a.jobs[0].cache_key() != b.jobs[0].cache_key()

    def test_unseeded_plans_differ_between_builds(self):
        configs = [dict(distance=3, policy="eraser", shots=5, cycles=1)]
        a = SweepPlan.build(configs, seed=None)
        b = SweepPlan.build(configs, seed=None)
        assert a.jobs[0].cache_key() != b.jobs[0].cache_key()

    def test_generator_seed_accepted(self):
        configs = [dict(distance=3, policy="eraser", shots=5, cycles=1)]
        plan = SweepPlan.build(configs, seed=np.random.default_rng(3))
        again = SweepPlan.build(configs, seed=np.random.default_rng(3))
        assert plan.jobs[0].cache_key() == again.jobs[0].cache_key()

    def test_chunk_shots_part_of_identity(self):
        configs = [dict(distance=3, policy="eraser", shots=5, cycles=1)]
        a = SweepPlan.build(configs, seed=1, chunk_shots=2)
        b = SweepPlan.build(configs, seed=1, chunk_shots=3)
        assert a.jobs[0].cache_key() != b.jobs[0].cache_key()

    def test_default_chunk_shots(self):
        plan = SweepPlan.build(
            [dict(distance=3, policy="eraser", shots=5, cycles=1)], seed=1
        )
        assert plan.jobs[0].chunk_shots == DEFAULT_CHUNK_SHOTS

    def test_invalid_chunk_shots_rejected(self):
        configs = [dict(distance=3, policy="eraser", shots=5, cycles=1)]
        for invalid in (0, -1):
            with pytest.raises(ValueError, match="chunk_shots"):
                SweepPlan.build(configs, seed=1, chunk_shots=invalid)

    def test_totals(self):
        plan = SweepPlan.build(
            [
                dict(distance=3, policy="eraser", shots=5, cycles=1),
                dict(distance=3, policy="optimal", shots=7, cycles=1),
            ],
            seed=1,
            chunk_shots=3,
        )
        assert plan.total_shots == 12
        assert plan.total_chunks == 5

    def test_with_seed_rederives_every_job(self):
        plan = SweepPlan.build(
            [dict(distance=3, policy="eraser", shots=5, cycles=1)], seed=1
        )
        reseeded = plan.with_seed(2)
        assert reseeded.jobs[0].seed_entropy == 2
        assert reseeded.jobs[0].spawn_key == plan.jobs[0].spawn_key


class TestMergeChunkResults:
    def test_merge_matches_direct_aggregation(self):
        job = make_job(shots=10, chunk_shots=4)
        parts = [job.run_chunk(index) for index in range(job.num_chunks)]
        merged = merge_chunk_results(parts)
        assert merged.shots == 10
        assert merged.logical_errors == sum(p.logical_errors for p in parts)
        expected_lpr = sum(p.lpr_total * p.shots for p in parts) / 10
        np.testing.assert_array_equal(merged.lpr_total, expected_lpr)
        assert merged.speculation.total == sum(p.speculation.total for p in parts)

    def test_merge_single_part_is_identity(self):
        job = make_job(shots=4, chunk_shots=8)
        part = job.run_chunk(0)
        assert merge_chunk_results([part]) is part

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_chunk_results([])

    def test_merge_mismatched_configs_raises(self):
        a = make_job(shots=4, chunk_shots=8).run_chunk(0)
        b = make_job(shots=4, chunk_shots=8, rounds=6).run_chunk(0)
        with pytest.raises(ValueError):
            merge_chunk_results([a, b])

    def test_merge_decode_disabled_stays_disabled(self):
        job = make_job(shots=6, chunk_shots=3, decode=False)
        merged = job.run()
        assert merged.logical_errors == -1


class TestJobExecution:
    def test_run_is_deterministic(self):
        job = make_job(shots=6, chunk_shots=3)
        a = job.run()
        b = job.run()
        assert a.statistically_equal(b)

    def test_chunk_independent_of_other_chunks(self):
        """Chunk 1's stream must not depend on whether chunk 0 ran."""
        job = make_job(shots=8, chunk_shots=4)
        only_second = job.run_chunk(1)
        job.run_chunk(0)
        again = job.run_chunk(1)
        assert only_second.statistically_equal(again)

    def test_policy_kwargs_reach_the_policy(self):
        plan = SweepPlan.build(
            [
                dict(
                    distance=3, policy="eraser", shots=4, cycles=1,
                    policy_kwargs={"speculation_threshold_override": 1},
                ),
                dict(
                    distance=3, policy="eraser", shots=4, cycles=1,
                    policy_kwargs={"speculation_threshold_override": 4},
                ),
            ],
            seed=5,
        )
        assert plan.jobs[0].cache_key() != plan.jobs[1].cache_key()
        conservative = plan.jobs[0].run()
        aggressive = plan.jobs[1].run()
        assert conservative.lrcs_per_round >= aggressive.lrcs_per_round


class TestScenarioIdentity:
    """Cache identity of the scenario-diversity knobs (code family, profile)."""

    def test_default_config_omits_scenario_keys(self):
        """Pre-existing cache entries must keep their addresses: the
        degenerate defaults stay out of the canonical config entirely."""
        config = make_job().config_dict()
        assert "code_family" not in config
        assert "noise_profile" not in config

    def test_non_default_family_and_profile_change_the_key(self):
        base = make_job()
        rep = make_job(code_family="repetition")
        biased = make_job(noise_profile='{"eta":4.0,"kind":"biased"}')
        keys = {base.cache_key(), rep.cache_key(), biased.cache_key()}
        assert len(keys) == 3

    def test_plan_build_normalises_profile_forms(self):
        from repro.noise.profiles import NoiseProfile

        profile = NoiseProfile.biased(4.0)
        config = dict(distance=3, policy="eraser", shots=4, rounds=3)
        plans = [
            SweepPlan.build([dict(config, noise_profile=form)], seed=1)
            for form in (
                profile, profile.canonical_json(), profile.to_config(), "biased:eta=4",
            )
        ]
        keys = {plan.jobs[0].cache_key() for plan in plans}
        assert len(keys) == 1
        assert plans[0].jobs[0].noise_profile == profile.canonical_json()

    def test_uniform_profile_normalises_to_none(self):
        from repro.noise.profiles import NoiseProfile

        plan = SweepPlan.build(
            [dict(distance=3, policy="eraser", shots=4, rounds=3,
                  noise_profile=NoiseProfile.uniform())],
            seed=1,
        )
        assert plan.jobs[0].noise_profile is None
        plain = SweepPlan.build(
            [dict(distance=3, policy="eraser", shots=4, rounds=3)], seed=1
        )
        assert plan.jobs[0].cache_key() == plain.jobs[0].cache_key()

    def test_code_family_aliases_canonicalise(self):
        plan = SweepPlan.build(
            [dict(distance=3, policy="eraser", shots=4, rounds=3,
                  code_family="Repetition_Code")],
            seed=1,
        )
        assert plan.jobs[0].code_family == "repetition"

    def test_scenario_job_runs_and_reports_metadata(self):
        job = make_job(
            code_family="repetition",
            noise_profile='{"eta":4.0,"kind":"biased"}',
            shots=4,
            chunk_shots=4,
        )
        result = job.run()
        assert result.metadata["code_family"] == "repetition"
        assert result.metadata["noise_profile"] == {"kind": "biased", "eta": 4.0}


class TestResultSemanticsIdentity:
    """``RESULT_SEMANTICS_VERSION`` salts every cache address derived from a job."""

    def test_version_is_part_of_the_identity(self):
        config = make_job().config_dict()
        assert config["semantics"] == jobs_module.RESULT_SEMANTICS_VERSION

    def test_bumping_the_version_moves_job_and_chunk_keys(self, monkeypatch):
        job = make_job()
        execution = PlanExecution(SweepPlan([job]))
        job_key, chunk_key = job.cache_key(), execution._chunk_key(0, 1)
        prefix_key = make_job(shots=job.chunk_shots).cache_key()

        monkeypatch.setattr(
            jobs_module, "RESULT_SEMANTICS_VERSION",
            jobs_module.RESULT_SEMANTICS_VERSION + 1,
        )
        assert job.cache_key() != job_key
        assert execution._chunk_key(0, 1) != chunk_key
        assert make_job(shots=job.chunk_shots).cache_key() != prefix_key

    def test_entries_of_an_older_version_are_misses(self, tmp_path, monkeypatch):
        plan = SweepPlan([make_job()])
        monkeypatch.setattr(
            jobs_module, "RESULT_SEMANTICS_VERSION",
            jobs_module.RESULT_SEMANTICS_VERSION - 1,
        )
        SweepExecutor(jobs=1, cache_dir=tmp_path).run(plan)
        monkeypatch.undo()

        executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
        executor.run(plan)
        assert executor.last_stats.cache_hits == 0
        assert executor.last_stats.jobs_run == 1

    def test_warm_rerun_is_all_cache_hits(self, tmp_path):
        plan = SweepPlan.build(
            [dict(distance=3, policy=policy, shots=12, rounds=3)
             for policy in ("eraser", "always-lrc")],
            seed=11,
            chunk_shots=4,
        )
        cold = SweepExecutor(jobs=1, cache_dir=tmp_path)
        first = cold.run(plan)
        assert cold.last_stats.chunks_run == 6

        warm = SweepExecutor(jobs=1, cache_dir=tmp_path)
        second = warm.run(plan)
        assert warm.last_stats.cache_hits == 2
        assert warm.last_stats.jobs_run == 0
        assert warm.last_stats.chunks_run == 0
        for a, b in zip(first, second):
            assert a.statistically_equal(b)
            assert a.metadata["engine"] == "packed"


class TestEngineValidation:
    @pytest.mark.parametrize("engine", ["batched", "nope"])
    def test_unknown_engine_rejected_at_construction(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            make_job(engine=engine)

    def test_wire_plan_with_unknown_engine_rejected(self):
        wire = SweepPlan([make_job()]).to_wire()
        wire["jobs"][0]["engine"] = "batched"
        with pytest.raises(ValueError, match="unknown engine 'batched'"):
            SweepPlan.from_wire(wire)


class TestDecoderMethodValidation:
    @pytest.mark.parametrize("method", ["nope", "networkx", "", "UF", " union-find "])
    def test_unknown_decoder_method_rejected_at_construction(self, method):
        with pytest.raises(ValueError, match="unknown matching method"):
            make_job(decoder_method=method)

    @pytest.mark.parametrize("method", ["auto", "mwpm", "exact", "blossom", "greedy"])
    def test_every_alias_accepted(self, method):
        job = make_job(decoder_method=method)
        assert job.decoder_method == canonical_method(method)
        assert job.cache_key() == make_job(decoder_method=canonical_method(method)).cache_key()

    def test_wire_plan_with_unknown_decoder_method_rejected(self):
        wire = SweepPlan([make_job()]).to_wire()
        wire["jobs"][0]["decoder_method"] = "nope"
        with pytest.raises(ValueError, match="unknown matching method 'nope'"):
            SweepPlan.from_wire(wire)


class TestPolicyKwargsValidation:
    def test_unknown_kwarg_rejected_at_construction(self):
        with pytest.raises(ValueError, match="rejects policy_kwargs"):
            make_job(policy_kwargs={"speculation": False})

    def test_wire_plan_with_unknown_kwarg_rejected(self):
        wire = SweepPlan([make_job()]).to_wire()
        wire["jobs"][0]["policy_kwargs"] = [["speculation", False]]
        with pytest.raises(ValueError, match="'speculation'"):
            SweepPlan.from_wire(wire)

    def test_valid_kwargs_keep_the_canonical_policy_name(self):
        job = make_job(policy="eraser", policy_kwargs={"use_multilevel_readout": True})
        assert job.policy == "eraser"


class TestCanonicalJob:
    """Every construction path yields one canonical job and one cache key."""

    def plan_job(self):
        return SweepPlan.build(
            [dict(
                distance=3, policy="eraser", shots=8, cycles=1,
                code_family="rotated-surface",
                noise_profile=NoiseProfile.biased(4.0),
                policy_kwargs={"num_backups": 2, "use_multilevel_readout": False},
                decoder_method="mwpm",
            )],
            seed=5,
        ).jobs[0]

    def test_wire_spellings_decode_to_the_plan_job(self):
        job = self.plan_job()
        wire = dict(
            job.to_wire(),
            policy="ERASER",
            code_family="surface",
            noise_profile="biased:eta=4",
            policy_kwargs=[["use_multilevel_readout", False], ["num_backups", 2]],
            decoder_method="exact",
        )
        restored = SweepJob.from_wire(wire)
        assert restored == job
        assert restored.cache_key() == job.cache_key()

    def test_registry_jobs_round_trip_the_wire(self):
        jobs = [
            job
            for spec in EXPERIMENTS.values()
            if spec.has_plan
            for job in spec.make_plan(shots=64, max_distance=5, seed=3, chunk_shots=16)
        ]
        assert len(jobs) == 107
        for job in jobs:
            assert SweepJob.from_wire(job.to_wire()) == job


class TestWireCompatibility:
    #: Wire keys of the retired bitmask-DP size limit, decoder LRU bound,
    #: on-disk LRU store and relative stopping target, still present in
    #: journals and submissions written before their removal.
    RETIRED_KEYS = (
        "decoder_dp_threshold",
        "decoder_cache_size",
        "decoder_artifact_dir",
        "target_rel_halfwidth",
    )

    def test_default_cache_key_is_pinned(self):
        # The key the job had while the DP knob still existed.
        assert make_job().cache_key() == (
            "0b1ded2b48fe92d5c8cc55e2cb116de3e2ab4fd84df2a0e0429e7986725e19a3"
        )

    @pytest.mark.parametrize("value", [None, 0, 12, "artifact-cache"])
    def test_retired_key_is_dropped_with_any_value(self, value):
        job = make_job()
        payload = dict(job.to_wire(), **{key: value for key in self.RETIRED_KEYS})
        restored = SweepJob.from_wire(payload)
        assert restored == job
        assert restored.cache_key() == job.cache_key()

    def test_other_unknown_keys_still_raise(self):
        payload = dict(make_job().to_wire(), decoder_dp_limit=12)
        with pytest.raises(TypeError):
            SweepJob.from_wire(payload)

    @pytest.mark.parametrize("value", [None, "artifact-cache"])
    def test_retired_keys_are_dropped_on_journal_replay(self, tmp_path, value):
        job = make_job()
        payload = dict(job.to_wire(), **{key: value for key in self.RETIRED_KEYS})
        with SubmissionJournal(tmp_path / "journal") as journal:
            journal.append(
                {"event": "accepted", "id": "sweep-000001", "key": None, "ts": 0.0,
                 "plan": {"jobs": [payload]}}
            )
        (record,) = SubmissionJournal(tmp_path / "journal").replay().live.values()
        replayed = SweepPlan.from_wire(record["plan"])
        assert replayed.jobs == [job]
        assert replayed.jobs[0].cache_key() == job.cache_key()


class TestFieldRoles:
    def test_every_field_is_identity_or_perf_only(self):
        """Every ``SweepJob`` field is either identity or perf-only.

        Changing an identity field moves ``cache_key()``; changing a
        perf-only field leaves it alone.  A new field fails here until it
        is classified.
        """
        base = compare_policies_plan(
            distances=[3], policies=["eraser"], shots=10, cycles=2, seed=3
        ).jobs[0]
        names = {f.name for f in dataclasses.fields(SweepJob)}
        assert names == set(IDENTITY_CHANGES) | set(PERF_ONLY_CHANGES)
        assert len(IDENTITY_CHANGES) == 18
        assert not names & set(TestWireCompatibility.RETIRED_KEYS)
        for name, value in IDENTITY_CHANGES.items():
            assert getattr(base, name) != value, name
            assert dataclasses.replace(base, **{name: value}).cache_key() != base.cache_key(), name
        for name, value in PERF_ONLY_CHANGES.items():
            assert getattr(base, name) != value, name
            assert dataclasses.replace(base, **{name: value}).cache_key() == base.cache_key(), name


#: A changed value for every ``SweepJob`` field that joins the cache identity.
IDENTITY_CHANGES = {
    "distance": 5,
    "policy": "always-lrc",
    "shots": 11,
    "rounds": 7,
    "p": 2e-3,
    "code_family": "repetition",
    "noise_profile": NoiseProfile.biased(10.0).canonical_json(),
    "leakage_enabled": False,
    "transport_model": "exchange",
    "protocol": "dqlr",
    "decode": False,
    "decoder_method": "mwpm",
    "engine": "scalar",
    "batch_size": 64,
    "policy_kwargs": (("num_backups", 2),),
    "seed_entropy": 1,
    "spawn_key": (9,),
    "chunk_shots": 3,
}

#: A changed value for every perf-only ``SweepJob`` field.
PERF_ONLY_CHANGES = {
    "target_ci_halfwidth": 0.1,
    "adaptive_min_chunks": 4,
}
