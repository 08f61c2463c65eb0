"""Differential test suite for the noise-profile and code-family layer.

Locks down the scenario-diversity axes that extend the paper's Section 5.2.1
uniform error model:

* the ``uniform`` profile is *bit-identical* to the plain ``NoiseParams``
  path on every Monte-Carlo engine under a fixed seed (and so are degenerate
  per-qubit profiles, which exercise the array plumbing with uniform rates);
* for every non-uniform profile and for the repetition-code family, the
  scalar and packed engines remain statistically equivalent;
* each profile shape has the physics it claims (Z-bias skews the Pauli mix,
  hot spots concentrate errors, heterogeneity is seed-reproducible across
  processes);
* validation rejects malformed profiles and mismatched array sizes.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.codes import RepetitionCode, RotatedSurfaceCode, make_code
from repro.core.policies import make_policy
from repro.experiments.memory import MemoryExperiment
from repro.noise import LeakageModel, NoiseParams, NoiseProfile, QubitNoise
from repro.sim.circuit import Cnot, Hadamard, Measure, MeasureReset, RoundNoise
from repro.sim.frame_simulator import LeakageFrameSimulator
from repro.sim.packed_bits import unpack_words
from repro.sim.packed_frame_simulator import PackedLeakageFrameSimulator

#: Boosted error rate so small seeded runs see plenty of events.
P = 3e-3

#: Boosted leakage injection (as in ``test_engine_equivalence``): at the
#: paper's ``0.1 p`` rates a 300-shot run sees only a handful of strongly
#: autocorrelated leakage episodes, making aggregate LPR comparisons noise.
BOOSTED_LEAKAGE = LeakageModel(
    p_leak_round=1e-2, p_leak_gate=1e-3, p_transport=0.1, p_seepage=1e-3
)

#: Profiles whose per-qubit arrays are uniform: statistics must equal the
#: scalar ``NoiseParams`` path bit-for-bit even though the array code runs.
DEGENERATE_PROFILES = [
    ("heterogeneous-spread0", NoiseProfile.heterogeneous(3, 0.0)),
    ("hot-spot-factor1", NoiseProfile.hot_spot([2], 1.0)),
]

#: Genuinely non-uniform profiles, exercised across the engines.
SCENARIO_PROFILES = [
    ("biased", NoiseProfile.biased(8.0)),
    ("heterogeneous", NoiseProfile.heterogeneous(11, 0.8)),
    ("hot-spot", NoiseProfile.hot_spot([0, 4], 12.0)),
]


def run_memory(engine, *, profile=None, code=None, policy="eraser", shots=80,
               seed=20240101, decode=True, cycles=2, leakage=None):
    code = code if code is not None else RotatedSurfaceCode(3)
    experiment = MemoryExperiment(
        code=code,
        policy=make_policy(policy),
        noise=NoiseParams.standard(P),
        noise_profile=profile,
        leakage=leakage if leakage is not None else LeakageModel.standard(P),
        cycles=cycles,
        decode=decode,
        seed=seed,
        engine=engine,
    )
    return experiment.run(shots)


def assert_results_identical(a, b):
    assert a.logical_errors == b.logical_errors
    assert a.lrcs_per_round == b.lrcs_per_round
    np.testing.assert_array_equal(a.lpr_total, b.lpr_total)
    np.testing.assert_array_equal(a.lpr_data, b.lpr_data)
    np.testing.assert_array_equal(a.lpr_parity, b.lpr_parity)
    assert a.speculation.true_positive == b.speculation.true_positive
    assert a.speculation.false_positive == b.speculation.false_positive


class TestUniformBitIdentical:
    """The degenerate profile must not perturb a single random draw."""

    @pytest.mark.parametrize("engine", ["scalar", "packed"])
    def test_uniform_profile_matches_noise_params_path(self, engine):
        plain = run_memory(engine, profile=None)
        profiled = run_memory(engine, profile=NoiseProfile.uniform())
        assert_results_identical(plain, profiled)

    @pytest.mark.parametrize("engine", ["scalar", "packed"])
    @pytest.mark.parametrize(
        "name,profile", DEGENERATE_PROFILES, ids=[n for n, _ in DEGENERATE_PROFILES]
    )
    def test_degenerate_per_qubit_arrays_match_scalar_path(self, engine, name, profile):
        """Uniform-valued arrays run the per-qubit code yet keep the stream."""
        code = RotatedSurfaceCode(3)
        noise = profile.materialize(NoiseParams.standard(P), code.num_qubits)
        assert isinstance(noise, QubitNoise)
        plain = run_memory(engine, profile=None)
        profiled = run_memory(engine, profile=profile)
        assert_results_identical(plain, profiled)

    def test_uniform_materialize_returns_the_base_object(self):
        base = NoiseParams.standard(P)
        assert NoiseProfile.uniform().materialize(base, 17) is base


class TestCrossEngineEquivalence:
    """Scalar vs packed differential checks for every new scenario."""

    @staticmethod
    def _assert_statistically_close(scalar, packed, lpr_rel=0.5):
        for attr in ("lpr_total", "lpr_data", "lpr_parity"):
            a = float(np.mean(getattr(scalar, attr)))
            b = float(np.mean(getattr(packed, attr)))
            if max(a, b) < 2e-4:
                continue
            assert abs(a - b) <= lpr_rel * max(a, b), (
                f"{attr} diverged: scalar={a:.6f} packed={b:.6f}"
            )
        a, b = scalar.lrcs_per_round, packed.lrcs_per_round
        assert abs(a - b) <= 0.35 * max(a, b) + 0.05

    @pytest.mark.parametrize(
        "name,profile", SCENARIO_PROFILES, ids=[n for n, _ in SCENARIO_PROFILES]
    )
    def test_profiles_equivalent_across_engines(self, name, profile):
        scalar = run_memory(
            "scalar", profile=profile, shots=300, decode=False, leakage=BOOSTED_LEAKAGE
        )
        packed = run_memory(
            "packed", profile=profile, shots=300, decode=False, leakage=BOOSTED_LEAKAGE
        )
        self._assert_statistically_close(scalar, packed)

    @pytest.mark.parametrize("policy", ["no-lrc", "always-lrc", "eraser", "optimal"])
    def test_repetition_code_equivalent_across_engines(self, policy):
        scalar = run_memory(
            "scalar", code=RepetitionCode(5), policy=policy, shots=300, decode=False,
            leakage=BOOSTED_LEAKAGE,
        )
        packed = run_memory(
            "packed", code=RepetitionCode(5), policy=policy, shots=300, decode=False,
            leakage=BOOSTED_LEAKAGE,
        )
        self._assert_statistically_close(scalar, packed)
        if policy in ("no-lrc", "always-lrc"):
            # Static schedules do not depend on the noise stream at all.
            assert scalar.lrcs_per_round == packed.lrcs_per_round

    def test_repetition_code_ler_close_across_engines(self):
        scalar = run_memory("scalar", code=RepetitionCode(5), shots=400)
        packed = run_memory("packed", code=RepetitionCode(5), shots=400)
        # Loose two-proportion bound, mirroring test_engine_equivalence.
        pooled = (scalar.logical_errors + packed.logical_errors) / 800
        stderr = max((pooled * (1 - pooled) * 2 / 400) ** 0.5, 1e-6)
        z = (scalar.logical_errors - packed.logical_errors) / 400 / stderr
        assert abs(z) < 4.5


class TestProfilePhysics:
    """Each profile shape changes the error anatomy the way it claims."""

    def test_biased_profile_skews_pauli_mix_toward_z(self):
        noise = NoiseProfile.biased(50.0).materialize(NoiseParams.standard(0.2), 8)
        sim = LeakageFrameSimulator(8, noise, LeakageModel.disabled(), rng=0)
        x_flips = z_flips = 0
        for _ in range(300):
            sim.x[:] = False
            sim.z[:] = False
            sim.run([RoundNoise(np.arange(8))])
            x_flips += int(sim.x.sum())
            z_flips += int(sim.z.sum())
        assert z_flips > 5 * x_flips

    def test_biased_eta_one_keeps_roughly_uniform_mix(self):
        noise = NoiseProfile.biased(1.0).materialize(NoiseParams.standard(0.3), 6)
        sim = PackedLeakageFrameSimulator(
            6, noise, LeakageModel.disabled(), shots=2000, rng=5
        )
        sim.run([RoundNoise(np.arange(6))])
        x, z = unpack_words(sim.x, sim.shots), unpack_words(sim.z, sim.shots)
        x_only = int((x & ~z).sum())
        z_only = int((z & ~x).sum())
        y_both = int((x & z).sum())
        total = x_only + z_only + y_both
        for count in (x_only, z_only, y_both):
            assert abs(count - total / 3) < 0.15 * total

    def test_hot_spot_concentrates_errors(self):
        noise = NoiseProfile.hot_spot([1], 25.0).materialize(
            NoiseParams.standard(0.01), 4
        )
        sim = PackedLeakageFrameSimulator(
            4, noise, LeakageModel.disabled(), shots=3000, rng=2
        )
        sim.run([RoundNoise(np.arange(4))])
        counts = unpack_words(sim.x | sim.z, sim.shots).sum(axis=0)
        cold = np.delete(counts, 1).max()
        assert counts[1] > 5 * cold

    def test_heterogeneous_multipliers_follow_the_seed(self):
        a = NoiseProfile.heterogeneous(9, 0.7).qubit_multipliers(32)
        b = NoiseProfile.heterogeneous(9, 0.7).qubit_multipliers(32)
        c = NoiseProfile.heterogeneous(10, 0.7).qubit_multipliers(32)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_heterogeneous_reproducible_across_processes(self):
        """Same discipline as the sweep store's cross-process hash stability."""
        profile = NoiseProfile.heterogeneous(13, 0.6)
        script = (
            "from repro.noise import NoiseProfile\n"
            "m = NoiseProfile.heterogeneous(13, 0.6).qubit_multipliers(24)\n"
            "print(','.join(repr(float(v)) for v in m))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"},
        )
        child = np.array([float(v) for v in out.stdout.strip().split(",")])
        np.testing.assert_array_equal(child, profile.qubit_multipliers(24))


class TestBiasedCdfMonotonicity:
    """Regression: extreme eta must still yield valid cumulative distributions.

    ``_biased_pauli_cdfs`` used to normalise the weights *before* the cumsum
    and then pin ``cdf[-1] = 1.0``; at eta = 1e-12 the partial sums floated a
    few ulp past 1.0, so the pin produced a negative final diff and
    ``QubitNoise.validate`` rejected the profile.
    """

    EXTREME_ETAS = [1e-12, 1e-9, 1.0, 1e9, 1e12]

    @pytest.mark.parametrize("eta", EXTREME_ETAS)
    def test_cdfs_are_monotone_and_end_at_one(self, eta):
        from repro.noise.profiles import _biased_pauli_cdfs

        for cdf in _biased_pauli_cdfs(eta):
            assert (np.diff(cdf) >= 0.0).all()
            assert float(cdf[-1]) == 1.0
            assert (cdf >= 0.0).all() and (cdf <= 1.0).all()

    @pytest.mark.parametrize("eta", EXTREME_ETAS)
    def test_materialize_validates_at_extreme_eta(self, eta):
        noise = NoiseProfile.biased(eta).materialize(NoiseParams.standard(P), 17)
        assert isinstance(noise, QubitNoise)
        noise.validate()

    def test_eta_one_recovers_the_uniform_mix(self):
        from repro.noise.profiles import _biased_pauli_cdfs

        pauli1, pauli2 = _biased_pauli_cdfs(1.0)
        np.testing.assert_allclose(np.diff(pauli1, prepend=0.0), 1.0 / 3.0)
        np.testing.assert_allclose(np.diff(pauli2, prepend=0.0), 1.0 / 15.0)


class TestValidation:
    def test_rejects_malformed_profiles(self):
        with pytest.raises(ValueError):
            NoiseProfile.biased(-0.5)
        with pytest.raises(ValueError):
            NoiseProfile.heterogeneous(3, -0.1)
        with pytest.raises(ValueError):
            NoiseProfile.hot_spot([], 2.0)
        with pytest.raises(ValueError):
            NoiseProfile.hot_spot([-1], 2.0)
        with pytest.raises(ValueError):
            NoiseProfile(kind="nonsense").validate()
        with pytest.raises(ValueError):
            NoiseProfile.parse("biased")
        with pytest.raises(ValueError):
            NoiseProfile.parse("banana:split=1")

    def test_parse_rejects_unknown_options(self):
        """A misspelled option must not silently run a different experiment."""
        with pytest.raises(ValueError, match="sede"):
            NoiseProfile.parse("heterogeneous:sede=7,spread=0.5")
        with pytest.raises(ValueError, match="spread"):
            NoiseProfile.parse("biased:eta=4,spread=1")
        with pytest.raises(ValueError, match="eta"):
            NoiseProfile.parse("uniform:eta=2")

    def test_hot_spot_index_must_fit_the_code(self):
        profile = NoiseProfile.hot_spot([100], 3.0)
        with pytest.raises(ValueError, match="out of range"):
            profile.materialize(NoiseParams.standard(P), 17)

    @pytest.mark.parametrize(
        "simulator", [LeakageFrameSimulator, PackedLeakageFrameSimulator]
    )
    def test_simulators_reject_mismatched_array_sizes(self, simulator):
        noise = NoiseProfile.heterogeneous(1, 0.5).materialize(
            NoiseParams.standard(P), 9
        )
        kwargs = {"shots": 4} if simulator is PackedLeakageFrameSimulator else {}
        with pytest.raises(ValueError, match="per-qubit noise covers"):
            simulator(17, noise, LeakageModel.standard(P), rng=1, **kwargs)

    def test_qubit_noise_rejects_out_of_range_probabilities(self):
        noise = NoiseProfile.heterogeneous(1, 0.5).materialize(
            NoiseParams.standard(P), 5
        )
        bad = QubitNoise(
            params=noise.params,
            p_round_depolarize=np.full(5, 1.5),
            p_gate1=noise.p_gate1,
            p_gate2=noise.p_gate2,
            p_measure=noise.p_measure,
            p_reset=noise.p_reset,
            p_multilevel_readout_error=noise.p_multilevel_readout_error,
        )
        with pytest.raises(ValueError, match="outside"):
            bad.validate()

    def test_materialized_arrays_match_code_size(self):
        for code in (RotatedSurfaceCode(3), RepetitionCode(7), make_code("repetition", 3)):
            noise = NoiseProfile.heterogeneous(2, 0.4).materialize(
                NoiseParams.standard(P), code.num_qubits
            )
            assert noise.num_qubits == code.num_qubits
            for name in QubitNoise.CHANNELS:
                assert getattr(noise, name).shape == (code.num_qubits,)


class TestRepetitionCodeStructure:
    def test_lattice_invariants(self):
        code = RepetitionCode(5)
        assert code.num_data_qubits == 5
        assert code.num_parity_qubits == 4
        assert code.num_stabilizers == 4
        assert code.x_stabilizers == []
        assert code.logical_z_support == (0,)
        assert code.logical_x_support == (0, 1, 2, 3, 4)
        for stab in code.stabilizers:
            assert stab.weight == 2
            assert stab.data_qubits == (stab.index, stab.index + 1)
        # Interior data qubits touch two checks, boundary qubits one.
        assert len(code.stabilizer_neighbors(0)) == 1
        assert len(code.stabilizer_neighbors(4)) == 1
        for q in (1, 2, 3):
            assert len(code.stabilizer_neighbors(q)) == 2

    def test_schedule_is_conflict_free(self):
        code = RepetitionCode(7)
        for layer in range(4):
            touched = [
                s.schedule[layer] for s in code.stabilizers if s.schedule[layer] is not None
            ]
            assert len(touched) == len(set(touched))

    def test_rejects_too_small_distances(self):
        with pytest.raises(ValueError):
            RepetitionCode(2)

    @pytest.mark.parametrize("engine", ["scalar", "packed"])
    def test_noiseless_experiment_is_error_free(self, engine):
        result = MemoryExperiment(
            code=RepetitionCode(5),
            policy=make_policy("always-lrc"),
            noise=NoiseParams.noiseless(),
            leakage=LeakageModel.disabled(),
            cycles=2,
            seed=5,
            engine=engine,
        ).run(20)
        assert result.logical_errors == 0
        assert not result.lpr_total.any()

    def test_metadata_records_family_and_profile(self):
        result = run_memory(
            "packed",
            code=RepetitionCode(3),
            profile=NoiseProfile.biased(4.0),
            shots=4,
            decode=False,
        )
        assert result.metadata["code_family"] == "repetition"
        assert result.metadata["noise_profile"] == {"kind": "biased", "eta": 4.0}
