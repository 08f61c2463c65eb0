"""Tests for the leakage-aware Pauli-frame simulator."""

import numpy as np
import pytest

from repro.noise.leakage import LeakageModel, LeakageTransportModel
from repro.noise.model import NoiseParams
from repro.sim.circuit import (
    Cnot,
    Hadamard,
    LeakISwap,
    LrcFinalize,
    Measure,
    MeasureReset,
    Reset,
    RoundNoise,
)
from repro.sim.frame_simulator import LABEL_LEAKED, LeakageFrameSimulator
from repro.sim.packed_bits import pack_bool
from repro.sim.packed_frame_simulator import PackedLeakageFrameSimulator


def make_sim(num_qubits=4, p=0.0, leakage=None, seed=0, **noise_overrides):
    noise = NoiseParams.standard(p) if p > 0 else NoiseParams.noiseless()
    if noise_overrides:
        noise = noise.with_overrides(**noise_overrides)
    leakage = leakage if leakage is not None else LeakageModel.disabled()
    return LeakageFrameSimulator(num_qubits, noise, leakage, rng=seed)


class TestConstruction:
    def test_initial_state_clean(self):
        sim = make_sim(5)
        assert not sim.x.any()
        assert not sim.z.any()
        assert not sim.leaked.any()

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            make_sim(0)

    def test_rejects_invalid_noise(self):
        noise = NoiseParams.standard(1e-3).with_overrides(p_gate2=1.5)
        with pytest.raises(ValueError):
            LeakageFrameSimulator(2, noise, LeakageModel.disabled())


class TestCliffordPropagation:
    def test_cnot_propagates_x_from_control_to_target(self):
        sim = make_sim()
        sim.x[0] = True
        sim.run([Cnot([0], [1])])
        assert sim.x[0] and sim.x[1]

    def test_cnot_propagates_z_from_target_to_control(self):
        sim = make_sim()
        sim.z[1] = True
        sim.run([Cnot([0], [1])])
        assert sim.z[0] and sim.z[1]

    def test_cnot_leaves_z_on_control_alone(self):
        sim = make_sim()
        sim.z[0] = True
        sim.run([Cnot([0], [1])])
        assert sim.z[0] and not sim.z[1]

    def test_cnot_leaves_x_on_target_alone(self):
        sim = make_sim()
        sim.x[1] = True
        sim.run([Cnot([0], [1])])
        assert sim.x[1] and not sim.x[0]

    def test_hadamard_swaps_x_and_z(self):
        sim = make_sim()
        sim.x[0] = True
        sim.run([Hadamard([0])])
        assert sim.z[0] and not sim.x[0]
        sim.run([Hadamard([0])])
        assert sim.x[0] and not sim.z[0]

    def test_cnot_layer_is_vectorised(self):
        sim = make_sim(6)
        sim.x[0] = True
        sim.x[2] = True
        sim.run([Cnot([0, 2, 4], [1, 3, 5])])
        assert sim.x[1] and sim.x[3] and not sim.x[5]


class TestMeasurementAndReset:
    def test_measurement_reports_x_frame(self):
        sim = make_sim()
        sim.x[2] = True
        records = sim.run([Measure([1, 2], key="m")])
        assert list(records["m"].bits) == [0, 1]

    def test_measurement_clears_z_frame(self):
        sim = make_sim()
        sim.z[0] = True
        sim.run([Measure([0], key="m")])
        assert not sim.z[0]

    def test_measure_reset_clears_frame(self):
        sim = make_sim()
        sim.x[0] = True
        records = sim.run([MeasureReset([0], key="m")])
        assert records["m"].bits[0] == 1
        assert not sim.x[0] and not sim.z[0]

    def test_reset_clears_leakage(self):
        sim = make_sim()
        sim.leaked[0] = True
        sim.run([Reset([0])])
        assert not sim.leaked[0]

    def test_measurement_error_rate(self):
        sim = make_sim(1, seed=3, p=0.0)
        sim.noise = NoiseParams.noiseless().with_overrides(p_measure=0.3)
        flips = 0
        trials = 2000
        for _ in range(trials):
            records = sim.run([Measure([0], key="m")])
            flips += int(records["m"].bits[0])
            sim.x[0] = False
        assert 0.25 < flips / trials < 0.35

    def test_reset_init_error_rate(self):
        sim = make_sim(1, seed=5)
        sim.noise = NoiseParams.noiseless().with_overrides(p_reset=0.25)
        prepared_one = 0
        trials = 2000
        for _ in range(trials):
            sim.run([Reset([0])])
            prepared_one += int(sim.x[0])
        assert 0.2 < prepared_one / trials < 0.3

    def test_measurement_meta_passthrough(self):
        sim = make_sim()
        records = sim.run([Measure([0], key="m", meta=(7, 8))])
        assert records["m"].meta == (7, 8)

    def test_record_reports_ground_truth_leakage(self):
        sim = make_sim()
        sim.leaked[1] = True
        records = sim.run([Measure([0, 1], key="m")])
        assert list(records["m"].true_leaked) == [False, True]


class TestLeakageMechanics:
    def test_leaked_measurement_is_random(self):
        sim = make_sim(1, seed=11)
        ones = 0
        trials = 2000
        for _ in range(trials):
            sim.leaked[0] = True
            records = sim.run([Measure([0], key="m")])
            ones += int(records["m"].bits[0])
        assert 0.45 < ones / trials < 0.55

    def test_leaked_label_is_reported(self):
        sim = make_sim()
        sim.leaked[0] = True
        records = sim.run([Measure([0], key="m")])
        assert records["m"].labels[0] == LABEL_LEAKED


class TestMeasureErrorOrder:
    """Pin the order in which ``_measure`` applies its error mechanisms.

    The documented contract (see ``LeakageFrameSimulator._measure``): the
    classical ``p_measure`` flip is applied first and the uniformly random
    leaked-qubit outcome then *overwrites* it — the classical flip is not
    re-applied on top.  The packed engine must implement the same order, so
    the identical assertions run against both.
    """

    def _measure_many(self, leaked, trials=600, seed=13):
        """Per-trial measured bit of qubit 0 with p_measure == 1."""
        sim = LeakageFrameSimulator(
            1,
            NoiseParams.noiseless().with_overrides(p_measure=1.0),
            LeakageModel.disabled(),
            rng=seed,
        )
        bits = []
        for _ in range(trials):
            sim.x[0] = False
            sim.leaked[0] = leaked
            bits.append(int(sim.run([Measure([0], key="m")])["m"].bits[0]))
        return bits

    def test_unleaked_bit_is_deterministically_flipped(self):
        """With p_measure=1 and x=0 an unleaked qubit always reads 1."""
        assert set(self._measure_many(leaked=False)) == {1}

    def test_leaked_bit_is_uniform_despite_certain_flip(self):
        """The random leaked outcome overwrites the classical flip entirely.

        If the flip were re-applied after the overwrite, p_measure=1 would
        turn the uniform outcome into its complement — still uniform — but if
        the overwrite were skipped, every read would be 1.  The mean pins the
        overwrite; the regression below pins that no second flip happens.
        """
        bits = self._measure_many(leaked=True)
        mean = sum(bits) / len(bits)
        assert 0.4 < mean < 0.6

    def test_overwrite_not_xored_with_classical_flip(self):
        """The leaked outcome must equal the raw uniform draw, not its XOR.

        Replays the simulator's own random stream: with a shared seed, the
        draws are [p_measure flip], [leaked random bit] in that order, so the
        recorded bit must equal the second draw exactly (overwrite), not the
        XOR of both (re-application).
        """
        seed = 99
        sim = LeakageFrameSimulator(
            1,
            NoiseParams.noiseless().with_overrides(p_measure=0.5),
            LeakageModel.disabled(),
            rng=seed,
        )
        reference = np.random.default_rng(seed)
        for _ in range(200):
            sim.x[0] = False
            sim.leaked[0] = True
            bit = int(sim.run([Measure([0], key="m")])["m"].bits[0])
            flip = bool(reference.random(1)[0] < 0.5)  # consumed, then discarded
            random_outcome = bool(reference.random(1)[0] < 0.5)
            assert bit == int(random_outcome), (
                "leaked-qubit bit must be the raw uniform draw; the classical "
                f"p_measure flip (={flip}) must not be re-applied"
            )

    def test_packed_engine_pins_the_same_order(self):
        noise = NoiseParams.noiseless().with_overrides(p_measure=1.0)
        shots = 400
        sim = PackedLeakageFrameSimulator(
            2, noise, LeakageModel.disabled(), shots=shots, rng=17
        )
        leaked = np.zeros((shots, 2), dtype=bool)
        leaked[:, 1] = True
        sim.leaked[:] = pack_bool(leaked)
        record = sim.run([Measure([0, 1], key="m")])["m"]
        # Unleaked qubit 0: the certain classical flip applies to every shot.
        assert (record.bits[:, 0] == 1).all()
        # Leaked qubit 1: uniform despite the certain flip (overwrite wins).
        mean = record.bits[:, 1].mean()
        assert 0.4 < mean < 0.6

    def test_multilevel_label_error_rate(self):
        sim = make_sim(1, seed=13)
        sim.noise = NoiseParams.noiseless().with_overrides(p_multilevel_readout_error=0.5)
        wrong = 0
        trials = 2000
        for _ in range(trials):
            sim.leaked[0] = True
            records = sim.run([Measure([0], key="m")])
            wrong += int(records["m"].labels[0] != LABEL_LEAKED)
            sim.leaked[0] = False
        assert 0.4 < wrong / trials < 0.6

    def test_cnot_skips_propagation_when_control_leaked(self):
        model = LeakageModel(0.0, 0.0, 0.0, 0.0)
        sim = make_sim(leakage=model)
        sim.leaked[0] = True
        sim.x[0] = True
        sim.run([Cnot([0], [1])])
        # Frame must not propagate through a leaked operand; the partner only
        # suffers a random Pauli (transport probability is zero here).
        assert not sim.leaked[1]

    def test_transport_probability(self):
        model = LeakageModel(0.0, 0.0, 0.5, 0.0)
        sim = make_sim(leakage=model, seed=17)
        transported = 0
        trials = 2000
        for _ in range(trials):
            sim.leaked[0] = True
            sim.leaked[1] = False
            sim.run([Cnot([0], [1])])
            transported += int(sim.leaked[1])
        assert 0.45 < transported / trials < 0.55

    def test_remain_model_keeps_source_leaked(self):
        model = LeakageModel(0.0, 0.0, 1.0, 0.0, transport_model=LeakageTransportModel.REMAIN)
        sim = make_sim(leakage=model)
        sim.leaked[0] = True
        sim.run([Cnot([0], [1])])
        assert sim.leaked[0] and sim.leaked[1]

    def test_exchange_model_returns_source_to_computational(self):
        model = LeakageModel(0.0, 0.0, 1.0, 0.0, transport_model=LeakageTransportModel.EXCHANGE)
        sim = make_sim(leakage=model, seed=23)
        sim.leaked[0] = True
        sim.run([Cnot([0], [1])])
        assert not sim.leaked[0] and sim.leaked[1]

    def test_round_noise_injects_leakage(self):
        model = LeakageModel(0.5, 0.0, 0.0, 0.0)
        sim = make_sim(leakage=model, seed=29)
        leaked = 0
        trials = 2000
        for _ in range(trials):
            sim.leaked[0] = False
            sim.run([RoundNoise([0])])
            leaked += int(sim.leaked[0])
        assert 0.45 < leaked / trials < 0.55

    def test_seepage_returns_to_computational(self):
        model = LeakageModel(0.0, 0.0, 0.0, 1.0)
        sim = make_sim(leakage=model)
        sim.leaked[0] = True
        sim.run([RoundNoise([0])])
        assert not sim.leaked[0]

    def test_gate_leakage_injection(self):
        model = LeakageModel(0.0, 0.5, 0.0, 0.0)
        sim = make_sim(leakage=model, seed=31)
        leaked_events = 0
        trials = 1000
        for _ in range(trials):
            sim.leaked[:] = False
            sim.run([Cnot([0], [1])])
            leaked_events += int(sim.leaked[0]) + int(sim.leaked[1])
        rate = leaked_events / (2 * trials)
        assert 0.4 < rate < 0.6

    def test_leaked_fraction_subsets(self):
        sim = make_sim(4)
        sim.leaked[0] = True
        assert sim.leaked_fraction() == pytest.approx(0.25)
        assert sim.leaked_fraction([0, 1]) == pytest.approx(0.5)
        assert sim.leaked_fraction([2, 3]) == 0.0
        assert sim.leaked_fraction([]) == 0.0

    def test_snapshot_is_a_copy(self):
        sim = make_sim(2)
        snap = sim.snapshot_leaked()
        sim.leaked[0] = True
        assert not snap[0]


class TestLrcFinalize:
    def test_removes_data_leakage_and_restores_frame(self):
        sim = make_sim(3)
        sim.leaked[0] = True
        sim.run([LrcFinalize([0], [2], key="lrc")])
        assert not sim.leaked[0]

    def test_swap_back_restores_parked_state(self):
        """An X frame parked on the ancilla must return to the data qubit."""
        sim = make_sim(3)
        sim.x[2] = True  # parked data state (post-swap) lives on the ancilla
        sim.run([LrcFinalize([0], [2], key="lrc")])
        assert sim.x[0] and not sim.x[2]

    def test_reports_syndrome_from_data_side(self):
        sim = make_sim(3)
        sim.x[0] = True  # the swapped-in parity outcome
        records = sim.run([LrcFinalize([0], [2], key="lrc", meta=(4,))])
        assert records["lrc"].bits[0] == 1
        assert records["lrc"].meta == (4,)

    def test_adaptive_multilevel_resets_parity_on_leak(self):
        sim = make_sim(3)
        sim.leaked[0] = True
        sim.leaked[2] = True
        sim.run([LrcFinalize([0], [2], key="lrc", adaptive_multilevel=True)])
        # With a perfect discriminator the |L> outcome squashes the swap-back
        # and resets the parity qubit, removing its leakage too.
        assert not sim.leaked[0]
        assert not sim.leaked[2]

    def test_without_adaptive_parity_leakage_persists(self):
        sim = make_sim(3)
        sim.leaked[0] = True
        sim.leaked[2] = True
        sim.run([LrcFinalize([0], [2], key="lrc", adaptive_multilevel=False)])
        assert not sim.leaked[0]
        assert sim.leaked[2]


class TestLeakISwap:
    def test_moves_leakage_to_ancilla(self):
        sim = make_sim(2, leakage=LeakageModel(0.0, 0.0, 0.0, 0.0))
        sim.leaked[0] = True
        sim.run([LeakISwap([0], [1])])
        assert not sim.leaked[0]
        assert sim.leaked[1]

    def test_no_effect_when_clean(self):
        sim = make_sim(2, leakage=LeakageModel(0.0, 0.0, 0.0, 0.0))
        sim.run([LeakISwap([0], [1])])
        assert not sim.leaked.any()

    def test_failed_reset_can_excite_data(self):
        model = LeakageModel(0.0, 0.0, 0.0, 0.0, dqlr_reset_excitation=1.0)
        sim = make_sim(2, leakage=model)
        sim.x[1] = True  # parity reset failed: ancilla in |1>
        sim.run([LeakISwap([0], [1])])
        assert sim.leaked[0]

    def test_no_excitation_when_probability_zero(self):
        model = LeakageModel(0.0, 0.0, 0.0, 0.0, dqlr_reset_excitation=0.0)
        sim = make_sim(2, leakage=model)
        sim.x[1] = True
        sim.run([LeakISwap([0], [1])])
        assert not sim.leaked[0]


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        def trajectory(seed):
            sim = LeakageFrameSimulator(
                6, NoiseParams.standard(0.05), LeakageModel.standard(0.05), rng=seed
            )
            ops = [
                RoundNoise([0, 1, 2]),
                Hadamard([3]),
                Cnot([0, 1], [3, 4]),
                MeasureReset([3, 4], key="m"),
            ]
            bits = []
            for _ in range(20):
                bits.extend(sim.run(ops)["m"].bits.tolist())
            return bits

        assert trajectory(1234) == trajectory(1234)

    def test_different_seeds_differ(self):
        def trajectory(seed):
            sim = LeakageFrameSimulator(
                4, NoiseParams.standard(0.2), LeakageModel.disabled(), rng=seed
            )
            bits = []
            for _ in range(50):
                bits.extend(sim.run([RoundNoise([0, 1]), Measure([0, 1], key="m")])["m"].bits.tolist())
            return bits

        assert trajectory(1) != trajectory(2)

    def test_unsupported_operation_raises(self):
        sim = make_sim()
        with pytest.raises(TypeError):
            sim.run([object()])
