"""Unit tests for the packed (bit-parallel) frame simulator.

Deterministic kernel behaviour, masked-instance correctness, and the
tail-bit invariant.  Statistical equivalence with the scalar engine is
enforced separately by ``tests/test_engine_equivalence.py``.
"""

import numpy as np
import pytest

from repro.noise.leakage import LeakageModel
from repro.noise.model import NoiseParams
from repro.noise.profiles import NoiseProfile
from repro.sim.circuit import Cnot, Hadamard, Measure, MeasureReset, Reset, RoundNoise
from repro.sim.frame_simulator import LABEL_LEAKED
from repro.sim.packed_bits import pack_bool, unpack_words
from repro.sim.packed_frame_simulator import PackedLeakageFrameSimulator


def make_sim(num_qubits=4, shots=70, noise=None, leakage=None, rng=3):
    return PackedLeakageFrameSimulator(
        num_qubits,
        noise if noise is not None else NoiseParams.noiseless(),
        leakage if leakage is not None else LeakageModel.disabled(),
        shots=shots,
        rng=rng,
    )


def set_plane(sim, plane, matrix):
    getattr(sim, plane)[:] = pack_bool(np.asarray(matrix, dtype=bool))


def get_plane(sim, plane):
    return unpack_words(getattr(sim, plane), sim.shots)


def shot_mask(shot_indices, shots=70):
    """A one-column pair mask plane selecting the given shots."""
    selected = np.zeros((shots, 1), dtype=bool)
    selected[shot_indices] = True
    return pack_bool(selected)


class TestConstruction:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_sim(num_qubits=0)
        with pytest.raises(ValueError):
            make_sim(shots=0)

    def test_rejects_mismatched_qubit_noise(self):
        profile = NoiseProfile.heterogeneous(3, 0.5)
        noise = profile.materialize(NoiseParams.standard(1e-3), 6)
        with pytest.raises(ValueError, match="per-qubit noise covers"):
            make_sim(num_qubits=4, noise=noise)

    def test_planes_start_empty(self):
        sim = make_sim()
        assert not sim.x.any() and not sim.z.any() and not sim.leaked.any()
        assert sim.words == 2


class TestDeterministicKernels:
    def test_cnot_propagates_frames(self):
        sim = make_sim()
        x = np.zeros((70, 4), dtype=bool)
        z = np.zeros((70, 4), dtype=bool)
        x[:: 3, 0] = True  # X on control propagates to target
        z[1 :: 3, 1] = True  # Z on target propagates to control
        set_plane(sim, "x", x)
        set_plane(sim, "z", z)
        sim.run([Cnot([0], [1])])
        np.testing.assert_array_equal(get_plane(sim, "x")[:, 1], x[:, 0])
        np.testing.assert_array_equal(get_plane(sim, "z")[:, 0], z[:, 1])
        np.testing.assert_array_equal(get_plane(sim, "x")[:, 0], x[:, 0])

    def test_cnot_skips_leaked_pairs(self):
        sim = make_sim()
        x = np.zeros((70, 4), dtype=bool)
        x[:, 0] = True
        leaked = np.zeros((70, 4), dtype=bool)
        leaked[:35, 1] = True  # leaked target blocks propagation
        set_plane(sim, "x", x)
        set_plane(sim, "leaked", leaked)
        sim.run([Cnot([0], [1])])
        got = get_plane(sim, "x")[:, 1]
        assert not got[:35].any()
        assert got[35:].all()

    def test_hadamard_swaps_frames_on_unleaked_only(self):
        sim = make_sim()
        x = np.zeros((70, 4), dtype=bool)
        x[:, 2] = True
        leaked = np.zeros((70, 4), dtype=bool)
        leaked[10:20, 2] = True
        set_plane(sim, "x", x)
        set_plane(sim, "leaked", leaked)
        sim.run([Hadamard([2])])
        got_x, got_z = get_plane(sim, "x"), get_plane(sim, "z")
        assert got_z[:10, 2].all() and not got_x[:10, 2].any()
        assert got_x[10:20, 2].all() and not got_z[10:20, 2].any()

    def test_measure_reads_x_frame_and_collapses_z(self):
        sim = make_sim()
        x = np.zeros((70, 4), dtype=bool)
        x[::2, 1] = True
        z = np.ones((70, 4), dtype=bool)
        set_plane(sim, "x", x)
        set_plane(sim, "z", z)
        records = sim.run([Measure([1, 3], "data", meta=(1, 3))])
        record = records["data"]
        np.testing.assert_array_equal(record.bits[:, 0].astype(bool), x[:, 1])
        assert not record.bits[:, 1].any()
        np.testing.assert_array_equal(record.labels, record.bits)
        assert not record.true_leaked.any()
        assert record.meta == (1, 3)
        assert not get_plane(sim, "z")[:, [1, 3]].any()
        assert get_plane(sim, "z")[:, [0, 2]].all()

    def test_leaked_measurement_reports_leaked_label_and_random_bit(self):
        sim = make_sim(shots=256)
        leaked = np.zeros((256, 4), dtype=bool)
        leaked[:, 0] = True
        set_plane(sim, "leaked", leaked)
        record = sim.run([Measure([0], "data")])["data"]
        assert (record.labels[:, 0] == LABEL_LEAKED).all()
        assert record.true_leaked[:, 0].all()
        # The recorded two-level bit of a leaked qubit is a fair coin.
        ones = int(record.bits[:, 0].sum())
        assert 0 < ones < 256
        assert abs(ones - 128) < 5 * np.sqrt(256 * 0.25)

    def test_reset_clears_all_planes(self):
        sim = make_sim()
        ones = np.ones((70, 4), dtype=bool)
        for plane in ("x", "z", "leaked"):
            set_plane(sim, plane, ones)
        sim.run([Reset([0, 2])])
        for plane in ("x", "z", "leaked"):
            got = get_plane(sim, plane)
            assert not got[:, [0, 2]].any()
            assert got[:, [1, 3]].all()

    def test_measure_reset_masked_touches_active_shots_only(self):
        sim = make_sim()
        x = np.ones((70, 4), dtype=bool)
        set_plane(sim, "x", x)
        active = np.zeros((70, 2), dtype=bool)
        active[:35] = True
        record = sim.measure_reset_masked(np.array([0, 1]), (0, 1), pack_bool(active))
        got = get_plane(sim, "x")
        assert not got[:35, [0, 1]].any()  # reset where active
        assert got[35:, [0, 1]].all()  # untouched elsewhere
        np.testing.assert_array_equal(record.bits[:35], 1)


class TestLeakageDynamics:
    def test_round_noise_injects_leakage_at_certain_rate(self):
        leakage = LeakageModel(
            p_leak_round=1.0, p_leak_gate=0.0, p_transport=0.0, p_seepage=0.0
        )
        sim = make_sim(leakage=leakage)
        sim.run([RoundNoise([0, 1, 2, 3])])
        np.testing.assert_array_equal(sim.leaked_fraction(), np.ones(70))
        assert get_plane(sim, "leaked").all()

    def test_leaked_at_matches_snapshot(self):
        sim = make_sim()
        leaked = np.zeros((70, 4), dtype=bool)
        leaked[5:25, 2] = True
        set_plane(sim, "leaked", leaked)
        np.testing.assert_array_equal(sim.snapshot_leaked(), leaked)
        np.testing.assert_array_equal(
            sim.leaked_at(np.array([2, 3])), leaked[:, [2, 3]]
        )
        np.testing.assert_array_equal(
            sim.leaked_fraction(np.array([2])), leaked[:, 2].astype(float)
        )


class TestInstanceKernels:
    def test_swap_instances_is_masked_per_shot(self):
        sim = make_sim()
        x = np.zeros((70, 4), dtype=bool)
        x[:, 0] = True
        set_plane(sim, "x", x)
        scheduled = np.arange(0, 70, 2)
        sim.swap_instances(
            np.array([0]), np.array([1]), shot_mask(scheduled)
        )
        got = get_plane(sim, "x")
        assert got[scheduled, 1].all() and not got[scheduled, 0].any()
        unscheduled = np.setdiff1d(np.arange(70), scheduled)
        assert got[unscheduled, 0].all() and not got[unscheduled, 1].any()

    def test_lrc_finalize_returns_parity_and_restores_data(self):
        sim = make_sim()
        x = np.zeros((70, 4), dtype=bool)
        x[:10, 0] = True  # parity outcome parked on the data-side qubit
        x[:, 1] = True  # data state parked on the ancilla
        set_plane(sim, "x", x)
        bits, labels, true_leaked = sim.lrc_finalize_instances(
            np.array([0]), np.array([1]), shot_mask(np.arange(70))
        )
        np.testing.assert_array_equal(bits[:, 0].astype(bool), x[:, 0])
        np.testing.assert_array_equal(labels[:, 0].astype(bool), x[:, 0])
        assert not true_leaked.any()
        got = get_plane(sim, "x")
        assert got[:, 0].all()  # parked data state swapped back
        assert not got[:, 1].any()  # ancilla left in |0>


class TestTailInvariant:
    def test_tail_bits_stay_zero_under_heavy_noise(self):
        # 70 shots leave 58 dead tail bits in the final word row; no kernel
        # may ever set them, or leaked_fraction/unpacked statistics corrupt.
        noise = NoiseParams.standard(0.05)
        leakage = LeakageModel(
            p_leak_round=0.05, p_leak_gate=0.02, p_transport=0.3, p_seepage=0.05
        )
        sim = make_sim(noise=noise, leakage=leakage, shots=70)
        qubits = np.arange(4)
        ops = [
            RoundNoise(qubits),
            Hadamard([0, 1]),
            Cnot([0, 1], [2, 3]),
            MeasureReset([2, 3], "ancilla"),
            Measure([0, 1], "data"),
            Reset([0]),
        ]
        for _ in range(4):
            sim.run(ops)
            sim.swap_instances(
                np.array([0]), np.array([2]), shot_mask(np.arange(0, 70, 3))
            )
            sim.lrc_finalize_instances(
                np.array([0]),
                np.array([2]),
                shot_mask(np.arange(0, 70, 3)),
                adaptive_multilevel=True,
            )
        tail_mask = np.uint64(2**64 - 1) ^ np.uint64((1 << (70 - 64)) - 1)
        for plane in (sim.x, sim.z, sim.leaked):
            assert not (plane[-1] & tail_mask).any()


class TestDegenerateProfileIdentity:
    def test_degenerate_qubit_noise_matches_scalar_stream(self):
        """All-equal per-qubit arrays must replay the scalar random stream."""
        noise = NoiseParams.standard(0.02)
        profile = NoiseProfile.heterogeneous(0, 0.0)
        qubit_noise = profile.materialize(noise, 4)
        leakage = LeakageModel.standard(0.02)
        ops = [
            RoundNoise(np.arange(4)),
            Cnot([0], [1]),
            Measure([0, 1], "data"),
        ]
        runs = []
        for n in (noise, qubit_noise):
            sim = make_sim(noise=n, leakage=leakage, rng=11)
            records = sim.run(ops)
            runs.append((records["data"].bits, sim.x.copy(), sim.leaked.copy()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][2], runs[1][2])
