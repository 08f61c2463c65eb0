"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.analytic import invisible_leakage_probability
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.core.dli import DynamicLrcInsertion, SwapLookupTable
from repro.core.lsb import LeakageSpeculationBlock, speculation_threshold
from repro.decoder.graph import DecodingGraph
from repro.decoder.matching import MwpmMatcher
from repro.experiments.metrics import SpeculationCounts, binomial_stderr, wilson_interval
from repro.noise.leakage import LeakageModel
from repro.noise.model import NoiseParams
from repro.noise.profiles import NoiseProfile, QubitNoise
from repro.sim.circuit import Cnot, Hadamard, Measure, MeasureReset, RoundNoise
from repro.sim.frame_simulator import LeakageFrameSimulator
from repro.sim.packed_bits import unpack_words
from repro.sim.packed_frame_simulator import PackedLeakageFrameSimulator

# Small codes are shared across examples to keep the suite fast.
_CODE3 = RotatedSurfaceCode(3)
_CODE5 = RotatedSurfaceCode(5)
_CODES = {3: _CODE3, 5: _CODE5}

odd_distances = st.sampled_from([3, 5])


class TestCodeInvariants:
    @given(distance=odd_distances)
    @settings(max_examples=10, deadline=None)
    def test_stabilizer_count_identity(self, distance):
        code = _CODES[distance]
        assert code.num_stabilizers == code.num_data_qubits - 1

    @given(distance=odd_distances, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_every_data_qubit_has_balanced_neighbors(self, distance, data):
        code = _CODES[distance]
        qubit = data.draw(st.integers(0, code.num_data_qubits - 1))
        z = len(code.z_stabilizer_neighbors(qubit))
        x = len(code.x_stabilizer_neighbors(qubit))
        assert abs(z - x) <= 1
        assert z + x == len(code.stabilizer_neighbors(qubit))

    @given(distance=odd_distances, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_stabilizer_support_within_lattice(self, distance, data):
        code = _CODES[distance]
        stab = code.stabilizers[data.draw(st.integers(0, code.num_stabilizers - 1))]
        for qubit in stab.data_qubits:
            assert 0 <= qubit < code.num_data_qubits


class TestDliProperties:
    @given(
        distance=odd_distances,
        requests=st.lists(st.integers(min_value=0, max_value=8), max_size=12),
        blocked=st.lists(st.integers(min_value=0, max_value=7), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_assignment_always_valid(self, distance, requests, blocked):
        code = _CODES[distance]
        requests = [q % code.num_data_qubits for q in requests]
        blocked = [s % code.num_stabilizers for s in blocked]
        dli = DynamicLrcInsertion(SwapLookupTable(code, num_backups=None))
        assignment = dli.assign(requests, blocked_stabilizers=blocked)
        # Only requested qubits get LRCs.
        assert set(assignment).issubset(set(requests))
        # No parity qubit is used twice and blocked ones are never used.
        values = list(assignment.values())
        assert len(values) == len(set(values))
        assert not (set(values) & set(blocked))
        # Every pairing is physically adjacent.
        for data_qubit, stab in assignment.items():
            assert stab in code.stabilizer_neighbors(data_qubit)

    @given(requests=st.sets(st.integers(min_value=0, max_value=8), max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_unblocked_assignment_serves_isolated_requests(self, requests):
        """A single request can always be served when nothing is blocked."""
        dli = DynamicLrcInsertion(SwapLookupTable(_CODE3, num_backups=None))
        for request in requests:
            assignment = dli.assign([request])
            assert request in assignment


class TestLsbProperties:
    @given(
        flips=st.lists(st.booleans(), min_size=8, max_size=8),
        had_lrc=st.sets(st.integers(min_value=0, max_value=8), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_speculation_candidates_are_consistent(self, flips, had_lrc):
        code = _CODE3
        lsb = LeakageSpeculationBlock(code)
        events = np.array(flips, dtype=bool)
        candidates = lsb.observe_round(events, previous_lrc_data_qubits=had_lrc)
        for qubit in candidates:
            assert qubit not in had_lrc
            neighbors = code.stabilizer_neighbors(qubit)
            assert events[list(neighbors)].sum() >= speculation_threshold(len(neighbors))
        # Qubits not in the candidate list either had an LRC or are below threshold.
        for qubit in code.data_indices:
            if qubit in candidates or qubit in had_lrc:
                continue
            neighbors = code.stabilizer_neighbors(qubit)
            assert events[list(neighbors)].sum() < speculation_threshold(len(neighbors))

    @given(num_neighbors=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_threshold_is_at_least_half(self, num_neighbors):
        threshold = speculation_threshold(num_neighbors)
        assert threshold * 2 >= num_neighbors
        assert (threshold - 1) * 2 < num_neighbors


class TestMetricsProperties:
    counts = st.integers(min_value=0, max_value=10_000)

    @given(tp=counts, fp=counts, tn=counts, fn=counts)
    @settings(max_examples=100, deadline=None)
    def test_rates_are_probabilities(self, tp, fp, tn, fn):
        spec = SpeculationCounts(tp, fp, tn, fn)
        for value in (spec.accuracy, spec.false_positive_rate, spec.false_negative_rate):
            assert math.isnan(value) or 0.0 <= value <= 1.0
        assert spec.total == tp + fp + tn + fn

    @given(successes=st.integers(0, 1000), extra=st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_wilson_interval_bounds(self, successes, extra):
        trials = successes + extra
        if trials == 0:
            return
        low, high = wilson_interval(successes, trials)
        rate = successes / trials
        assert 0.0 <= low <= rate + 1e-12
        assert rate - 1e-12 <= high <= 1.0
        assert binomial_stderr(successes, trials) >= 0.0

    @given(rounds=st.integers(min_value=0, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_invisible_probability_is_decreasing(self, rounds):
        assert invisible_leakage_probability(rounds + 1) < invisible_leakage_probability(rounds)


#: Strategy generating one valid profile of every kind.
noise_profiles = st.one_of(
    st.just(NoiseProfile.uniform()),
    st.builds(
        NoiseProfile.biased,
        eta=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    ),
    st.builds(
        NoiseProfile.heterogeneous,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        spread=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    ),
    st.builds(
        NoiseProfile.hot_spot,
        indices=st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=4),
        factor=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
)


class TestNoiseProfileProperties:
    @given(profile=noise_profiles)
    @settings(max_examples=80, deadline=None)
    def test_profile_round_trips_through_canonical_json(self, profile):
        text = profile.canonical_json()
        assert NoiseProfile.from_json(text) == profile
        # Canonical means canonical: re-serialising is byte-identical.
        assert NoiseProfile.from_json(text).canonical_json() == text

    @given(profile=noise_profiles)
    @settings(max_examples=40, deadline=None)
    def test_config_round_trips(self, profile):
        assert NoiseProfile.from_config(profile.to_config()) == profile

    @given(
        profile=noise_profiles,
        num_qubits=st.integers(min_value=16, max_value=64),
        p=st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_materialized_arrays_match_qubit_count_and_are_probabilities(
        self, profile, num_qubits, p
    ):
        noise = profile.materialize(NoiseParams.standard(p), num_qubits)
        if profile.is_uniform:
            assert isinstance(noise, NoiseParams)
            return
        assert isinstance(noise, QubitNoise)
        assert noise.num_qubits == num_qubits
        for name in QubitNoise.CHANNELS:
            array = getattr(noise, name)
            assert array.shape == (num_qubits,)
            assert ((array >= 0.0) & (array <= 1.0)).all()
        noise.validate()

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        spread=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        num_qubits=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_heterogeneous_multipliers_are_deterministic(self, seed, spread, num_qubits):
        profile = NoiseProfile.heterogeneous(seed, spread)
        a = profile.qubit_multipliers(num_qubits)
        b = profile.qubit_multipliers(num_qubits)
        np.testing.assert_array_equal(a, b)
        assert (a > 0.0).all()

    @given(value=st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=20, deadline=None)
    def test_validation_rejects_out_of_range_probabilities(self, value):
        with pytest.raises(ValueError):
            NoiseParams.standard().with_overrides(p_measure=1.0 + value).validate()
        with pytest.raises(ValueError):
            NoiseProfile.biased(-value)


class TestSimulatorProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_noiseless_simulation_is_error_free(self, seed):
        sim = LeakageFrameSimulator(
            5, NoiseParams.noiseless(), LeakageModel.disabled(), rng=seed
        )
        records = sim.run(
            [
                Hadamard([3]),
                Cnot([0, 1], [3, 4]),
                Hadamard([3]),
                Measure([3, 4], key="m"),
            ]
        )
        assert not records["m"].bits.any()
        assert not sim.leaked.any()

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        p=st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_frames_remain_boolean_arrays(self, seed, p):
        sim = LeakageFrameSimulator(
            6, NoiseParams.standard(p), LeakageModel.standard(p), rng=seed
        )
        for _ in range(5):
            sim.run([Cnot([0, 2, 4], [1, 3, 5]), Measure([1, 3, 5], key="m")])
        assert sim.x.dtype == bool and sim.z.dtype == bool and sim.leaked.dtype == bool
        assert sim.x.shape == (6,)


class TestPackedSimulatorProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shots=st.integers(min_value=1, max_value=150),
        p=st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=25, deadline=None)
    def test_measured_then_reset_qubit_is_unleaked_in_all_shots(self, seed, shots, p):
        sim = PackedLeakageFrameSimulator(
            6,
            NoiseParams.standard(p),
            LeakageModel(p_leak_round=0.3, p_leak_gate=0.1, p_transport=0.1, p_seepage=0.0),
            shots=shots,
            rng=seed,
        )
        sim.run([RoundNoise([0, 1, 2, 3, 4, 5]), Cnot([0, 2], [1, 3])])
        sim.run([MeasureReset([1, 3], key="m")])
        assert not sim.leaked_at([1, 3]).any()

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shots=st.integers(min_value=1, max_value=150),
        rounds=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_leaked_fraction_is_a_probability_per_shot(self, seed, shots, rounds):
        sim = PackedLeakageFrameSimulator(
            6,
            NoiseParams.standard(0.05),
            LeakageModel(p_leak_round=0.4, p_leak_gate=0.2, p_transport=0.5, p_seepage=0.1),
            shots=shots,
            rng=seed,
        )
        for _ in range(rounds):
            sim.run([RoundNoise([0, 1, 2, 3, 4, 5]), Cnot([0, 2, 4], [1, 3, 5])])
        for fraction in (sim.leaked_fraction(), sim.leaked_fraction([0, 5])):
            assert fraction.shape == (shots,)
            assert ((fraction >= 0.0) & (fraction <= 1.0)).all()

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_single_shot_batch_reproduces_scalar_record_shapes(self, seed):
        """A batch of one carries the scalar record along its single row."""
        ops = [
            RoundNoise([0, 1, 2, 3]),
            Hadamard([2]),
            Cnot([0], [1]),
            Measure([1, 2], key="m", meta=(7, 9)),
        ]
        scalar = LeakageFrameSimulator(
            4, NoiseParams.standard(0.05), LeakageModel.standard(0.05), rng=seed
        )
        packed = PackedLeakageFrameSimulator(
            4, NoiseParams.standard(0.05), LeakageModel.standard(0.05), shots=1, rng=seed
        )
        scalar_record = scalar.run(ops)["m"]
        packed_record = packed.run(ops)["m"]
        assert packed_record.bits.shape == (1,) + scalar_record.bits.shape
        assert packed_record.labels.shape == (1,) + scalar_record.labels.shape
        assert packed_record.true_leaked.shape == (1,) + scalar_record.true_leaked.shape
        assert packed_record.bits.dtype == scalar_record.bits.dtype
        assert packed_record.labels.dtype == scalar_record.labels.dtype
        assert packed_record.meta == scalar_record.meta
        np.testing.assert_array_equal(packed_record.qubits, scalar_record.qubits)
        assert packed.x.shape == (1, 4)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shots=st.integers(min_value=1, max_value=150),
    )
    @settings(max_examples=20, deadline=None)
    def test_packed_planes_remain_uint64_words(self, seed, shots):
        sim = PackedLeakageFrameSimulator(
            6, NoiseParams.standard(0.1), LeakageModel.standard(0.1), shots=shots, rng=seed
        )
        for _ in range(3):
            sim.run([Cnot([0, 2, 4], [1, 3, 5]), Measure([1, 3, 5], key="m")])
        words = -(-shots // 64)
        for plane in (sim.x, sim.z, sim.leaked):
            assert plane.dtype == np.uint64
            assert plane.shape == (words, 6)
        # Bits past the last shot stay clear (the packed tail invariant).
        unpacked = unpack_words(sim.x | sim.z | sim.leaked, words * 64)
        assert not unpacked[shots:].any()


class TestDecoderProperties:
    @given(
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matching_correction_is_binary(self, data):
        graph = DecodingGraph(_CODE3, num_rounds=2)
        matcher = MwpmMatcher(graph)
        detectors = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
        num_flips = data.draw(st.integers(min_value=0, max_value=4))
        for _ in range(num_flips):
            layer = data.draw(st.integers(0, graph.num_layers - 1))
            check = data.draw(st.integers(0, graph.num_checks - 1))
            detectors[layer, check] = True
        assert matcher.decode(detectors) in (0, 1)
