"""Tests for matching engines and the surface-code decoder."""

import numpy as np
import pytest

from repro.codes.repetition import RepetitionCode
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoder.decoder import SurfaceCodeDecoder
from repro.decoder.fault_injection import FaultInjector
from repro.decoder.graph import DecodingGraph
from repro.decoder.matching import AutoMatcher, GreedyMatcher, MwpmMatcher, build_matcher


@pytest.fixture(scope="module")
def code():
    return RotatedSurfaceCode(3)


@pytest.fixture(scope="module")
def decoder(code):
    return SurfaceCodeDecoder(code, num_rounds=3, method="mwpm")


class TestBuildMatcher:
    def test_exact(self, code):
        graph = DecodingGraph(code, num_rounds=2)
        assert isinstance(build_matcher(graph, "mwpm"), MwpmMatcher)
        assert isinstance(build_matcher(graph, "exact"), MwpmMatcher)

    def test_greedy(self, code):
        graph = DecodingGraph(code, num_rounds=2)
        assert isinstance(build_matcher(graph, "greedy"), GreedyMatcher)

    def test_auto(self, code):
        graph = DecodingGraph(code, num_rounds=2)
        assert isinstance(build_matcher(graph, "auto"), AutoMatcher)

    def test_unknown(self, code):
        graph = DecodingGraph(code, num_rounds=2)
        with pytest.raises(ValueError):
            build_matcher(graph, "tensor-network")


class TestMatching:
    def test_empty_syndrome_gives_no_correction(self, code):
        graph = DecodingGraph(code, num_rounds=2)
        matcher = MwpmMatcher(graph)
        detectors = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
        assert matcher.decode(detectors) == 0

    def test_greedy_empty(self, code):
        graph = DecodingGraph(code, num_rounds=2)
        matcher = GreedyMatcher(graph)
        detectors = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
        assert matcher.decode(detectors) == 0

    def test_single_detector_matches_to_boundary(self, code):
        graph = DecodingGraph(code, num_rounds=2)
        matcher = MwpmMatcher(graph)
        detectors = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
        detectors[0, 0] = True
        # Must not raise and must return a bit.
        assert matcher.decode(detectors) in (0, 1)

    def test_exact_and_greedy_agree_on_unambiguous_pairs(self, code):
        """A measurement-error-like pair (same check, adjacent layers) has a
        unique minimum-weight matching, so both engines must agree."""
        graph = DecodingGraph(code, num_rounds=3)
        exact = MwpmMatcher(graph)
        greedy = GreedyMatcher(graph)
        for check in range(graph.num_checks):
            for layer in range(graph.num_layers - 1):
                detectors = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
                detectors[layer, check] = True
                detectors[layer + 1, check] = True
                assert exact.decode(detectors) == greedy.decode(detectors) == 0

    def test_exact_and_greedy_both_return_bits(self, code):
        graph = DecodingGraph(code, num_rounds=3)
        exact = MwpmMatcher(graph)
        greedy = GreedyMatcher(graph)
        rng = np.random.default_rng(0)
        for _ in range(20):
            detectors = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
            flips = rng.integers(1, 4)
            for _ in range(flips):
                detectors[rng.integers(graph.num_layers), rng.integers(graph.num_checks)] = True
            assert exact.decode(detectors) in (0, 1)
            assert greedy.decode(detectors) in (0, 1)

    def test_auto_matcher_dispatches(self, code):
        graph = DecodingGraph(code, num_rounds=2)
        auto = AutoMatcher(graph, exact_threshold=1)
        detectors = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
        detectors[0, 0] = True
        detectors[1, 1] = True
        assert auto.decode(detectors) in (0, 1)


class _SplitGraph(DecodingGraph):
    """A repetition-code graph with check 1 cut off from check 0 and the
    boundary: its layers are joined to each other by time edges only."""

    def _neighbors_of_data_qubit(self, data_qubit):
        neighbors = super()._neighbors_of_data_qubit(data_qubit)
        return [s for s in neighbors if self.local_index(s) != 1]


class TestDisconnectedSyndrome:
    @pytest.fixture(scope="class")
    def graph(self):
        return _SplitGraph(RepetitionCode(3), num_rounds=2)

    def _detectors(self, graph, cells):
        detectors = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
        for cell in cells:
            detectors[cell] = True
        return detectors

    def test_connected_pair_still_decodes(self, graph):
        matcher = MwpmMatcher(graph)
        assert matcher.decode(self._detectors(graph, [(0, 1), (1, 1)])) == 0

    def test_disconnected_pair_raises_naming_detectors(self, graph):
        detectors = self._detectors(graph, [(0, 0), (0, 1)])
        with pytest.raises(ValueError, match="no path from detector node 0 to detector node 1"):
            MwpmMatcher(graph).decode(detectors)

    def test_detector_cut_off_from_boundary_raises(self, graph):
        detectors = self._detectors(graph, [(0, 1)])
        with pytest.raises(ValueError, match="no path from detector node 1 to the boundary"):
            MwpmMatcher(graph).decode(detectors)


class TestDecoder:
    def test_noiseless_shot_is_not_a_logical_error(self, code, decoder):
        history = np.zeros((3, code.num_stabilizers), dtype=np.uint8)
        final = np.zeros(code.num_data_qubits, dtype=np.uint8)
        assert decoder.decode_shot(history, final) is False

    def test_invalid_history_shape_rejected(self, code, decoder):
        with pytest.raises(ValueError):
            decoder.build_detectors(
                np.zeros((2, code.num_stabilizers), dtype=np.uint8),
                np.zeros(code.num_data_qubits, dtype=np.uint8),
            )

    def test_logical_x_chain_is_a_logical_error(self, code, decoder):
        """A full column of X errors flips no detector but flips the observable."""
        history = np.zeros((3, code.num_stabilizers), dtype=np.uint8)
        final = np.zeros(code.num_data_qubits, dtype=np.uint8)
        for q in code.logical_x_support:
            final[q] ^= 1
        detectors = decoder.build_detectors(history, final)
        assert not detectors.any()
        assert decoder.decode_shot(history, final) is True

    def test_stabilizer_flip_is_not_a_logical_error(self, code, decoder):
        """Flipping a Z stabilizer's worth of data bits is harmless."""
        history = np.zeros((3, code.num_stabilizers), dtype=np.uint8)
        final = np.zeros(code.num_data_qubits, dtype=np.uint8)
        stab = code.z_stabilizers[0]
        for q in stab.data_qubits:
            final[q] ^= 1
        assert decoder.decode_shot(history, final) is False

    def test_observed_logical_flip(self, code, decoder):
        final = np.zeros(code.num_data_qubits, dtype=np.uint8)
        assert decoder.observed_logical_flip(final) == 0
        final[code.logical_z_support[0]] = 1
        assert decoder.observed_logical_flip(final) == 1

    def test_build_detectors_final_layer_consistency(self, code, decoder):
        """A single final-measurement flip produces exactly one final-layer detector
        per adjacent Z check."""
        history = np.zeros((3, code.num_stabilizers), dtype=np.uint8)
        final = np.zeros(code.num_data_qubits, dtype=np.uint8)
        qubit = next(q for q in code.data_indices if len(code.z_stabilizer_neighbors(q)) == 2)
        final[qubit] = 1
        detectors = decoder.build_detectors(history, final)
        assert detectors[:-1].sum() == 0
        assert detectors[-1].sum() == 2


class TestSingleFaultCorrection:
    """Every single circuit-level fault must be corrected (distance >= 3)."""

    @pytest.mark.parametrize("round_index", [0, 1, 2])
    def test_single_data_x_faults_are_corrected(self, code, round_index):
        injector = FaultInjector(code, num_rounds=3)
        decoder = SurfaceCodeDecoder(code, num_rounds=3, method="mwpm")
        for qubit in code.data_indices:
            signature = injector.data_pauli(round_index, qubit, "X")
            assert 1 <= signature.num_flipped <= 2
            history, final = injector._run(round_index, qubit, "X")
            assert decoder.decode_shot(history, final) is False

    def test_single_measurement_flips_are_corrected(self, code):
        injector = FaultInjector(code, num_rounds=3)
        decoder = SurfaceCodeDecoder(code, num_rounds=3, method="mwpm")
        for stab in code.z_stabilizers:
            for round_index in range(3):
                history, final = injector._run()
                history = history.copy()
                history[round_index, stab.index] ^= 1
                assert decoder.decode_shot(history, final) is False

    def test_single_final_data_flips_are_corrected(self, code):
        injector = FaultInjector(code, num_rounds=3)
        decoder = SurfaceCodeDecoder(code, num_rounds=3, method="mwpm")
        for qubit in code.data_indices:
            history, final = injector._run()
            final = final.copy()
            final[qubit] ^= 1
            assert decoder.decode_shot(history, final) is False

    def test_z_faults_do_not_affect_memory_z(self, code):
        injector = FaultInjector(code, num_rounds=3)
        for qubit in code.data_indices:
            signature = injector.data_pauli(1, qubit, "Z")
            assert signature.observable_flip is False


class TestFaultInjector:
    def test_data_x_fault_detectors_are_z_checks(self, code):
        injector = FaultInjector(code, num_rounds=3)
        z_checks = {s.index for s in code.z_stabilizers}
        signature = injector.data_pauli(1, 4, "X")
        for _, stab_index in signature.flipped_detectors:
            assert stab_index in z_checks

    def test_measurement_flip_creates_two_time_adjacent_detectors(self, code):
        injector = FaultInjector(code, num_rounds=3)
        stab = code.z_stabilizers[0].index
        signature = injector.measurement_flip(1, stab)
        assert signature.num_flipped == 2
        layers = sorted(layer for layer, _ in signature.flipped_detectors)
        assert layers[1] - layers[0] == 1
        assert signature.observable_flip is False

    def test_final_data_flip_signature(self, code):
        injector = FaultInjector(code, num_rounds=3)
        qubit = code.logical_z_support[0]
        signature = injector.final_data_flip(qubit)
        assert signature.observable_flip is True
        assert 1 <= signature.num_flipped <= 2

    def test_invalid_pauli_rejected(self, code):
        injector = FaultInjector(code, num_rounds=2)
        with pytest.raises(ValueError):
            injector.data_pauli(0, 0, "W")
