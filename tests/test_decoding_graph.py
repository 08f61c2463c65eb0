"""Tests for the space-time decoding graph."""

import numpy as np
import pytest

from repro.codes.layout import StabilizerType
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoder.decoder import SurfaceCodeDecoder
from repro.decoder.graph import DecodingGraph, clear_shared_graphs
from repro.experiments.executor import execute_chunk_with_stats
from repro.experiments.jobs import SweepJob
from repro.experiments.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def code():
    return RotatedSurfaceCode(3)


@pytest.fixture(scope="module")
def graph(code):
    return DecodingGraph(code, num_rounds=4)


class TestStructure:
    def test_check_count(self, code, graph):
        assert graph.num_checks == len(code.z_stabilizers)

    def test_layer_count_includes_final_layer(self, graph):
        assert graph.num_layers == 5

    def test_node_count(self, graph):
        assert graph.num_nodes == graph.num_checks * graph.num_layers
        assert graph.boundary_node == graph.num_nodes

    def test_node_id_round_trip(self, code, graph):
        for layer in range(graph.num_layers):
            for stab in code.z_stabilizers:
                node = graph.node_id(stab.index, layer)
                assert 0 <= node < graph.num_nodes

    def test_node_id_layer_out_of_range(self, code, graph):
        with pytest.raises(ValueError):
            graph.node_id(code.z_stabilizers[0].index, 99)

    def test_rejects_zero_rounds(self, code):
        with pytest.raises(ValueError):
            DecodingGraph(code, num_rounds=0)

    @pytest.mark.parametrize("name", ["space_weight", "time_weight", "diagonal_weight"])
    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_rejects_non_positive_weight(self, code, name, weight):
        with pytest.raises(ValueError, match=name):
            DecodingGraph(code, 2, **{name: weight})

    def test_x_type_graph(self, code):
        graph = DecodingGraph(code, num_rounds=2, stabilizer_type=StabilizerType.X)
        assert graph.num_checks == len(code.x_stabilizers)


class TestEdges:
    def test_time_edges_exist(self, code, graph):
        stab = code.z_stabilizers[0].index
        for layer in range(graph.num_layers - 1):
            assert graph.has_edge(graph.node_id(stab, layer), graph.node_id(stab, layer + 1))

    def test_time_edges_do_not_cross_observable(self, code, graph):
        stab = code.z_stabilizers[0].index
        assert graph.edge_frame(graph.node_id(stab, 0), graph.node_id(stab, 1)) is False

    def test_space_edges_for_two_neighbor_qubits(self, code, graph):
        for q in code.data_indices:
            neighbors = code.z_stabilizer_neighbors(q)
            if len(neighbors) == 2:
                u = graph.node_id(neighbors[0], 0)
                v = graph.node_id(neighbors[1], 0)
                assert graph.has_edge(u, v)

    def test_boundary_edges_for_single_neighbor_qubits(self, code, graph):
        for q in code.data_indices:
            neighbors = code.z_stabilizer_neighbors(q)
            if len(neighbors) == 1:
                assert graph.has_edge(graph.node_id(neighbors[0], 0), graph.boundary_node)

    def test_observable_crossing_boundary_edges(self, code, graph):
        """Top-row data qubits are on the logical-Z support, bottom-row ones are not."""
        support = set(code.logical_z_support)
        for q in code.data_indices:
            neighbors = code.z_stabilizer_neighbors(q)
            if len(neighbors) != 1:
                continue
            frame = graph.edge_frame(graph.node_id(neighbors[0], 0), graph.boundary_node)
            row = code.data_coord(q)[0]
            if row == 0:
                assert frame is True
            # Bottom-row boundary edges may share a node with a top-row qubit's
            # edge only if both have the same frame; asserted implicitly by the
            # deduplication logic (first edge wins, frames agree by symmetry).

    def test_adjacency_matrix_is_symmetric(self, graph):
        diff = (graph.adjacency - graph.adjacency.T).toarray()
        assert np.allclose(diff, 0.0)

    def test_edge_count_positive(self, graph):
        assert graph.num_edges > graph.num_nodes  # space + time edges

    def test_unknown_edge_raises(self, graph):
        with pytest.raises(KeyError):
            graph.edge_frame(0, graph.num_nodes - 1)

    def test_diagonal_edges_optional(self, code):
        plain = DecodingGraph(code, num_rounds=2)
        with_diag = DecodingGraph(code, num_rounds=2, diagonal_weight=2.0)
        assert with_diag.num_edges > plain.num_edges


class TestDetectorConversion:
    def test_detector_nodes_shape_validation(self, graph):
        with pytest.raises(ValueError):
            graph.detector_nodes(np.zeros((2, 2), dtype=bool))

    def test_detector_nodes_empty(self, graph):
        matrix = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
        assert graph.detector_nodes(matrix).size == 0

    def test_detector_nodes_positions(self, graph):
        matrix = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
        matrix[2, 1] = True
        nodes = graph.detector_nodes(matrix)
        assert list(nodes) == [2 * graph.num_checks + 1]


class TestSharedGraphs:
    """In-process decoding-graph dedup keyed by construction parameters."""

    @pytest.fixture(autouse=True)
    def _fresh_shared_graphs(self):
        """Isolate the module-level shared-graph registry per test."""
        clear_shared_graphs()
        yield
        clear_shared_graphs()

    def test_same_config_shares_graph(self):
        code = RotatedSurfaceCode(3)
        a = SurfaceCodeDecoder(code, num_rounds=4)
        b = SurfaceCodeDecoder(code, num_rounds=4, method="greedy")
        assert a.graph is b.graph
        c = SurfaceCodeDecoder(code, num_rounds=5)
        assert c.graph is not a.graph

    def test_clear_drops_registry(self):
        code = RotatedSurfaceCode(3)
        a = SurfaceCodeDecoder(code, num_rounds=4)
        clear_shared_graphs()
        b = SurfaceCodeDecoder(code, num_rounds=4)
        assert a.graph is not b.graph

    def test_chunk_stats_count_one_build_per_shared_graph(self):
        """Decoders sharing a graph report per-decoder deltas, so merging
        every chunk's stats counts the one table build exactly once."""
        job = SweepJob(distance=3, policy="eraser", shots=40, rounds=30, chunk_shots=10)
        assert job.num_chunks == 4
        registry = MetricsRegistry()
        for chunk in range(job.num_chunks):
            _, stats = execute_chunk_with_stats(job, chunk)
            registry.merge_counts(stats, prefix="decoder_")
        counters = registry.snapshot()["counters"]
        assert counters["decoder_frame_table_builds"] == 1
        assert counters["decoder_shots"] == job.shots
