"""Exact-equivalence property tests for the decoder fast path.

The fast path layers (the space-time table, syndrome dedup + LRU, the native
blossom port, the vectorised greedy matcher) must all be
*performance-only*: for every input, corrections are bit-identical to the
seed implementation preserved in :mod:`repro.decoder.reference`.  These
tests enforce that property on randomized detector matrices — including
dense, tie-heavy syndromes far outside the realistic distribution — so any
divergence in tie-breaking or frame accumulation fails loudly.
"""

import numpy as np
import networkx as nx
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.codes.repetition import RepetitionCode
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoder.blossom import min_weight_matching_complete
from repro.decoder.decoder import SurfaceCodeDecoder
from repro.decoder import graph as graph_module
from repro.decoder.graph import (
    DecodingGraph,
    clear_shared_graphs,
    shared_decoding_graph,
)
from repro.decoder.matching import _all_pairs, build_matcher
from repro.decoder.reference import (
    build_reference_matcher,
    reference_decode_batch,
)
from repro.decoder.union_find import UnionFindMatcher


def random_detectors(graph, rng, max_flips):
    detectors = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
    for _ in range(int(rng.integers(0, max_flips + 1))):
        detectors[
            rng.integers(graph.num_layers), rng.integers(graph.num_checks)
        ] = True
    return detectors


#: (distance, rounds, space_weight, time_weight).  The non-integral last
#: entry makes equal-weight matchings rare, unlike the unit-weight graphs.
GRAPH_SHAPES = [(3, 3, 1.0, 1.0), (3, 6, 1.0, 1.0), (5, 4, 1.0, 1.0), (3, 4, 0.7, 1.3)]


@pytest.fixture(scope="module")
def graphs():
    return {
        (d, rounds, space, time): DecodingGraph(
            RotatedSurfaceCode(d),
            num_rounds=rounds,
            space_weight=space,
            time_weight=time,
        )
        for d, rounds, space, time in GRAPH_SHAPES
    }


class TestMatcherEquivalence:
    """Fast matchers vs the seed pipeline, per engine."""

    @pytest.mark.parametrize("method", ["mwpm", "greedy", "auto"])
    @pytest.mark.parametrize("shape", GRAPH_SHAPES)
    def test_bit_identical_corrections(self, graphs, method, shape):
        graph = graphs[shape]
        fast = build_matcher(graph, method)
        ref = build_reference_matcher(graph, method)
        seed = sum(ord(c) for c in method) * 1000 + shape[0] * 10 + shape[1]
        rng = np.random.default_rng(seed)
        for _ in range(150):
            detectors = random_detectors(graph, rng, max_flips=20)
            assert fast.decode(detectors) == ref.decode(detectors)


class TestBlossomPort:
    """The native blossom port vs networkx, at the matching level."""

    def test_matching_sets_identical_on_tie_heavy_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            k = int(rng.integers(1, 13))
            weights = rng.integers(1, 7, size=(k, k)).astype(float)
            weights = np.triu(weights, 1) + np.triu(weights, 1).T
            boundary = rng.integers(1, 7, size=k).astype(float)
            edges = []
            for i in range(k):
                edges.extend((i, j, weights[i, j]) for j in range(i + 1, k))
                if k % 2 == 1:
                    edges.append((i, -1, float(boundary[i])))
            if not edges:
                continue
            graph = nx.Graph()
            graph.add_weighted_edges_from(edges)
            expected = nx.min_weight_matching(graph)
            assert (
                min_weight_matching_complete(
                    weights, boundary if k % 2 == 1 else None
                )
                == expected
            )

    def test_float_weights(self):
        rng = np.random.default_rng(43)
        for _ in range(150):
            k = int(rng.integers(2, 11))
            weights = rng.uniform(0.1, 5.0, size=(k, k))
            weights = np.triu(weights, 1) + np.triu(weights, 1).T
            boundary = rng.uniform(0.1, 5.0, size=k)
            edges = []
            for i in range(k):
                edges.extend((i, j, weights[i, j]) for j in range(i + 1, k))
                if k % 2 == 1:
                    edges.append((i, -1, float(boundary[i])))
            graph = nx.Graph()
            graph.add_weighted_edges_from(edges)
            assert min_weight_matching_complete(
                weights, boundary if k % 2 == 1 else None
            ) == nx.min_weight_matching(graph)


class TestFrameParityTable:
    """The space-time table vs full scipy Dijkstra and the seed's walk."""

    @staticmethod
    def _walk(graph, predecessors, source, target):
        frame = False
        node = target
        while node != source:
            prev = int(predecessors[source, node])
            frame ^= graph.edge_frame(prev, node)
            node = prev
        return frame

    @pytest.mark.parametrize(
        "weights",
        [
            dict(),
            dict(space_weight=0.7, time_weight=1.3),
            dict(diagonal_weight=1.9),
        ],
    )
    def test_table_matches_walk(self, weights):
        """Exhaustive: every (detector, target) entry, on three graph shapes."""
        for code, rounds in (
            (RotatedSurfaceCode(3), 3),
            (RotatedSurfaceCode(5), 4),
            (RepetitionCode(5), 6),
        ):
            graph = DecodingGraph(code, num_rounds=rounds, **weights)
            table = _all_pairs(graph)
            distances, predecessors = dijkstra(
                graph.adjacency, directed=False, return_predecessors=True
            )
            detectors = np.arange(graph.num_nodes)
            rows, cols = table.index(detectors, graph.boundary_node)
            targets = np.append(detectors, graph.boundary_node)
            np.testing.assert_array_equal(
                table.distances[rows, cols], distances[np.ix_(detectors, targets)]
            )
            frames = table.frames[rows, cols]
            ambiguous = table.ambiguous[rows, cols]
            for source in detectors.tolist():
                for pos, target in enumerate(targets.tolist()):
                    if not ambiguous[source, pos]:
                        walked = self._walk(graph, predecessors, source, target)
                        assert bool(frames[source, pos]) == walked


class TestDecoderFastPath:
    """decode_batch's dedup/LRU layers vs per-shot seed decoding."""

    @pytest.fixture(scope="class")
    def code(self):
        return RotatedSurfaceCode(3)

    def _random_shots(self, code, rng, shots, rounds, duplicate=True):
        histories = (
            rng.random((shots, rounds, code.num_stabilizers)) < 0.04
        ).astype(np.uint8)
        finals = (rng.random((shots, code.num_data_qubits)) < 0.04).astype(np.uint8)
        if duplicate and shots >= 4:
            # Force exact duplicates so the dedup layer actually engages.
            histories[1] = histories[0]
            finals[1] = finals[0]
            histories[3] = histories[2]
            finals[3] = finals[2]
        # And a weight-0 shot for the short-circuit layer.
        histories[-1] = 0
        finals[-1] = 0
        return histories, finals

    @pytest.mark.parametrize("method", ["mwpm", "greedy", "auto", "union-find"])
    def test_decode_batch_matches_seed(self, code, method):
        rounds = 4
        decoder = SurfaceCodeDecoder(code, num_rounds=rounds, method=method)
        if method == "union-find":
            ref_matcher = UnionFindMatcher(decoder.graph)
        else:
            ref_matcher = build_reference_matcher(decoder.graph, method)
        rng = np.random.default_rng(11)
        for _ in range(4):
            histories, finals = self._random_shots(code, rng, 24, rounds)
            detectors = decoder.build_detectors_batch(histories, finals)
            observed = finals[:, decoder._logical_support()].sum(axis=1) % 2
            expected = reference_decode_batch(
                ref_matcher, decoder.graph, detectors, observed
            )
            np.testing.assert_array_equal(
                decoder.decode_batch(histories, finals), expected
            )
        stats = decoder.stats
        assert stats.shots == 4 * 24
        assert stats.dedup_hits + stats.cache_hits > 0
        assert stats.matched + stats.cache_hits + stats.dedup_hits + stats.empty == stats.shots

    def test_decode_shot_equals_decode_batch_row(self, code):
        decoder = SurfaceCodeDecoder(code, num_rounds=3)
        rng = np.random.default_rng(12)
        histories, finals = self._random_shots(code, rng, 10, 3, duplicate=False)
        batch = decoder.decode_batch(histories, finals)
        for shot in range(10):
            assert decoder.decode_shot(histories[shot], finals[shot]) == batch[shot]

    def test_cache_disabled_still_identical(self, code):
        cached = SurfaceCodeDecoder(code, num_rounds=3)
        uncached = SurfaceCodeDecoder(code, num_rounds=3, cache_size=0)
        rng = np.random.default_rng(13)
        histories, finals = self._random_shots(code, rng, 20, 3)
        np.testing.assert_array_equal(
            cached.decode_batch(histories, finals),
            uncached.decode_batch(histories, finals),
        )
        assert uncached.stats.cache_hits == 0
        assert len(uncached._correction_cache) == 0

    def test_lru_serves_repeats_across_batches(self, code):
        decoder = SurfaceCodeDecoder(code, num_rounds=3)
        rng = np.random.default_rng(14)
        histories, finals = self._random_shots(code, rng, 16, 3)
        first = decoder.decode_batch(histories, finals)
        matched_after_first = decoder.stats.matched
        second = decoder.decode_batch(histories, finals)
        np.testing.assert_array_equal(first, second)
        # The second pass decodes nothing new: every non-empty syndrome hits
        # the LRU populated by the first pass.
        assert decoder.stats.matched == matched_after_first

    def test_lru_stays_bounded(self, code):
        decoder = SurfaceCodeDecoder(code, num_rounds=3, cache_size=8)
        rng = np.random.default_rng(15)
        for _ in range(4):
            histories, finals = self._random_shots(code, rng, 16, 3)
            decoder.decode_batch(histories, finals)
        assert len(decoder._correction_cache) <= 8

    def test_cache_size_does_not_change_results(self, code):
        rng = np.random.default_rng(16)
        histories, finals = self._random_shots(code, rng, 24, 3)
        baseline = SurfaceCodeDecoder(code, num_rounds=3).decode_batch(
            histories, finals
        )
        for cache_size in (0, 2):
            variant = SurfaceCodeDecoder(code, num_rounds=3, cache_size=cache_size)
            np.testing.assert_array_equal(
                variant.decode_batch(histories, finals), baseline
            )

    def test_clear_caches_preserves_results(self, code):
        decoder = SurfaceCodeDecoder(code, num_rounds=3)
        rng = np.random.default_rng(17)
        histories, finals = self._random_shots(code, rng, 12, 3)
        first = decoder.decode_batch(histories, finals)
        decoder.clear_caches()
        assert not hasattr(decoder.graph, "_apsp_cache")
        assert not hasattr(decoder.graph, "_frame_parity_cache")
        assert len(decoder._correction_cache) == 0
        np.testing.assert_array_equal(decoder.decode_batch(histories, finals), first)


class TestUnionFindEdgeOrder:
    """Union-Find edge ids (peeling tie-breakers) must match the seed's
    dict-iteration construction despite the vectorised setup."""

    def test_edges_match_dict_order(self):
        graph = DecodingGraph(RotatedSurfaceCode(3), num_rounds=3)
        matcher = UnionFindMatcher(graph)
        expected = [
            (u, v, float(graph.adjacency[u, v]), frame)
            for (u, v), frame in graph._edge_frames.items()
        ]
        assert matcher._edges == expected


TABLE_ATTRS = ("_apsp_cache", "_frame_parity_cache", "_ambiguity_cache")


class TestTableLifetime:
    """The space-time table is released by every cache-dropping path."""

    def test_clear_caches_drops_table(self):
        code = RotatedSurfaceCode(3)
        decoder = SurfaceCodeDecoder(code, num_rounds=3, cache_size=0)
        rng = np.random.default_rng(18)
        histories = (rng.random((16, 3, code.num_stabilizers)) < 0.05).astype(np.uint8)
        finals = (rng.random((16, code.num_data_qubits)) < 0.05).astype(np.uint8)
        first = decoder.decode_batch(histories, finals)
        assert all(hasattr(decoder.graph, attr) for attr in TABLE_ATTRS)
        decoder.clear_caches()
        assert not any(hasattr(decoder.graph, attr) for attr in TABLE_ATTRS)
        np.testing.assert_array_equal(decoder.decode_batch(histories, finals), first)

    def test_shared_graph_eviction_drops_table(self):
        code = RotatedSurfaceCode(3)
        clear_shared_graphs()
        try:
            first = shared_decoding_graph(code, 2, space_weight=1.25)
            assert _all_pairs(first) is not None
            for rounds in range(3, 3 + graph_module._SHARED_GRAPH_LIMIT):
                shared_decoding_graph(code, rounds, space_weight=1.25)
            assert not any(hasattr(first, attr) for attr in TABLE_ATTRS)
        finally:
            clear_shared_graphs()

    def test_reference_keeps_its_own_cache(self):
        graph = DecodingGraph(RotatedSurfaceCode(3), num_rounds=3)
        detectors = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
        detectors[1, 0] = detectors[2, 1] = True
        build_reference_matcher(graph, "mwpm").decode(detectors)
        assert not any(hasattr(graph, attr) for attr in TABLE_ATTRS)
        build_matcher(graph, "mwpm").decode(detectors)
        distances, _ = graph._reference_apsp_cache
        assert distances.shape == (graph.num_nodes + 1, graph.num_nodes + 1)
        assert graph._apsp_cache[0].shape == (graph.num_checks, graph.num_nodes + 1)


class TestFrameFallbacks:
    """Ambiguous table entries take the exact route and are counted."""

    def test_ambiguous_pair_falls_back_and_counts(self):
        code = RotatedSurfaceCode(3)
        decoder = SurfaceCodeDecoder(code, num_rounds=3, method="mwpm")
        graph = decoder.graph
        table = _all_pairs(graph)
        rows, cols = np.nonzero(table.ambiguous[:, : graph.num_nodes])
        assert rows.size, "the d=3 unit-weight graph has tied frames"
        detectors = np.zeros((graph.num_layers, graph.num_checks), dtype=bool)
        detectors[0, rows[0]] = True
        detectors.reshape(-1)[cols[0]] = True
        expected = build_reference_matcher(graph, "mwpm").decode(detectors)
        assert decoder.predict_correction(detectors) == expected
        assert decoder.stats.frame_fallbacks == 1
        assert decoder.stats.as_dict()["frame_fallbacks"] == 1
        assert decoder._matcher.stats["frame_fallbacks"] == 1


class TestAboveAllPairsLimit:
    """Bit-identity on a graph past the old 2048-node all-pairs limit, where
    the seed decodes every shot with a fresh per-shot Dijkstra."""

    @pytest.mark.parametrize("method", ["mwpm", "auto"])
    def test_d9_matches_reference(self, method):
        graph = DecodingGraph(RotatedSurfaceCode(9), num_rounds=60)
        assert graph.num_nodes + 1 > 2048
        fast = build_matcher(graph, method)
        ref = build_reference_matcher(graph, method)
        rng = np.random.default_rng(19 + len(method))
        for _ in range(20):
            detectors = random_detectors(graph, rng, max_flips=14)
            assert fast.decode(detectors) == ref.decode(detectors)
