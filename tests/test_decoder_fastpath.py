"""Exact-equivalence property tests for the decoder fast path.

The fast path layers (the space-time table, syndrome dedup + LRU, the
small-syndrome enumeration, the native blossom port, the vectorised greedy
matcher) must all be *performance-only*: for every input, corrections are
bit-identical to the seed implementation preserved in
:mod:`repro.decoder.reference`.  These tests enforce that property on
randomized detector matrices — including dense, tie-heavy syndromes far
outside the realistic distribution — so any divergence in tie-breaking or
frame accumulation fails loudly.
"""

from collections import OrderedDict

import numpy as np
import networkx as nx
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.codes.repetition import RepetitionCode
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoder.blossom import min_weight_matching_complete
from repro.decoder.decoder import SurfaceCodeDecoder
from repro.decoder import graph as graph_module
from repro.decoder import matching as matching_module
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
from test_decoder import _SplitGraph


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

    @pytest.mark.parametrize("method", ["mwpm", "greedy", "auto"])
    def test_decode_batch_matches_seed(self, code, method):
        rounds = 4
        decoder = SurfaceCodeDecoder(code, num_rounds=rounds, method=method)
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
        assert not hasattr(decoder.graph, "_space_time_table")
        assert len(decoder._correction_cache) == 0
        np.testing.assert_array_equal(decoder.decode_batch(histories, finals), first)


TABLE_ATTRS = ("_space_time_table",)


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
        assert graph._space_time_table.distances.shape == (graph.num_checks, graph.num_nodes + 1)


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


def _syndromes_of_sizes(graph, rng, sizes):
    """One ``(layers, checks)`` detector matrix per entry of ``sizes``."""
    detectors = np.zeros((len(sizes), graph.num_nodes), dtype=bool)
    for row, k in enumerate(sizes):
        detectors[row, rng.choice(graph.num_nodes, k, replace=False)] = True
    return detectors.reshape(len(sizes), graph.num_layers, graph.num_checks)


class TestSmallSyndromeTier:
    """The batched enumeration layer vs blossom, the reference and the
    one-syndrome-at-a-time LRU."""

    LIMIT = matching_module._ENUMERATION_MAX_NODES

    @pytest.mark.parametrize("method", ["mwpm", "auto"])
    @pytest.mark.parametrize("shape", GRAPH_SHAPES)
    def test_bit_identical_across_sizes(self, method, shape):
        d, rounds, space, time = shape
        decoder = SurfaceCodeDecoder(
            RotatedSurfaceCode(d),
            num_rounds=rounds,
            method=method,
            space_weight=space,
            time_weight=time,
        )
        graph = decoder.graph
        rng = np.random.default_rng(d * 100 + rounds + len(method))
        sizes = np.tile(np.arange(1, self.LIMIT + 3), 12)
        detectors = _syndromes_of_sizes(graph, rng, sizes)
        got = decoder.predict_corrections_batch(detectors)
        matcher = build_matcher(graph, method)
        reference = build_reference_matcher(graph, method)
        for row, matrix in enumerate(detectors):
            expected = matcher.decode_nodes(graph.detector_nodes(matrix))
            assert got[row] == expected == reference.decode(matrix), (row, sizes[row])
        stats = decoder.stats
        assert stats.enumerated > 0 and stats.blossom > 0
        assert stats.matched == stats.enumerated + stats.blossom + stats.greedy

    def test_decode_batch_matches_reference(self):
        code = RotatedSurfaceCode(3)
        decoder = SurfaceCodeDecoder(code, num_rounds=4, method="mwpm")
        rng = np.random.default_rng(20)
        histories = (rng.random((200, 4, code.num_stabilizers)) < 0.06).astype(np.uint8)
        finals = (rng.random((200, code.num_data_qubits)) < 0.06).astype(np.uint8)
        detectors = decoder.build_detectors_batch(histories, finals)
        observed = finals[:, decoder._logical_support()].sum(axis=1) % 2
        expected = reference_decode_batch(
            build_reference_matcher(decoder.graph, "mwpm"), decoder.graph, detectors, observed
        )
        np.testing.assert_array_equal(decoder.decode_batch(histories, finals), expected)
        assert decoder.stats.enumerated > 0

    def test_greedy_never_enumerates(self):
        decoder = SurfaceCodeDecoder(RotatedSurfaceCode(3), num_rounds=3, method="greedy")
        rng = np.random.default_rng(21)
        decoder.predict_corrections_batch(_syndromes_of_sizes(decoder.graph, rng, range(1, 9)))
        assert decoder.stats.enumerated == 0
        assert decoder.stats.greedy == decoder.stats.matched == 8

    def test_opposite_parity_tie_goes_to_blossom(self):
        decoder = SurfaceCodeDecoder(RotatedSurfaceCode(3), num_rounds=3, method="mwpm")
        graph = decoder.graph
        nodes = np.array([0, 2, 4])
        # Price the three matchings of {0, 2, 4, boundary} by hand: two tie
        # at the minimum with opposite frame parities, on unambiguous entries.
        table = _all_pairs(graph)
        rows, cols = table.index(nodes, graph.boundary_node)
        dist, frames = table.distances[rows, cols], table.frames[rows, cols]
        ambiguous = table.ambiguous[rows, cols]
        options = [
            (
                dist[a, b] + dist[c, 3],
                bool(frames[a, b] ^ frames[c, 3]),
                bool(ambiguous[a, b] or ambiguous[b, a] or ambiguous[c, 3]),
            )
            for a, b, c in ((0, 1, 2), (0, 2, 1), (1, 2, 0))
        ]
        best = min(option[0] for option in options)
        tied = [option[1:] for option in options if option[0] == best]
        assert sorted(tied) == [(False, False), (True, False)]
        detectors = np.zeros(graph.num_nodes, dtype=bool)
        detectors[nodes] = True
        detectors = detectors.reshape(graph.num_layers, graph.num_checks)
        expected = build_reference_matcher(graph, "mwpm").decode(detectors)
        assert decoder.predict_correction(detectors) == expected
        assert (decoder.stats.enumerated, decoder.stats.blossom) == (0, 1)

    def test_all_hit_batch_builds_no_table(self):
        decoder = SurfaceCodeDecoder(RotatedSurfaceCode(3), num_rounds=3, method="mwpm")
        rng = np.random.default_rng(22)
        detectors = _syndromes_of_sizes(decoder.graph, rng, [1, 2, 3, 4])
        first = decoder.predict_corrections_batch(detectors)
        decoder.graph.clear_caches()
        builds = decoder.stats.frame_table_builds
        np.testing.assert_array_equal(decoder.predict_corrections_batch(detectors), first)
        assert decoder.stats.cache_hits == 4
        assert decoder.stats.frame_table_builds == builds
        assert not hasattr(decoder.graph, "_space_time_table")

    @staticmethod
    def _loop_lru(reference, graph, batches, cache_size):
        """The one-syndrome-at-a-time LRU: hits, then misses inserted as matched."""
        cache, hits = OrderedDict(), 0
        for detectors in batches:
            flat = detectors.reshape(detectors.shape[0], -1)
            nonempty = np.flatnonzero(flat.any(axis=1))
            uniq, first = np.unique(
                np.packbits(flat[nonempty], axis=1), axis=0, return_index=True
            )
            for pos in range(uniq.shape[0]):
                key = uniq[pos].tobytes()
                if key in cache:
                    cache.move_to_end(key)
                    hits += 1
                    continue
                cache[key] = reference.decode(detectors[nonempty[first[pos]]])
                if len(cache) > cache_size:
                    cache.popitem(last=False)
        return list(cache.items()), hits

    @pytest.mark.parametrize("cache_size", [1, 2, 8192])
    def test_lru_matches_one_at_a_time_loop(self, cache_size):
        decoder = SurfaceCodeDecoder(
            RotatedSurfaceCode(3), num_rounds=3, method="mwpm", cache_size=cache_size
        )
        graph = decoder.graph
        rng = np.random.default_rng(23)
        pool = _syndromes_of_sizes(graph, rng, rng.integers(1, 14, size=12))
        batches = [pool[rng.integers(0, pool.shape[0], size=8)] for _ in range(6)]
        for detectors in batches:
            decoder.predict_corrections_batch(detectors)
        reference = build_reference_matcher(graph, "mwpm")
        entries, hits = self._loop_lru(reference, graph, batches, cache_size)
        assert list(decoder._correction_cache.items()) == entries
        assert decoder.stats.cache_hits == hits

    @pytest.mark.parametrize("method", ["mwpm", "auto"])
    def test_disconnected_syndrome_still_raises(self, method):
        decoder = SurfaceCodeDecoder(RepetitionCode(3), num_rounds=2, method=method)
        decoder.graph = _SplitGraph(RepetitionCode(3), num_rounds=2)
        decoder._matcher = build_matcher(decoder.graph, method)
        detectors = np.zeros((2, decoder.graph.num_layers, decoder.graph.num_checks), dtype=bool)
        detectors[0, 0, 1] = detectors[0, 1, 1] = True  # connected by a time edge
        detectors[1, 0, 0] = detectors[1, 0, 1] = True
        with pytest.raises(ValueError, match="no path from detector node 0 to detector node 1"):
            decoder.predict_corrections_batch(detectors)
        # The connected syndrome was decoded and kept; the failed one left
        # no placeholder behind.
        assert list(decoder._correction_cache.values()) == [0]
