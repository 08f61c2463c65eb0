"""Frozen seed implementation of the syndrome->correction pipeline.

The decoder fast path (space-time table, syndrome dedup, native blossom
matching — see :mod:`repro.decoder.matching` and
:mod:`repro.decoder.decoder`) is required to produce corrections that are
bit-identical to the implementation this repository started from.  This
module preserves that original pipeline verbatim so that

* the exact-equivalence property tests (``tests/test_decoder_fastpath.py``)
  can compare the fast path against the genuine seed behaviour instead of a
  re-derivation of it, and
* ``benchmarks/bench_decoder_fastpath.py`` can measure the fast path's
  speedup against the true pre-optimisation baseline.

Nothing here should be used by production code; it is deliberately the slow
path.  Decoding runs one shortest-path query per shot and walks predecessor
chains in Python to accumulate observable frames (Eq. (4) of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.decoder.graph import DecodingGraph


@dataclass
class _ReferenceShortestPaths:
    """Dijkstra output from every flipped detector to every graph node."""

    sources: np.ndarray
    distances: np.ndarray
    predecessors: np.ndarray

    def distance(self, source_pos: int, target_node: int) -> float:
        return float(self.distances[source_pos, target_node])

    def path_frame(self, graph: DecodingGraph, source_pos: int, target_node: int) -> bool:
        """XOR of edge frames along the shortest path source -> target."""
        frame = False
        node = target_node
        preds = self.predecessors[source_pos]
        source = int(self.sources[source_pos])
        while node != source:
            prev = int(preds[node])
            if prev < 0:
                raise ValueError("target node is unreachable from source")
            frame ^= graph.edge_frame(prev, node)
            node = prev
        return frame


_REFERENCE_APSP_NODE_LIMIT = 2048


def _reference_all_pairs(graph: DecodingGraph):
    """All-pairs Dijkstra, cached on the graph under the reference's own key.

    The fast path caches its space-time table under different attributes,
    so the oracle never reads anything the code under test wrote.
    """
    cached = getattr(graph, "_reference_apsp_cache", None)
    if cached is None:
        distances, predecessors = dijkstra(
            graph.adjacency,
            directed=False,
            return_predecessors=True,
        )
        cached = (distances, predecessors)
        graph._reference_apsp_cache = cached
    return cached


def _reference_shortest_paths(
    graph: DecodingGraph, nodes: np.ndarray
) -> _ReferenceShortestPaths:
    if graph.adjacency.shape[0] <= _REFERENCE_APSP_NODE_LIMIT:
        distances, predecessors = _reference_all_pairs(graph)
        return _ReferenceShortestPaths(
            sources=nodes,
            distances=distances[nodes],
            predecessors=predecessors[nodes],
        )
    distances, predecessors = dijkstra(
        graph.adjacency,
        directed=False,
        indices=nodes,
        return_predecessors=True,
    )
    if nodes.size == 1:
        distances = np.atleast_2d(distances)
        predecessors = np.atleast_2d(predecessors)
    return _ReferenceShortestPaths(
        sources=nodes, distances=distances, predecessors=predecessors
    )


class _ReferenceBaseMatcher:
    """Seed decode logic: compute paths, delegate pairing, walk out frames."""

    def __init__(self, graph: DecodingGraph):
        self.graph = graph

    def decode(self, detector_matrix: np.ndarray) -> int:
        nodes = self.graph.detector_nodes(detector_matrix)
        return self.decode_nodes(nodes)

    def decode_nodes(self, nodes: np.ndarray) -> int:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return 0
        paths = _reference_shortest_paths(self.graph, nodes)
        pairs, to_boundary = self._match(paths)
        correction = False
        for i, j in pairs:
            correction ^= paths.path_frame(self.graph, i, int(nodes[j]))
        boundary = self.graph.boundary_node
        for i in to_boundary:
            correction ^= paths.path_frame(self.graph, i, boundary)
        return int(correction)

    def _match(
        self, paths: _ReferenceShortestPaths
    ) -> Tuple[List[Tuple[int, int]], List[int]]:  # pragma: no cover - abstract
        raise NotImplementedError


class ReferenceMwpmMatcher(_ReferenceBaseMatcher):
    """Seed exact matcher: always networkx blossom, Python frame walks."""

    _BOUNDARY = -1

    def _match(
        self, paths: _ReferenceShortestPaths
    ) -> Tuple[List[Tuple[int, int]], List[int]]:
        nodes = paths.sources
        k = nodes.size
        boundary = self.graph.boundary_node
        pair_dist = paths.distances[:, nodes]
        graph = nx.Graph()
        i_idx, j_idx = np.triu_indices(k, 1)
        weights = pair_dist[i_idx, j_idx]
        finite = np.isfinite(weights)
        graph.add_weighted_edges_from(
            zip(i_idx[finite].tolist(), j_idx[finite].tolist(), weights[finite].tolist())
        )
        if k % 2 == 1:
            boundary_dist = paths.distances[:, boundary]
            graph.add_weighted_edges_from(
                (self._BOUNDARY, i, float(boundary_dist[i])) for i in range(k)
            )
        matching = nx.min_weight_matching(graph)
        pairs: List[Tuple[int, int]] = []
        to_boundary: List[int] = []
        for u, v in matching:
            if u == self._BOUNDARY:
                to_boundary.append(v)
            elif v == self._BOUNDARY:
                to_boundary.append(u)
            else:
                pairs.append((u, v))
        return pairs, to_boundary


class ReferenceGreedyMatcher(_ReferenceBaseMatcher):
    """Seed greedy matcher: Python triple loop over all O(k^2) options."""

    def _match(
        self, paths: _ReferenceShortestPaths
    ) -> Tuple[List[Tuple[int, int]], List[int]]:
        nodes = paths.sources
        k = nodes.size
        boundary = self.graph.boundary_node
        options: List[Tuple[float, int, int]] = []
        for i in range(k):
            options.append((paths.distance(i, boundary), i, -1))
            for j in range(i + 1, k):
                weight = paths.distance(i, int(nodes[j]))
                if np.isfinite(weight):
                    options.append((weight, i, j))
        options.sort(key=lambda item: item[0])
        used = np.zeros(k, dtype=bool)
        pairs: List[Tuple[int, int]] = []
        to_boundary: List[int] = []
        for weight, i, j in options:
            if used[i]:
                continue
            if j >= 0:
                if used[j]:
                    continue
                used[i] = used[j] = True
                pairs.append((i, j))
            else:
                used[i] = True
                to_boundary.append(i)
            if used.all():
                break
        for i in range(k):
            if not used[i]:
                to_boundary.append(i)
        return pairs, to_boundary


class ReferenceAutoMatcher(_ReferenceBaseMatcher):
    """Seed auto matcher: exact up to 40 detectors, greedy above."""

    def __init__(self, graph: DecodingGraph):
        super().__init__(graph)
        self._exact = ReferenceMwpmMatcher(graph)
        self._greedy = ReferenceGreedyMatcher(graph)

    def decode_nodes(self, nodes: np.ndarray) -> int:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return 0
        if nodes.size <= 40:
            return self._exact.decode_nodes(nodes)
        return self._greedy.decode_nodes(nodes)

    def _match(self, paths):  # pragma: no cover - never called directly
        raise NotImplementedError


def build_reference_matcher(graph: DecodingGraph, method: str = "auto"):
    """Seed twin of :func:`repro.decoder.matching.build_matcher`."""
    key = method.strip().lower()
    if key in ("mwpm", "exact", "blossom"):
        return ReferenceMwpmMatcher(graph)
    if key == "greedy":
        return ReferenceGreedyMatcher(graph)
    if key == "auto":
        return ReferenceAutoMatcher(graph)
    raise ValueError(f"unknown reference matching method {method!r}")


def reference_decode_batch(
    matcher, graph: DecodingGraph, detectors: np.ndarray, observed: np.ndarray
) -> np.ndarray:
    """The seed ``decode_batch`` tail: one matcher call per non-empty shot.

    ``detectors`` is the ``(shots, layers, checks)`` boolean detector array
    and ``observed`` the ``(shots,)`` raw observable flips; returns the
    ``(shots,)`` boolean post-correction logical-error array exactly as the
    pre-fast-path decoder did (no dedup, no caching, per-shot matching).
    """
    errors = np.zeros(detectors.shape[0], dtype=bool)
    nonempty = detectors.any(axis=(1, 2))
    for shot in np.flatnonzero(nonempty):
        correction = matcher.decode(detectors[shot])
        errors[shot] = bool(int(observed[shot]) ^ correction)
    errors[~nonempty] = observed[~nonempty].astype(bool)
    return errors
