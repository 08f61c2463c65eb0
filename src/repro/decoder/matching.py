"""Matching engines used by the MWPM decoder.

Three matchers are provided:

* :class:`MwpmMatcher` — exact minimum-weight perfect matching, the gold
  standard used in the paper.  Every syndrome takes one path: its
  distances and frames come from the space-time table below, and the
  native blossom port (:mod:`repro.decoder.blossom`) pairs the detectors,
  so corrections stay bit-identical to the seed implementation
  (:mod:`repro.decoder.reference`).
* :class:`GreedyMatcher` — a fast approximate matcher that repeatedly pairs
  the closest remaining detectors (or sends a detector to the boundary),
  with option generation and sorting fully vectorised in numpy.
* :class:`AutoMatcher` — exact up to :attr:`AutoMatcher.EXACT_THRESHOLD`
  detectors, greedy above.

All matchers share one distance/path layer, the per-graph *space-time
table* (:class:`_SpaceTimeTable`): ``C`` Dijkstra rows, one from each
layer-0 check (``C = num_checks``), holding distances, frame parities (XOR
of edge frames along the shortest path) and an *ambiguous* mask.  No
all-pairs matrix and no per-shot Dijkstra is needed, because the decoding
graph is layer-uniform (every layer has the same space and boundary edges,
every layer pair the same time and diagonal edges) and time-reflection
symmetric (diagonal edges come in both orientations):

* Folding the layer axis with a triangle wave of period ``2 * |t2 - t1|``
  (period 2 when ``t1 == t2``) maps any path from ``(s1, t1)`` to
  ``(s2, t2)`` onto a path with the same edge weights and frames inside
  the window of layers between them (a two-layer window when they are
  equal); edges to the boundary node map to boundary edges.  Windows of
  equal width are isomorphic under translation and reflection, so
  ``D((s1, t1), (s2, t2)) = dist[s1, |t2 - t1| * C + s2]`` and
  ``D((s, t), boundary) = dist[s, boundary]``, bit for bit (Dijkstra's
  float distance is the minimum over paths of the left-to-right sum, and
  the fold preserves each path's weight sequence).
* The fold preserves frames too, so whenever every shortest path between
  two nodes has the same frame, that frame is route-independent and
  equals what the seed's predecessor walk from either endpoint gives.
  Entries where shortest paths of both parities tie are flagged in the
  mask; those queries fall back to the seed's exact route, a Dijkstra row
  from the query's source plus a predecessor walk.  Every graph has a
  table: :class:`~repro.decoder.graph.DecodingGraph` rejects non-positive
  edge weights.

Corrections therefore stay bit-identical to
:mod:`repro.decoder.reference` for every matcher.  The table costs 10
bytes per (row, node) entry (8-byte distance, 1-byte frame, 1-byte mask),
``10 * C * (N + 1)`` bytes for ``N`` detectors: 1.5 MB at d=9 with 90
rounds, where all-pairs tables took 13 bytes per node pair.  The Dijkstra
predecessor rows are only an input to the frames and are dropped once
:func:`_frame_parity_rows` has used them.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from repro.decoder.blossom import min_weight_matching_complete
from repro.decoder.graph import DecodingGraph

#: Relative slack (of a row's largest finite distance) under which an arc
#: still counts as *tight* when the ambiguity mask is propagated.  Float
#: rounding along a path is ~1e-16 per edge, so genuine shortest paths are
#: never cut; the slack can only add arcs, which only adds (exact)
#: fallbacks.
_TIGHT_RTOL = 1e-9


class _SpaceTimeTable(NamedTuple):
    """The graph's all-pairs distance oracle: one Dijkstra row per layer-0 check.

    Row ``s`` describes the shortest paths from detector ``(s, layer 0)`` to
    every node: ``distances``, ``frames`` (XOR of edge frames along scipy's
    shortest-path tree, from :func:`_frame_parity_rows`) and ``ambiguous``
    (shortest paths of *both* frame parities exist, so the frame depends on
    the route).  Time translation and reflection (module docstring) turn
    these ``C`` rows into every detector-detector and detector-boundary
    entry; :meth:`index` does the addressing.
    """

    num_checks: int
    distances: np.ndarray
    frames: np.ndarray
    ambiguous: np.ndarray

    def index(self, sources: np.ndarray, boundary: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row/column indices of the ``(k, k + 1)`` queries among ``sources``.

        Entry ``[i, j]`` addresses the path from ``sources[i]`` to
        ``sources[j]`` for ``j < k`` and to the boundary for ``j == k``:
        ``D((s1, t1), (s2, t2)) = distances[s1, |t2 - t1| * C + s2]`` and
        ``D((s, t), boundary) = distances[s, boundary]``.
        """
        k = sources.size
        layers, checks = np.divmod(sources, self.num_checks)
        cols = np.empty((k, k + 1), dtype=np.int64)
        cols[:, :k] = np.abs(layers[None, :] - layers[:, None]) * self.num_checks + checks
        cols[:, k] = boundary
        return checks[:, None], cols


def _frame_parity_rows(graph: DecodingGraph, predecessors: np.ndarray) -> np.ndarray:
    """XOR of edge frames from each row's source along its Dijkstra tree.

    Entry ``[row, node]`` is exactly the XOR the seed implementation
    accumulates by walking ``node``'s predecessor chain back to the source.
    Computed by pointer jumping, vectorised over all rows: every node keeps
    an ancestor and the frame XOR up to it, and each round replaces the
    ancestor by the ancestor's ancestor (XOR-ing in its frame), so
    ``log2(tree depth)`` rounds reach every root.  Unreachable nodes read
    ``False``.
    """
    k, n = predecessors.shape
    nodes = np.broadcast_to(np.arange(n), (k, n))
    has_parent = predecessors >= 0
    ancestors = np.where(has_parent, predecessors, nodes)
    frames = np.zeros((k, n), dtype=bool)
    frames[has_parent] = graph.edge_frames_lookup(
        predecessors[has_parent], nodes[has_parent]
    )
    while True:
        next_ancestors = np.take_along_axis(ancestors, ancestors, axis=1)
        if np.array_equal(next_ancestors, ancestors):
            return frames
        frames ^= np.take_along_axis(frames, ancestors, axis=1)
        ancestors = next_ancestors


def _ambiguity_rows(
    graph: DecodingGraph, distances: np.ndarray, frames: np.ndarray
) -> np.ndarray:
    """Where a shortest path's frame depends on the route, per table row.

    An arc ``u -> v`` is *tight* in a row when ``dist[u] + w == dist[v]``
    (up to :data:`_TIGHT_RTOL`): exactly the arcs on some shortest path.
    ``frames`` already gives one reachable parity per node (the tree's), so
    propagating "frame 0 / frame 1 reachable" over tight arcs in distance
    order reduces to reachability: a node reaches both parities iff some
    tight walk to it crosses an *inconsistent* tight arc, one with
    ``frames[u] ^ frame(u, v) != frames[v]``.  (A walk of the other parity
    has a first arc where its running parity leaves the tree's; conversely
    the tree path, an inconsistent arc and any tight continuation give a
    second parity.)  So the mask is one breadth-first search from the heads
    of inconsistent arcs over the tight arcs of all rows at once.
    Unreachable nodes are flagged too, so queries about them take the exact
    path, which reports them.
    """
    k, n = distances.shape
    ends = graph.edge_endpoints
    tails = np.concatenate((ends[:, 0], ends[:, 1]))
    heads = np.concatenate((ends[:, 1], ends[:, 0]))
    weights = np.tile(graph.edge_weights, 2)
    arc_frames = np.tile(graph.edge_frame_bits, 2)
    finite = np.isfinite(distances)
    scale = max(1.0, float(distances[finite].max())) if finite.any() else 1.0
    tail_dist = distances[:, tails]
    tight = np.isfinite(tail_dist) & (
        tail_dist + weights <= distances[:, heads] + _TIGHT_RTOL * scale
    )
    inconsistent = tight & (frames[:, tails] ^ arc_frames != frames[:, heads])
    ambiguous = ~finite
    seed_rows, seed_arcs = np.nonzero(inconsistent)
    if seed_rows.size:
        # Row r's node v is vertex r * n + v; one extra root feeds the seeds.
        root = k * n
        seeds = np.unique(seed_rows * n + heads[seed_arcs])
        arc_rows, arc_ids = np.nonzero(tight)
        src = np.concatenate((arc_rows * n + tails[arc_ids], np.full(seeds.size, root)))
        dst = np.concatenate((arc_rows * n + heads[arc_ids], seeds))
        arcs = sp.csr_matrix(
            (np.ones(src.size, dtype=np.int8), (src, dst)), shape=(root + 1, root + 1)
        )
        reached = breadth_first_order(arcs, root, directed=True, return_predecessors=False)
        ambiguous.reshape(-1)[reached[reached != root]] = True
    return ambiguous


def _all_pairs(graph: DecodingGraph) -> _SpaceTimeTable:
    """The graph's space-time table, built (or loaded) once and cached.

    The table lives on the graph as ``_space_time_table``;
    ``DecodingGraph.clear_caches()`` drops it.

    With an artifact store attached (:mod:`repro.decoder.artifacts`) the
    rows are looked up there first: a hit installs memory-mapped views
    instead of building, and a cold build is persisted for every later
    process.  The rows are deterministic functions of the graph identity
    the store hashes, so loaded and built tables are bit-identical.
    ``apsp_builds`` and ``frame_table_builds`` both count table builds.
    """
    table = getattr(graph, "_space_time_table", None)
    if table is None:
        table = _install_table(graph)
    return table


def _install_table(graph: DecodingGraph) -> _SpaceTimeTable:
    """Load or build the table rows and cache them on ``graph``."""
    store = graph.artifact_store
    loaded = None if store is None else store.load_graph_tables(graph)
    if loaded is not None:
        graph.artifact_hits += 1
        distances, frames, ambiguous = loaded
    else:
        if store is not None:
            graph.artifact_misses += 1
        distances, predecessors = dijkstra(
            graph.adjacency,
            directed=False,
            indices=np.arange(graph.num_checks),
            return_predecessors=True,
        )
        frames = _frame_parity_rows(graph, predecessors)
        del predecessors
        ambiguous = _ambiguity_rows(graph, distances, frames)
        graph.apsp_builds += 1
        graph.frame_table_builds += 1
        if store is not None:
            store.save_graph_tables(graph, distances, frames, ambiguous)
    table = _SpaceTimeTable(graph.num_checks, distances, frames, ambiguous)
    graph._space_time_table = table
    return table


def _frame_parity_table(graph: DecodingGraph) -> np.ndarray:
    """The frame-parity rows of the graph's table."""
    return _all_pairs(graph).frames


class _ShortestPaths:
    """Distances and observable frames among one syndrome's detectors.

    ``dist[i, j]`` is the shortest-path weight from detector ``i`` to
    detector ``j`` (``j < k``) or to the boundary (``j == k``), and
    :meth:`frame` the XOR of edge frames along that path exactly as the
    seed's predecessor walk from ``sources[i]`` accumulates it.  Entries
    come from the space-time table; ambiguous ones are answered by an exact
    Dijkstra row from the source and a walk, counted in ``fallbacks``.
    """

    def __init__(self, graph: DecodingGraph, sources: np.ndarray):
        self.graph = graph
        self.sources = sources
        self.fallbacks = 0
        self._rows: Dict[int, np.ndarray] = {}
        k = sources.size
        table = _all_pairs(graph)
        rows, cols = table.index(sources, graph.boundary_node)
        self.dist = table.distances[rows, cols]
        self._frames = table.frames[rows, cols]
        self._ambiguous = table.ambiguous[rows, cols]
        self.pair_dist = self.dist[:, :k]
        self.boundary_dist = self.dist[:, k]

    def frame(self, i: int, j: int) -> bool:
        """XOR of edge frames along the shortest path from detector ``i``
        to detector ``j`` (``j == k``: the boundary)."""
        if not self._ambiguous[i, j]:
            return bool(self._frames[i, j])
        self.fallbacks += 1
        source = int(self.sources[i])
        preds = self._rows.get(i)
        if preds is None:
            _, preds = dijkstra(
                self.graph.adjacency,
                directed=False,
                indices=source,
                return_predecessors=True,
            )
            self._rows[i] = preds
        k = self.sources.size
        node = self.graph.boundary_node if j == k else int(self.sources[j])
        frame = False
        while node != source:
            prev = int(preds[node])
            if prev < 0:
                raise ValueError("target node is unreachable from source")
            frame ^= self.graph.edge_frame(prev, node)
            node = prev
        return frame


class _BaseMatcher:
    """Shared decode logic: compute paths, delegate pairing, accumulate frames."""

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        #: Dispatch counters (how many decodes each engine stage served);
        #: read by ``benchmarks/bench_decoder_fastpath.py``.
        self.stats: Dict[str, int] = {}

    def _count(self, key: str, amount: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + amount

    def decode(self, detector_matrix: np.ndarray) -> int:
        """Return the predicted logical-observable correction (0 or 1)."""
        nodes = self.graph.detector_nodes(detector_matrix)
        return self.decode_nodes(nodes)

    def decode_nodes(self, nodes: np.ndarray) -> int:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return 0
        paths = _ShortestPaths(self.graph, nodes)
        pairs, to_boundary = self._match(paths)
        correction = False
        for i, j in pairs:
            correction ^= paths.frame(i, j)
        for i in to_boundary:
            correction ^= paths.frame(i, nodes.size)
        if paths.fallbacks:
            # Ambiguous frame queries answered by an exact per-source row.
            self._count("frame_fallbacks", paths.fallbacks)
        return int(correction)

    def _match(
        self, paths: _ShortestPaths
    ) -> Tuple[List[Tuple[int, int]], List[int]]:  # pragma: no cover - abstract
        raise NotImplementedError


class MwpmMatcher(_BaseMatcher):
    """Exact minimum-weight perfect matching.

    Shortest-path distances are computed on the full decoding graph, boundary
    node included, so the distance between two detectors already accounts for
    the cheapest route *through* the boundary; a matched pair whose shortest
    path crosses the boundary is physically two boundary terminations, and
    :meth:`_ShortestPaths.frame` accumulates its observable frame
    correctly either way.  A minimum-weight perfect matching on the ``k``
    detectors alone (plus one virtual boundary node when ``k`` is odd) is
    therefore exactly equivalent to the classic construction that mirrors
    every detector with a zero-weight boundary copy, while handing the
    matcher half the nodes and a quarter of the edges.

    Every syndrome runs the native blossom port
    (:mod:`repro.decoder.blossom`) on the complete detector graph.  A
    syndrome with a detector pair (or, for odd ``k``, a detector and the
    boundary) that the decoding graph does not connect raises
    ``ValueError`` naming the disconnected nodes.
    """

    #: Virtual node pairing the odd detector with the boundary.  An integer
    #: label keeps the matching independent of ``PYTHONHASHSEED`` (detector
    #: positions are the non-negative integers).
    _BOUNDARY = -1

    def _match(self, paths: _ShortestPaths) -> Tuple[List[Tuple[int, int]], List[int]]:
        self._count("blossom")
        k = paths.sources.size
        odd = k % 2 == 1
        finite = np.isfinite(paths.dist[:, : k + odd])
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            target = "the boundary" if j == k else f"detector node {paths.sources[j]}"
            raise ValueError(
                f"disconnected detectors: no path from detector node "
                f"{paths.sources[i]} to {target} in the decoding graph"
            )
        matching = min_weight_matching_complete(
            paths.pair_dist, paths.boundary_dist if odd else None, boundary_label=self._BOUNDARY
        )
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


class GreedyMatcher(_BaseMatcher):
    """Greedy nearest-pair matching (fast, approximate).

    Option generation is fully vectorised: boundary and pair candidates are
    laid out in the seed implementation's insertion order (per detector, its
    boundary option followed by its pairs in index order) and sorted with a
    stable argsort, so equal-weight options are taken in the exact order the
    original Python loop-and-sort produced.
    """

    def _match(self, paths: _ShortestPaths) -> Tuple[List[Tuple[int, int]], List[int]]:
        nodes = paths.sources
        k = nodes.size
        self._count("greedy")
        boundary_dist = paths.boundary_dist
        pair_dist = paths.pair_dist
        i_idx, j_idx = np.triu_indices(k, 1)
        total = k + i_idx.size
        option_w = np.empty(total, dtype=np.float64)
        option_i = np.empty(total, dtype=np.int64)
        option_j = np.empty(total, dtype=np.int64)
        # Row i occupies one slot for its boundary option plus (k-1-i) pair
        # slots, mirroring the seed's append order exactly.
        counts = k - np.arange(k)
        starts = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(np.int64)
        option_w[starts] = boundary_dist
        option_i[starts] = np.arange(k)
        option_j[starts] = -1
        if i_idx.size:
            pair_pos = starts[i_idx] + 1 + (j_idx - i_idx - 1)
            option_w[pair_pos] = pair_dist[i_idx, j_idx]
            option_i[pair_pos] = i_idx
            option_j[pair_pos] = j_idx
        keep = (option_j < 0) | np.isfinite(option_w)
        if not keep.all():
            option_w = option_w[keep]
            option_i = option_i[keep]
            option_j = option_j[keep]
        order = np.argsort(option_w, kind="stable").tolist()
        opt_i = option_i.tolist()
        opt_j = option_j.tolist()
        used = np.zeros(k, dtype=bool)
        pairs: List[Tuple[int, int]] = []
        to_boundary: List[int] = []
        for idx in order:
            i = opt_i[idx]
            if used[i]:
                continue
            j = opt_j[idx]
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


class AutoMatcher(_BaseMatcher):
    """Exact matching for small syndromes, greedy beyond a size threshold."""

    #: Largest syndrome (in detectors) that still takes the exact matcher.
    EXACT_THRESHOLD = 40

    def __init__(self, graph: DecodingGraph):
        super().__init__(graph)
        self._exact = MwpmMatcher(graph)
        self._greedy = GreedyMatcher(graph)
        # Sub-matchers increment one shared counter dict.
        self._exact.stats = self.stats
        self._greedy.stats = self.stats

    def decode_nodes(self, nodes: np.ndarray) -> int:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return 0
        if nodes.size <= self.EXACT_THRESHOLD:
            return self._exact.decode_nodes(nodes)
        return self._greedy.decode_nodes(nodes)

    def _match(self, paths):  # pragma: no cover - never called directly
        raise NotImplementedError


#: Every accepted ``method`` spelling, mapped to its canonical engine name.
MATCHER_ALIASES: Dict[str, str] = {
    "mwpm": "mwpm",
    "exact": "mwpm",
    "blossom": "mwpm",
    "greedy": "greedy",
    "auto": "auto",
}


def canonical_method(method: str) -> str:
    """The canonical engine name of ``method`` (case and padding ignored).

    Raises ``ValueError`` for a name not in :data:`MATCHER_ALIASES`.
    """
    key = MATCHER_ALIASES.get(str(method).strip().lower())
    if key is None:
        raise ValueError(f"unknown matching method {method!r}")
    return key


_MATCHERS = {"mwpm": MwpmMatcher, "greedy": GreedyMatcher, "auto": AutoMatcher}


def build_matcher(graph: DecodingGraph, method: str = "auto"):
    """Construct a decoder engine by name.

    Accepted names (:data:`MATCHER_ALIASES`): ``mwpm``/``exact``/``blossom``
    (exact matching), ``greedy``, and ``auto`` (exact up to
    :attr:`AutoMatcher.EXACT_THRESHOLD` detectors, greedy above).
    """
    return _MATCHERS[canonical_method(method)](graph)
