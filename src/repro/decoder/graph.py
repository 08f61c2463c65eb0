"""Space-time decoding graph for memory experiments.

For a memory-Z experiment the decoder matches flipped Z-type detectors.  The
graph has one node per (Z stabilizer, round) pair — including a final layer of
detectors obtained from the transversal data-qubit measurement — plus a single
virtual boundary node.  Edges model the dominant error mechanisms:

* *space edges* between the one or two Z checks adjacent to each data qubit
  (data-qubit Pauli errors), annotated with whether that data qubit lies on
  the logical observable's support,
* *time edges* between consecutive rounds of the same check (measurement
  errors), and
* optional *diagonal edges* between adjacent checks in consecutive rounds
  (hook errors from mid-round CNOT faults).

Every layer gets the same space and boundary edges and every pair of
consecutive layers the same time and diagonal edges (diagonals in both
orientations), with weights and frames independent of the layer.  The graph
is therefore uniform in time and symmetric under time reflection, which
lets ``repro.decoder.matching`` answer every shortest-path query from one
Dijkstra row per layer-0 check (its space-time table) instead of all-pairs
or per-shot searches.  Changes to the construction must keep both
properties.

The decoder is deliberately leakage-unaware, exactly as in the paper: leakage
shows up to the decoder only through the random Pauli/measurement errors it
induces.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.codes.layout import StabilizerType
from repro.codes.base import StabilizerCode


@dataclass
class DecodingGraph:
    """Matching graph over space-time detector nodes.

    Args:
        code: The rotated surface code being decoded.
        num_rounds: Number of syndrome-extraction rounds.  The graph contains
            ``num_rounds + 1`` detector layers; the final layer comes from the
            transversal data measurement.
        stabilizer_type: Which detector family to decode (Z detects X errors).
        space_weight: Edge weight for data-qubit errors.
        time_weight: Edge weight for measurement errors.
        diagonal_weight: Edge weight for hook-like space-time errors; ``None``
            disables diagonal edges.  Every weight must be strictly
            positive (``ValueError`` otherwise): the space-time table of
            ``repro.decoder.matching`` relies on it.
        artifact_store: Optional
            :class:`~repro.decoder.artifacts.DecoderArtifactStore`.  When
            set, the matching layer loads the graph's space-time table
            from the store (memory-mapped, shared across processes)
            instead of rebuilding it, and persists it after a cold build.  Performance-only: corrections are bit-identical either
            way.  The ``artifact_hits``/``artifact_misses``/``apsp_builds``/
            ``frame_table_builds`` counters record what actually happened.
    """

    code: StabilizerCode
    num_rounds: int
    stabilizer_type: StabilizerType = StabilizerType.Z
    space_weight: float = 1.0
    time_weight: float = 1.0
    diagonal_weight: float = None
    artifact_store: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        for name in ("space_weight", "time_weight", "diagonal_weight"):
            weight = getattr(self, name)
            if weight is not None and not weight > 0:
                raise ValueError(f"{name} must be > 0, got {weight}")
        #: Artifact-store dispatch counters, maintained by
        #: ``repro.decoder.matching`` and surfaced through ``DecoderStats``.
        self.artifact_hits = 0
        self.artifact_misses = 0
        self.apsp_builds = 0
        self.frame_table_builds = 0
        self._stabs = [
            s for s in self.code.stabilizers if s.stype is self.stabilizer_type
        ]
        self._stab_to_local = {s.index: i for i, s in enumerate(self._stabs)}
        self._num_checks = len(self._stabs)
        self._num_layers = self.num_rounds + 1
        self._build()

    # ------------------------------------------------------------------
    # Identifiers
    # ------------------------------------------------------------------
    @property
    def num_checks(self) -> int:
        """Number of parity checks of the decoded type per round."""
        return self._num_checks

    @property
    def num_layers(self) -> int:
        """Number of detector layers (rounds plus the final data-measurement layer)."""
        return self._num_layers

    @property
    def num_nodes(self) -> int:
        """Number of detector nodes (excluding the boundary node)."""
        return self._num_checks * self._num_layers

    @property
    def boundary_node(self) -> int:
        """Index of the virtual boundary node."""
        return self.num_nodes

    @property
    def checks(self) -> Tuple[int, ...]:
        """Stabilizer indices of the decoded type, in local order."""
        return tuple(s.index for s in self._stabs)

    def node_id(self, stabilizer_index: int, layer: int) -> int:
        """Node id of a (stabilizer, layer) detector."""
        if not 0 <= layer < self._num_layers:
            raise ValueError(f"layer {layer} out of range")
        return layer * self._num_checks + self._stab_to_local[stabilizer_index]

    def local_index(self, stabilizer_index: int) -> int:
        """Position of a stabilizer within the per-layer detector ordering."""
        return self._stab_to_local[stabilizer_index]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _neighbors_of_data_qubit(self, data_qubit: int) -> Sequence[int]:
        if self.stabilizer_type is StabilizerType.Z:
            return self.code.z_stabilizer_neighbors(data_qubit)
        return self.code.x_stabilizer_neighbors(data_qubit)

    def _observable_support(self) -> Tuple[int, ...]:
        if self.stabilizer_type is StabilizerType.Z:
            return self.code.logical_z_support
        return self.code.logical_x_support

    def _build(self) -> None:
        support = set(self._observable_support())
        rows: List[int] = []
        cols: List[int] = []
        weights: List[float] = []
        self._edge_frames: Dict[Tuple[int, int], bool] = {}

        def add_edge(u: int, v: int, weight: float, frame: bool) -> None:
            key = (u, v) if u < v else (v, u)
            existing = self._edge_frames.get(key)
            if existing is not None:
                # Keep the first (equal-weight) edge; frames agree by
                # construction on the rotated surface code.
                return
            self._edge_frames[key] = frame
            rows.extend([u, v])
            cols.extend([v, u])
            weights.extend([weight, weight])

        boundary = self.boundary_node
        # Space edges in every layer (data errors / final measurement errors).
        space_pairs: List[Tuple[int, int, bool]] = []
        space_boundary: List[Tuple[int, bool]] = []
        for data_qubit in self.code.data_indices:
            neighbors = list(self._neighbors_of_data_qubit(data_qubit))
            frame = data_qubit in support
            if len(neighbors) == 2:
                space_pairs.append((neighbors[0], neighbors[1], frame))
            elif len(neighbors) == 1:
                space_boundary.append((neighbors[0], frame))
        for layer in range(self._num_layers):
            for s1, s2, frame in space_pairs:
                add_edge(self.node_id(s1, layer), self.node_id(s2, layer), self.space_weight, frame)
            for s1, frame in space_boundary:
                add_edge(self.node_id(s1, layer), boundary, self.space_weight, frame)
        # Time edges between consecutive layers of the same check.
        for layer in range(self._num_layers - 1):
            for stab in self._stabs:
                add_edge(
                    self.node_id(stab.index, layer),
                    self.node_id(stab.index, layer + 1),
                    self.time_weight,
                    False,
                )
        # Optional diagonal (hook) edges.
        if self.diagonal_weight is not None:
            for layer in range(self._num_layers - 1):
                for s1, s2, frame in space_pairs:
                    add_edge(
                        self.node_id(s1, layer),
                        self.node_id(s2, layer + 1),
                        self.diagonal_weight,
                        frame,
                    )
                    add_edge(
                        self.node_id(s2, layer),
                        self.node_id(s1, layer + 1),
                        self.diagonal_weight,
                        frame,
                    )

        size = self.num_nodes + 1
        self.adjacency = sp.csr_matrix(
            (weights, (rows, cols)), shape=(size, size), dtype=np.float64
        )
        # Flat edge arrays (one entry per undirected edge, in construction
        # order) power the space-time table's frame and ambiguity
        # propagation in ``repro.decoder.matching``.
        # Weights are taken from the (rows, cols, weights) triplets directly,
        # whose even positions list each edge once in insertion order.
        num_edges = len(self._edge_frames)
        endpoints = np.fromiter(
            (node for key in self._edge_frames for node in key),
            dtype=np.int64,
            count=2 * num_edges,
        ).reshape(num_edges, 2)
        self.edge_endpoints = endpoints
        self.edge_frame_bits = np.fromiter(
            self._edge_frames.values(), dtype=bool, count=num_edges
        )
        self.edge_weights = np.asarray(weights[::2], dtype=np.float64)
        # Sorted companion arrays so ``edge_frames_lookup`` resolves a whole
        # array of (u, v) queries with one ``searchsorted``.
        keys = endpoints[:, 0] * np.int64(size) + endpoints[:, 1]
        order = np.argsort(keys)
        self._edge_keys = keys[order]
        self._edge_frame_bits_sorted = self.edge_frame_bits[order]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def edge_frame(self, u: int, v: int) -> bool:
        """Whether the edge (u, v) crosses the logical observable support."""
        key = (u, v) if u < v else (v, u)
        return self._edge_frames[key]

    def edge_frames_lookup(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`edge_frame` over parallel endpoint arrays.

        Every queried pair must be an edge of the graph; this is guaranteed
        for (predecessor, node) pairs taken from a shortest-path tree.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keys = lo * (self.num_nodes + 1) + hi
        idx = np.searchsorted(self._edge_keys, keys)
        if idx.size and (
            (idx >= self._edge_keys.size).any() or (self._edge_keys[idx] != keys).any()
        ):
            raise KeyError("edge_frames_lookup queried a non-edge pair")
        return self._edge_frame_bits_sorted[idx]

    def clear_caches(self) -> None:
        """Drop the cached space-time table (and the reference's APSP cache).

        Long-lived processes that decode many distinct graph shapes can call
        this to release the ~10 bytes per (check, node) the table holds (see
        ``repro.decoder.matching``) once a decoder is done.  When the rows
        came from an artifact store they are ``numpy.memmap`` views;
        dropping them here releases the underlying file handles, so the
        mapped store files can be deleted or replaced even on platforms that
        lock mapped files (Windows-style semantics).
        """
        for attr in ("_space_time_table", "_reference_apsp_cache"):
            if hasattr(self, attr):
                delattr(self, attr)

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._edge_frames

    @property
    def num_edges(self) -> int:
        return len(self._edge_frames)

    def detector_nodes(self, detector_matrix: np.ndarray) -> np.ndarray:
        """Convert a (layers, checks) boolean detector matrix into node ids."""
        matrix = np.asarray(detector_matrix, dtype=bool)
        expected = (self._num_layers, self._num_checks)
        if matrix.shape != expected:
            raise ValueError(f"detector matrix must have shape {expected}, got {matrix.shape}")
        layers, locals_ = np.nonzero(matrix)
        return layers * self._num_checks + locals_


# ----------------------------------------------------------------------
# In-process graph dedup
# ----------------------------------------------------------------------
#: Recently shared graphs, keyed by the construction parameters that pin the
#: graph structure.  Bounded: evicted graphs drop their cached tables (and
#: any mmap handles) so the memory/file handles are reclaimable.
_SHARED_GRAPHS: "OrderedDict[tuple, DecodingGraph]" = OrderedDict()

#: How many distinct graph shapes stay shared at once.  A sweep touches one
#: shape per (family, distance, rounds) point; eight covers every grid in
#: the paper with room to spare while bounding worst-case table memory.
_SHARED_GRAPH_LIMIT = 8


def shared_decoding_graph(
    code: StabilizerCode,
    num_rounds: int,
    stabilizer_type: StabilizerType = StabilizerType.Z,
    space_weight: float = 1.0,
    time_weight: float = 1.0,
    diagonal_weight: Optional[float] = None,
    artifact_store: Optional[object] = None,
) -> DecodingGraph:
    """One :class:`DecodingGraph` per construction signature, per process.

    Jobs in one executor run with the same (code family, distance, rounds,
    weights) used to rebuild identical graphs — and their space-time tables
    — once per decoder.  Code construction is deterministic per (family,
    distance), so the signature below pins the graph bit-for-bit and every
    same-shape decoder can share a single instance and its caches.  Codes
    without a registered family fall back to a private graph.
    """
    family = getattr(code, "family", None)
    if family is None or family == "abstract":
        return DecodingGraph(
            code=code,
            num_rounds=num_rounds,
            stabilizer_type=stabilizer_type,
            space_weight=space_weight,
            time_weight=time_weight,
            diagonal_weight=diagonal_weight,
            artifact_store=artifact_store,
        )
    store_key = None if artifact_store is None else str(getattr(artifact_store, "root", artifact_store))
    key = (
        family,
        int(code.distance),
        int(num_rounds),
        stabilizer_type,
        float(space_weight),
        float(time_weight),
        None if diagonal_weight is None else float(diagonal_weight),
        store_key,
    )
    graph = _SHARED_GRAPHS.get(key)
    if graph is None:
        graph = DecodingGraph(
            code=code,
            num_rounds=num_rounds,
            stabilizer_type=stabilizer_type,
            space_weight=space_weight,
            time_weight=time_weight,
            diagonal_weight=diagonal_weight,
            artifact_store=artifact_store,
        )
        _SHARED_GRAPHS[key] = graph
        while len(_SHARED_GRAPHS) > _SHARED_GRAPH_LIMIT:
            _, evicted = _SHARED_GRAPHS.popitem(last=False)
            evicted.clear_caches()
    else:
        _SHARED_GRAPHS.move_to_end(key)
    return graph


def clear_shared_graphs() -> None:
    """Drop every shared graph (and its cached tables / mmap handles)."""
    for graph in _SHARED_GRAPHS.values():
        graph.clear_caches()
    _SHARED_GRAPHS.clear()
