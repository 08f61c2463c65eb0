"""High-level decoder facade used by the memory-experiment harness.

Computes the logical error rate of Equation (4): detector events from each
shot are matched on the space-time decoding graph (Section 2.2 background)
and the correction's parity is compared against the true observable flip.

Decoding is batch-aware and layered (fastest layer first):

1. *weight-0 short-circuit* — shots without detection events take the
   identity correction without touching the matcher;
2. *in-batch dedup* — shots are grouped by their packed detector bits and
   every distinct syndrome is matched once, then broadcast;
3. *cross-batch LRU* — a bounded syndrome -> correction cache carries
   repeated syndromes across batches (and across `decode_shot` calls), so
   duplicates within a sweep job are free;
4. *small-syndrome enumeration* (``mwpm`` and ``auto``) — the batch's
   uncached syndromes with at most ten matched nodes (detectors, plus the
   boundary when odd) are decided together, one numpy pass per detector
   count, by pricing every perfect matching
   (:func:`~repro.decoder.matching.enumerate_small_syndromes`); a syndrome
   whose near-optimal matchings disagree on parity or touch a
   route-dependent frame falls through.  At p=1e-4 this serves ~93% of
   matched syndromes.  Ten nodes (945 matchings) measured fastest: eight
   sends too many syndromes on to blossom, twelve (10395 matchings) costs
   more per syndrome than blossom does;
5. *matching engine* — the rest reach the engine one at a time (native
   blossom / greedy; see :mod:`repro.decoder.matching`).

Every layer is exact: corrections are bit-identical to matching each shot
individually with the seed implementation
(:mod:`repro.decoder.reference`), which `tests/test_decoder_fastpath.py`
enforces property-style.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.codes.layout import StabilizerType
from repro.codes.base import StabilizerCode
from repro.decoder.graph import DecodingGraph, shared_decoding_graph
from repro.decoder.matching import (
    build_matcher,
    canonical_method,
    enumerate_small_syndromes,
)

#: Default bound on the per-decoder syndrome->correction LRU cache.  Keys are
#: packed detector bitmaps (~num_nodes/8 bytes each: 77 bytes at d=5, 50
#: rounds), so a full cache stays well under 10 MB even at large distances.
DEFAULT_CACHE_SIZE = 8192


@dataclass
class DecoderStats:
    """Dispatch counters for the layered decode fast path (see module doc).

    ``frame_table_builds`` mirrors the decoding graph's counter: how often
    its space-time table was built.  The graph is shared by every decoder
    of the same configuration in a process, so each decoder reports only
    what happened since it was constructed: summed over decoders, the
    counter equals the builds that actually ran.  ``frame_fallbacks``
    counts ambiguous frame queries (shortest paths of both observable
    parities tie) that the matcher answered with an exact per-source
    Dijkstra row instead of the table.  Every matched syndrome took exactly
    one path: ``matched == enumerated + blossom + greedy``, where
    ``enumerated`` counts the small-syndrome enumeration and
    ``blossom``/``greedy`` mirror the matcher's own counters.
    """

    shots: int = 0
    empty: int = 0
    dedup_hits: int = 0
    cache_hits: int = 0
    matched: int = 0
    frame_table_builds: int = 0
    frame_fallbacks: int = 0
    enumerated: int = 0
    blossom: int = 0
    greedy: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class SurfaceCodeDecoder:
    """MWPM decoder for memory experiments on the rotated surface code.

    Args:
        code: The code being decoded.
        num_rounds: Number of syndrome-extraction rounds per experiment.
        stabilizer_type: Detector family to match; ``Z`` (default) decodes the
            X errors that corrupt a memory-Z experiment.
        method: Matching engine — ``"mwpm"``, ``"greedy"`` or ``"auto"``
            (exact up to
            :attr:`~repro.decoder.matching.AutoMatcher.EXACT_THRESHOLD`
            detectors, greedy above).
        space_weight / time_weight / diagonal_weight: Decoding-graph edge
            weights (see :class:`~repro.decoder.graph.DecodingGraph`).
        cache_size: Bound on the syndrome->correction LRU (``0`` disables
            caching).  Performance-only.
    """

    code: StabilizerCode
    num_rounds: int
    stabilizer_type: StabilizerType = StabilizerType.Z
    method: str = "auto"
    space_weight: float = 1.0
    time_weight: float = 1.0
    diagonal_weight: Optional[float] = None
    cache_size: int = DEFAULT_CACHE_SIZE
    stats: DecoderStats = field(default_factory=DecoderStats, init=False, repr=False)

    def __post_init__(self) -> None:
        self.graph = shared_decoding_graph(
            self.code,
            self.num_rounds,
            stabilizer_type=self.stabilizer_type,
            space_weight=self.space_weight,
            time_weight=self.time_weight,
            diagonal_weight=self.diagonal_weight,
        )
        # The graph's counters so far belong to earlier decoders sharing it.
        self._graph_baseline = self.graph.frame_table_builds
        self._matcher = build_matcher(self.graph, method=self.method)
        self._enumerates = canonical_method(self.method) != "greedy"
        self._correction_cache: "OrderedDict[bytes, int]" = OrderedDict()
        self._sync_graph_stats()
        # Static per-decoder lookups, built once instead of per decode call.
        checks = list(self.graph.checks)
        self._support_matrix = np.zeros(
            (len(checks), self.code.num_data_qubits), dtype=np.uint8
        )
        for pos, stab_index in enumerate(checks):
            stab = self.code.stabilizers[stab_index]
            self._support_matrix[pos, list(stab.data_qubits)] = 1
        if self.stabilizer_type is StabilizerType.Z:
            support = self.code.logical_z_support
        else:
            support = self.code.logical_x_support
        self._logical_support_indices = np.asarray(list(support), dtype=np.int64)

    # ------------------------------------------------------------------
    # Detector construction
    # ------------------------------------------------------------------
    def build_detectors(
        self,
        syndrome_history: np.ndarray,
        final_data_bits: np.ndarray,
    ) -> np.ndarray:
        """Convert raw measurements into the (layers, checks) detector matrix.

        Args:
            syndrome_history: ``(num_rounds, num_stabilizers)`` array of raw
                parity-check bits (flips relative to the noiseless reference).
            final_data_bits: Length ``d*d`` array of final transversal data
                measurements.

        Returns:
            Boolean matrix of shape ``(num_rounds + 1, num_checks)``.
        """
        history = np.asarray(syndrome_history, dtype=np.uint8)
        if history.shape != (self.num_rounds, self.code.num_stabilizers):
            raise ValueError(
                "syndrome_history must have shape "
                f"({self.num_rounds}, {self.code.num_stabilizers})"
            )
        return self.build_detectors_batch(history[None], np.asarray(final_data_bits)[None])[0]

    def build_detectors_batch(
        self,
        syndrome_histories: np.ndarray,
        final_data_bits: np.ndarray,
    ) -> np.ndarray:
        """Vectorised :meth:`build_detectors` over a batch of shots.

        Args:
            syndrome_histories: ``(shots, num_rounds, num_stabilizers)`` raw
                parity-check bits.
            final_data_bits: ``(shots, num_data_qubits)`` final transversal
                data measurements.

        Returns:
            Boolean array of shape ``(shots, num_rounds + 1, num_checks)``.
        """
        histories = np.asarray(syndrome_histories, dtype=np.uint8)
        shots = histories.shape[0]
        if histories.shape[1:] != (self.num_rounds, self.code.num_stabilizers):
            raise ValueError(
                "syndrome_histories must have shape "
                f"(shots, {self.num_rounds}, {self.code.num_stabilizers})"
            )
        data_bits = np.asarray(final_data_bits, dtype=np.uint8)
        checks = list(self.graph.checks)
        local = histories[:, :, checks]
        detectors = np.zeros((shots, self.num_rounds + 1, len(checks)), dtype=bool)
        detectors[:, 0] = local[:, 0].astype(bool)
        detectors[:, 1 : self.num_rounds] = (local[:, 1:] ^ local[:, :-1]).astype(bool)
        # Final layer: compare each check value recomputed from the data
        # measurement with the last round's measured check.
        recomputed = (data_bits @ self._support_matrix.T) % 2
        detectors[:, self.num_rounds] = (recomputed ^ local[:, -1]).astype(bool)
        return detectors

    def _logical_support(self) -> list:
        """Data-qubit support of the logical observable being decoded."""
        return list(self._logical_support_indices)

    def observed_logical_flip(self, final_data_bits: np.ndarray) -> int:
        """Raw logical-observable flip implied by the final data measurement."""
        data_bits = np.asarray(final_data_bits, dtype=np.uint8)
        return int(data_bits[self._logical_support_indices].sum() % 2)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _sync_graph_stats(self) -> None:
        """Mirror the graph's build counter (since construction) and the
        matcher's fallback and engine counters."""
        self.stats.frame_table_builds = self.graph.frame_table_builds - self._graph_baseline
        matcher_stats = getattr(self._matcher, "stats", None) or {}
        self.stats.frame_fallbacks = matcher_stats.get("frame_fallbacks", 0)
        self.stats.blossom = matcher_stats.get("blossom", 0)
        self.stats.greedy = matcher_stats.get("greedy", 0)

    def clear_caches(self) -> None:
        """Drop the correction LRU and the graph's space-time table."""
        self._correction_cache.clear()
        self.graph.clear_caches()

    def _corrections(self, detectors: np.ndarray) -> np.ndarray:
        """Predicted corrections for a ``(shots, layers, checks)`` batch.

        Implements the layered dispatch documented in the module docstring.
        Exactness of every layer: duplicate detector matrices produce equal
        corrections because the matching engines are deterministic functions
        of the detector set, so matching one representative per distinct
        syndrome (or replaying a cached correction) is observationally
        identical to matching every shot.

        The LRU is consulted in syndrome order, and each miss takes its slot
        (a ``None`` placeholder) at once, before anything is matched: hits,
        insertions and evictions happen in the order a one-at-a-time loop
        would give them, so the cache's contents do not depend on the
        enumeration layer.  Placeholders still unfilled when matching
        raises are removed.
        """
        shots = detectors.shape[0]
        corrections = np.zeros(shots, dtype=np.int64)
        self.stats.shots += shots
        flat = detectors.reshape(shots, -1)
        nonempty = np.flatnonzero(flat.any(axis=1))
        self.stats.empty += shots - nonempty.size
        if not nonempty.size:
            return corrections
        packed = np.packbits(flat[nonempty], axis=1)
        # One opaque bytes value per row: unique sorts it bytewise, the
        # order np.unique(axis=0) gives, without a field per byte (~70x
        # faster at 200 bytes per row).
        rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        uniq = packed[first]
        self.stats.dedup_hits += nonempty.size - uniq.shape[0]
        uniq_corrections = np.empty(uniq.shape[0], dtype=np.int64)
        cache = self._correction_cache
        caching = self.cache_size > 0
        misses = []
        for pos in range(uniq.shape[0]):
            key = uniq[pos].tobytes()
            if caching:
                cached = cache.get(key)
                if cached is not None:
                    cache.move_to_end(key)
                    self.stats.cache_hits += 1
                    uniq_corrections[pos] = cached
                    continue
                cache[key] = None
                if len(cache) > self.cache_size:
                    cache.popitem(last=False)
            misses.append((pos, key))
        if misses:
            try:
                self._match(detectors, nonempty[first], misses, uniq_corrections)
            finally:
                if caching:
                    for pos, key in misses:
                        if key in cache:
                            correction = uniq_corrections[pos]
                            if correction >= 0:
                                cache[key] = int(correction)
                            else:
                                del cache[key]
        corrections[nonempty] = uniq_corrections[inverse]
        self._sync_graph_stats()
        return corrections

    def _match(self, detectors, shot_of, misses, uniq_corrections) -> None:
        """Fill ``uniq_corrections`` for the uncached syndromes ``misses``.

        ``shot_of[pos]`` is a shot holding distinct syndrome ``pos``.  Small
        syndromes go through the enumeration layer together; the rest, in
        order, through the matcher.  Entries not yet matched read ``-1``.
        """
        positions = np.fromiter((pos for pos, _ in misses), dtype=np.int64, count=len(misses))
        uniq_corrections[positions] = -1
        if self._enumerates:
            rows = detectors[shot_of[positions]].reshape(positions.size, -1)
            decided, enumerated = enumerate_small_syndromes(self.graph, rows)
            uniq_corrections[positions[decided]] = enumerated[decided]
            self.stats.enumerated += int(decided.sum())
            self.stats.matched += int(decided.sum())
            positions = positions[~decided]
        for pos in positions.tolist():
            nodes = self.graph.detector_nodes(detectors[shot_of[pos]])
            uniq_corrections[pos] = int(self._matcher.decode_nodes(nodes))
            self.stats.matched += 1

    def predict_corrections_batch(self, detectors: np.ndarray) -> np.ndarray:
        """Predicted corrections for a ``(shots, layers, checks)`` batch.

        The batched twin of :meth:`predict_correction`, for callers that
        build detector matrices themselves rather than from raw
        measurements via :meth:`decode_batch`.  Runs through the same
        layered dedup/LRU dispatch.
        """
        matrix = np.asarray(detectors, dtype=bool)
        expected = (self.graph.num_layers, self.graph.num_checks)
        if matrix.ndim != 3 or matrix.shape[1:] != expected:
            raise ValueError(
                f"detector batch must have shape (shots, {expected[0]}, "
                f"{expected[1]}), got {matrix.shape}"
            )
        return self._corrections(matrix)

    def predict_correction(self, detectors: np.ndarray) -> int:
        """Predicted logical-observable correction for a detector matrix."""
        matrix = np.asarray(detectors, dtype=bool)
        expected = (self.graph.num_layers, self.graph.num_checks)
        if matrix.shape != expected:
            raise ValueError(
                f"detector matrix must have shape {expected}, got {matrix.shape}"
            )
        return int(self._corrections(matrix[None])[0])

    def decode_shot(
        self, syndrome_history: np.ndarray, final_data_bits: np.ndarray
    ) -> bool:
        """Return True when the shot suffered a logical error after correction.

        Runs through the same layered batch pipeline as :meth:`decode_batch`
        (as a batch of one), so scalar and packed engines share one code
        path — including the cross-batch correction cache.
        """
        history = np.asarray(syndrome_history, dtype=np.uint8)
        if history.shape != (self.num_rounds, self.code.num_stabilizers):
            raise ValueError(
                "syndrome_history must have shape "
                f"({self.num_rounds}, {self.code.num_stabilizers})"
            )
        return bool(
            self.decode_batch(history[None], np.asarray(final_data_bits)[None])[0]
        )

    def decode_batch(
        self, syndrome_histories: np.ndarray, final_data_bits: np.ndarray
    ) -> np.ndarray:
        """Decode a whole batch of shots; True where a logical error survived.

        Detector construction and the observed-flip computation are fully
        vectorised; distinct syndromes are matched once each (see
        :meth:`_corrections` for the dedup/LRU layers).

        Args:
            syndrome_histories: ``(shots, num_rounds, num_stabilizers)`` raw
                parity-check bits.
            final_data_bits: ``(shots, num_data_qubits)`` final transversal
                data measurements.

        Returns:
            ``(shots,)`` boolean array of post-correction logical errors.
        """
        detectors = self.build_detectors_batch(syndrome_histories, final_data_bits)
        data_bits = np.asarray(final_data_bits, dtype=np.uint8)
        observed = data_bits[:, self._logical_support_indices].sum(axis=1) % 2
        corrections = self._corrections(detectors)
        return (observed.astype(np.int64) ^ corrections).astype(bool)
