"""Minimum-weight perfect matching decoding for the rotated surface code.

The paper decodes memory experiments with MWPM (Section 5.3).  This package
provides a from-scratch implementation: a space-time decoding graph built from
the code structure, exact shortest paths and frame parities from one cached
scipy Dijkstra row per layer-0 check (the space-time table), syndrome dedup
and an LRU ahead of the matcher, and two matching engines: exact MWPM by a
native array-indexed blossom port (bit-identical to networkx) and a
vectorised greedy matcher, which ``auto`` combines by syndrome size.  The
seed implementation is preserved in :mod:`repro.decoder.reference` for
equivalence testing and benchmarking.
"""

from repro.decoder.graph import (
    DecodingGraph,
    clear_shared_graphs,
    shared_decoding_graph,
)
from repro.decoder.matching import (
    AutoMatcher,
    GreedyMatcher,
    MwpmMatcher,
    build_matcher,
)
from repro.decoder.decoder import DecoderStats, SurfaceCodeDecoder
from repro.decoder.artifacts import (
    DecoderArtifactStore,
    default_artifact_dir,
    get_artifact_store,
)
from repro.decoder.fault_injection import FaultInjector, FaultSignature

__all__ = [
    "DecodingGraph",
    "shared_decoding_graph",
    "clear_shared_graphs",
    "AutoMatcher",
    "MwpmMatcher",
    "GreedyMatcher",
    "build_matcher",
    "DecoderStats",
    "SurfaceCodeDecoder",
    "DecoderArtifactStore",
    "get_artifact_store",
    "default_artifact_dir",
    "FaultInjector",
    "FaultSignature",
]
