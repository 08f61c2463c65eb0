"""Persistent syndrome->correction LRU snapshots (content-addressed store).

Infrastructure for the Section 5.3 MWPM decoding pipeline: the decoder's
cross-batch syndrome->correction LRU
(:class:`~repro.decoder.decoder.SurfaceCodeDecoder`) serialises its
packed-bitmap keys and corrections to an on-disk store.  Saves merge with
the entry already on disk under a size bound, and decoder construction
pre-warms the in-memory LRU from it, so repeated syndromes are free across
runs and processes, not just across batches.  The decoding graph's
space-time table is not stored: every process builds it (milliseconds) and
:func:`~repro.decoder.graph.shared_decoding_graph` keeps it for the life
of the process.

Layout and semantics mirror the experiment result cache
(:mod:`repro.experiments.store`): entries are content-addressed by the
SHA-256 hash of the canonical :class:`~repro.decoder.graph.DecodingGraph`
identity (code family, distance, rounds, stabilizer type, and a digest of
the edge endpoint/weight/frame arrays in construction order) plus a short
hash of the decoder's LRU identity (matching method), written atomically
(temp file + ``os.replace``) with arrays first and a JSON commit marker
last, and read back treating missing, torn, or mismatched entries as
misses.  Each snapshot is a pair of files under the store root::

    <graph-key>.lru-<id>.npz    packed syndrome keys + corrections
    <graph-key>.lru-<id>.json   commit marker (format + identities)
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional

import numpy as np

#: Bump when the on-disk layout changes; mismatched entries read as misses.
#: Stays at 3, the last version that also stored decoding-graph tables: its
#: LRU snapshot layout is unchanged, so those snapshots still pre-warm.
ARTIFACT_FORMAT_VERSION = 3

#: Environment variable naming the default artifact directory.
ENV_ARTIFACT_DIR = "ERASER_REPRO_DECODER_ARTIFACT_DIR"

#: Exceptions that mean "treat this entry as a cache miss".
_MISS_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    TypeError,
    EOFError,
    json.JSONDecodeError,
    zipfile.BadZipFile,
)


def default_artifact_dir() -> Optional[str]:
    """The artifact directory implied by the environment (``None`` = off)."""
    return os.environ.get(ENV_ARTIFACT_DIR) or None


# ----------------------------------------------------------------------
# Graph identity
# ----------------------------------------------------------------------
def graph_identity(graph) -> Dict[str, object]:
    """Canonical, process-independent identity of a decoding graph.

    Covers everything a correction depends on besides the matching method:
    the code family and distance, the round count, the decoded stabilizer
    type, the scalar edge weights, and a digest of the flat edge arrays *in
    construction order* (so any change to the construction changes the
    key).  Two graphs with equal identities decode every syndrome
    identically, so snapshots written by one process are valid in any
    other.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(graph.edge_endpoints, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(graph.edge_weights, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(graph.edge_frame_bits, dtype=bool).tobytes())
    return {
        "format": ARTIFACT_FORMAT_VERSION,
        "code_family": getattr(graph.code, "family", "unknown"),
        "distance": int(graph.code.distance),
        "num_rounds": int(graph.num_rounds),
        "stabilizer_type": graph.stabilizer_type.name,
        "space_weight": float(graph.space_weight),
        "time_weight": float(graph.time_weight),
        "diagonal_weight": (
            None if graph.diagonal_weight is None else float(graph.diagonal_weight)
        ),
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "edges_sha256": digest.hexdigest(),
    }


def _canonical_json(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def graph_key(graph) -> str:
    """SHA-256 content address of a graph's artifact entries."""
    return hashlib.sha256(_canonical_json(graph_identity(graph)).encode("utf-8")).hexdigest()


def lru_identity_key(identity: Dict[str, object]) -> str:
    """Short filename-safe hash of an LRU identity dict (method + knobs)."""
    return hashlib.sha256(_canonical_json(identity).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class DecoderArtifactStore:
    """Filesystem-backed, content-addressed store of decoder LRU snapshots.

    One store instance fronts one directory; use :func:`get_artifact_store`
    to share an instance per resolved path within a process.  All writes are
    atomic with the JSON file as commit marker, and all reads validate the
    marker's format and identity before touching the arrays — torn or stale
    entries read as ``None`` misses exactly like
    :class:`~repro.experiments.store.ResultStore`.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def lru_json_path(self, key: str, lru_key: str) -> Path:
        return self.root / f"{key}.lru-{lru_key}.json"

    def lru_npz_path(self, key: str, lru_key: str) -> Path:
        return self.root / f"{key}.lru-{lru_key}.npz"

    # -- atomic write ---------------------------------------------------
    def _atomic_write(self, path: Path, data: bytes) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=self.root, prefix=f".{path.stem}-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _save_entry(
        self, npz_path: Path, json_path: Path, arrays: Dict[str, np.ndarray],
        marker: Dict[str, object],
    ) -> None:
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        self._atomic_write(npz_path, buffer.getvalue())
        self._atomic_write(
            json_path, json.dumps(marker, sort_keys=True, indent=1).encode("utf-8")
        )

    def _load_marker(self, json_path: Path) -> Optional[Dict[str, object]]:
        with open(json_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != ARTIFACT_FORMAT_VERSION:
            return None
        return payload

    # -- syndrome->correction LRU ---------------------------------------
    def save_lru(
        self,
        graph,
        identity: Dict[str, object],
        entries: "OrderedDict[bytes, int]",
        bound: int,
    ) -> None:
        """Merge-and-save an LRU snapshot for ``(graph, identity)``.

        The snapshot on disk is merged with ``entries`` (newer wins and
        counts as most recent) and trimmed to the oldest-out ``bound``, so
        concurrent writers lose at most each other's tail, never the entry's
        integrity — the write itself is atomic.
        """
        if bound < 1 or not entries:
            return
        key = graph_key(graph)
        lru_key = lru_identity_key(identity)
        merged = self.load_lru(graph, identity) or OrderedDict()
        for packed, correction in entries.items():
            merged.pop(packed, None)
            merged[packed] = int(correction)
        while len(merged) > bound:
            merged.popitem(last=False)
        key_bytes = list(merged.keys())
        key_len = len(key_bytes[0])
        if any(len(item) != key_len for item in key_bytes):
            raise ValueError("LRU keys must have uniform length")
        keys_array = np.frombuffer(b"".join(key_bytes), dtype=np.uint8).reshape(
            len(key_bytes), key_len
        )
        corrections = np.asarray(list(merged.values()), dtype=np.int8)
        self._save_entry(
            self.lru_npz_path(key, lru_key),
            self.lru_json_path(key, lru_key),
            {"keys": keys_array, "corrections": corrections},
            {
                "format": ARTIFACT_FORMAT_VERSION,
                "key": key,
                "lru_identity": identity,
                "graph_identity": graph_identity(graph),
                "entries": len(merged),
            },
        )

    def load_lru(
        self, graph, identity: Dict[str, object]
    ) -> Optional["OrderedDict[bytes, int]"]:
        """The stored LRU snapshot in insertion (= recency) order, or ``None``."""
        key = graph_key(graph)
        lru_key = lru_identity_key(identity)
        try:
            marker = self._load_marker(self.lru_json_path(key, lru_key))
            if (
                marker is None
                or marker.get("lru_identity") != identity
                or marker.get("graph_identity") != graph_identity(graph)
            ):
                return None
            with np.load(self.lru_npz_path(key, lru_key)) as archive:
                keys_array = archive["keys"]
                corrections = archive["corrections"]
            if keys_array.ndim != 2 or corrections.shape != (keys_array.shape[0],):
                return None
            entries: "OrderedDict[bytes, int]" = OrderedDict()
            for row, correction in zip(keys_array, corrections.tolist()):
                entries[row.tobytes()] = int(correction)
            return entries
        except _MISS_ERRORS:
            return None


# ----------------------------------------------------------------------
# Shared store instances
# ----------------------------------------------------------------------
_STORE_REGISTRY: Dict[str, DecoderArtifactStore] = {}


def get_artifact_store(root) -> DecoderArtifactStore:
    """One :class:`DecoderArtifactStore` per resolved path, per process."""
    resolved = str(Path(root).resolve())
    store = _STORE_REGISTRY.get(resolved)
    if store is None:
        store = DecoderArtifactStore(resolved)
        _STORE_REGISTRY[resolved] = store
    return store
