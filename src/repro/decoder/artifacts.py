"""Persistent, mmap-shared decoder artifacts (content-addressed store).

Infrastructure for the Section 5.3 MWPM decoding pipeline: the decoder's
per-graph precomputation — the space-time table of
:mod:`repro.decoder.matching`, one row per layer-0 check of Dijkstra
distances, frame parities and the ambiguity mask — is
persisted to an on-disk store so that every process decoding the same
graph starts warm instead of every worker of a
:class:`~repro.experiments.executor.SweepExecutor` pool building it from
scratch.

Layout and semantics mirror the experiment result cache
(:mod:`repro.experiments.store`): entries are content-addressed by the
SHA-256 hash of the canonical :class:`~repro.decoder.graph.DecodingGraph`
identity (code family, distance, rounds, stabilizer type, and a digest of
the edge endpoint/weight/frame arrays in construction order), written
atomically (temp file + ``os.replace``) with arrays first and a JSON commit
marker last, and read back treating missing, torn, or mismatched entries as
misses.  Each graph entry is a pair of files under the store root::

    <graph-key>.npz             table rows: distances, masks
    <graph-key>.json            commit marker (format + identity)
    <graph-key>.lru-<id>.npz    syndrome->correction LRU snapshot
    <graph-key>.lru-<id>.json   commit marker (format + LRU identity)

Arrays are saved *uncompressed* and loaded by memory-mapping each ``.npy``
member of the zip archive in place (``numpy.load`` silently ignores
``mmap_mode`` for ``.npz`` archives, so the member offsets are resolved
here and handed to :class:`numpy.memmap` directly).  N worker processes
mapping the same entry therefore share one physical copy of the tables
through the page cache instead of building — or even copying — N of them.

On top of the graph tables, the decoder's cross-batch syndrome->correction
LRU (:class:`~repro.decoder.decoder.SurfaceCodeDecoder`) serialises its
packed-bitmap keys and corrections to the same store: saves merge with the
entry already on disk under a size bound, and decoder construction
pre-warms the in-memory LRU from it, so repeated syndromes are free across
runs, not just across batches.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import tempfile
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

#: Bump when the on-disk layout changes; mismatched entries read as misses.
#: Version 3 stores the ``(num_checks, num_nodes + 1)`` space-time table
#: rows as ``distances`` plus ``masks`` (frames and ambiguity); version 2
#: also stored Dijkstra predecessors, version 1 full all-pairs matrices.
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

    Covers everything the space-time table depends on: the code family and
    distance, the round count, the decoded stabilizer type, the scalar edge
    weights, and a digest of the flat edge arrays *in construction order*
    (so any change to the construction changes the key).  Two graphs with
    equal identities produce
    bit-identical tables, so artifacts written by one process are valid in
    any other.
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


def _identity_key(identity: Dict[str, object]) -> str:
    return hashlib.sha256(_canonical_json(identity).encode("utf-8")).hexdigest()


def graph_key(graph) -> str:
    """SHA-256 content address of a graph's artifact entry."""
    return _identity_key(graph_identity(graph))


def lru_identity_key(identity: Dict[str, object]) -> str:
    """Short filename-safe hash of an LRU identity dict (method + knobs)."""
    return hashlib.sha256(_canonical_json(identity).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Uncompressed-npz memory mapping
# ----------------------------------------------------------------------
def _read_npy_header(handle) -> Tuple[Tuple[int, ...], bool, np.dtype]:
    """Parse an npy header at the handle's position (shape, fortran, dtype)."""
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(handle)
    if version == (2, 0):
        return np.lib.format.read_array_header_2_0(handle)
    raise ValueError(f"unsupported npy format version {version}")


def _npz_layout(handle) -> Dict[str, Tuple[int, Tuple[int, ...], bool, np.dtype]]:
    """``(data offset, shape, fortran order, dtype)`` of every ``.npy`` member.

    Offsets come from the zip directory (local header + npy header), so the
    array bytes can be mapped in place.  Raises on compressed members or
    object dtypes.
    """
    layout = {}
    with zipfile.ZipFile(handle) as archive:
        infos = archive.infolist()
    for info in infos:
        if not info.filename.endswith(".npy"):
            continue
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(f"{info.filename} is compressed; cannot mmap")
        # Local file header: 30 fixed bytes, then name + extra field
        # (their lengths can differ from the central directory's copy).
        handle.seek(info.header_offset)
        local = handle.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            raise ValueError(f"bad local header for {info.filename}")
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        handle.seek(info.header_offset + 30 + name_len + extra_len)
        shape, fortran_order, dtype = _read_npy_header(handle)
        if dtype.hasobject:
            raise ValueError(f"{info.filename} holds objects; cannot mmap")
        layout[info.filename[: -len(".npy")]] = (
            handle.tell(), tuple(shape), bool(fortran_order), dtype
        )
    return layout


def _map_members(path, layout) -> Dict[str, np.ndarray]:
    """Map ``path`` once and view every member of ``layout`` in place."""
    mapping = np.memmap(path, dtype=np.uint8, mode="r")
    arrays: Dict[str, np.ndarray] = {}
    for name, (start, shape, fortran_order, dtype) in layout.items():
        count = math.prod(shape)
        flat = mapping[start : start + count * dtype.itemsize].view(dtype)
        if flat.size != count:
            raise ValueError(f"{name} is truncated")
        arrays[name] = (
            flat.reshape(shape[::-1]).T if fortran_order else flat.reshape(shape)
        )
    return arrays


def mmap_npz(path) -> Dict[str, np.ndarray]:
    """Memory-map every member of an *uncompressed* ``.npz`` archive.

    ``numpy.load(path, mmap_mode="r")`` quietly ignores ``mmap_mode`` for
    zip archives and returns in-memory copies, which would defeat the whole
    point of a shared store.  This helper resolves each member's data
    offset (:func:`_npz_layout`) and maps the array bytes in place with
    ``mode="r"``, so concurrent processes share one set of physical pages.
    The file is mapped once; every member is a (still ``numpy.memmap``)
    view into that mapping.  Callers treat any failure as a cache miss.
    """
    with open(path, "rb") as handle:
        layout = _npz_layout(handle)
    return _map_members(path, layout)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class DecoderArtifactStore:
    """Filesystem-backed, content-addressed store of decoder artifacts.

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
    def graph_json_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def graph_npz_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

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
        # np.savez (not savez_compressed): members must stay ZIP_STORED so
        # they can be mapped in place.
        np.savez(buffer, **arrays)
        data = buffer.getvalue()
        # The marker records the archive size and every member's layout, so
        # a warm load maps the arrays without re-reading the zip directory
        # or npy headers; a size mismatch (torn file) reads as a miss.
        marker = dict(
            marker,
            npz_bytes=len(data),
            members={
                name: [offset, dtype.str, list(shape), fortran_order]
                for name, (offset, shape, fortran_order, dtype)
                in _npz_layout(buffer).items()
            },
        )
        self._atomic_write(npz_path, data)
        self._atomic_write(
            json_path, json.dumps(marker, sort_keys=True, indent=1).encode("utf-8")
        )

    def _load_marker(self, json_path: Path) -> Optional[Dict[str, object]]:
        with open(json_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != ARTIFACT_FORMAT_VERSION:
            return None
        return payload

    # -- graph tables ---------------------------------------------------
    def contains_graph(self, graph) -> bool:
        """Whether a complete, identity-matching entry exists for ``graph``."""
        return self.load_graph_tables(graph) is not None

    def save_graph_tables(
        self,
        graph,
        distances: np.ndarray,
        frames: np.ndarray,
        ambiguous: np.ndarray,
    ) -> None:
        """Persist a graph's space-time table rows."""
        key = graph_key(graph)
        self._save_entry(
            self.graph_npz_path(key),
            self.graph_json_path(key),
            {
                "distances": np.ascontiguousarray(distances),
                # Frames and the ambiguity mask share one member: fewer
                # headers to parse on every warm load.
                "masks": np.stack((frames, ambiguous)).astype(bool),
            },
            {
                "format": ARTIFACT_FORMAT_VERSION,
                "key": key,
                "identity": graph_identity(graph),
            },
        )

    def load_graph_tables(
        self, graph
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Memory-mapped ``(distances, frames, ambiguous)``.

        Returns ``None`` on a miss.  The arrays are read-only
        :class:`numpy.memmap` views backed by the store file; every consumer
        indexes out the (small) entries it needs, so pages are shared
        across all processes mapping the entry.
        """
        identity = graph_identity(graph)
        key = _identity_key(identity)
        try:
            marker = self._load_marker(self.graph_json_path(key))
            if marker is None or marker.get("identity") != identity:
                return None
            npz_path = self.graph_npz_path(key)
            if os.path.getsize(npz_path) != marker["npz_bytes"]:
                return None
            arrays = _map_members(
                npz_path,
                {
                    name: (int(offset), tuple(shape), bool(fortran_order), np.dtype(dtype))
                    for name, (offset, dtype, shape, fortran_order)
                    in marker["members"].items()
                },
            )
            distances = arrays["distances"]
            masks = arrays["masks"]
            shape = (graph.num_checks, graph.num_nodes + 1)
            if (
                distances.shape != shape
                or masks.shape != (2,) + shape
                or masks.dtype != np.bool_
            ):
                return None
            return distances, masks[0], masks[1]
        except _MISS_ERRORS:
            return None

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
            # LRU snapshots are small and mutate on save; plain load copies
            # are simpler than mapping here (the shared tables are the
            # space-time table rows above).
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
# Shared store instances and pre-building
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


def ensure_graph_tables(graph) -> bool:
    """Build-and-persist a graph's tables if its store lacks them.

    Returns ``True`` when the tables were built and saved by this call,
    ``False`` when the store already held them or no store is attached.
    Used by the sweep executor to pre-build artifacts once before fanning
    out, so workers never race on construction.
    """
    store = getattr(graph, "artifact_store", None)
    if store is None:
        return False
    from repro.decoder.matching import _all_pairs

    if store.contains_graph(graph):
        return False
    _all_pairs(graph)  # builds and saves through the store hook
    return store.contains_graph(graph)


def prebuild_job_artifacts(jobs: Iterable) -> int:
    """Pre-build graph artifacts for every distinct decoding graph in ``jobs``.

    Deduplicates by (artifact dir, code family, distance, rounds) — the
    memory-experiment decoder always decodes Z detectors at unit weights, so
    that tuple pins the graph identity.  Returns how many entries were
    actually built (``0`` = the store was already warm).
    """
    from repro.codes import make_code
    from repro.decoder.graph import shared_decoding_graph

    built = 0
    seen = set()
    for job in jobs:
        directory = getattr(job, "decoder_artifact_dir", None)
        if not directory or not getattr(job, "decode", False):
            continue
        signature = (directory, job.code_family, job.distance, job.rounds)
        if signature in seen:
            continue
        seen.add(signature)
        store = get_artifact_store(directory)
        graph = shared_decoding_graph(
            make_code(job.code_family, job.distance),
            job.rounds,
            artifact_store=store,
        )
        built += int(ensure_graph_tables(graph))
    return built
