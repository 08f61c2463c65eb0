"""Content-addressed on-disk store for memory-experiment results.

Infrastructure for the Section 6 Monte-Carlo evaluation: every figure's sweep
persists its finished jobs here, which is what makes reproduction runs
resumable and report rebuilds simulation-free.

Every :class:`~repro.experiments.jobs.SweepJob` is fully described by a plain
configuration dictionary — including its seed material (plan entropy plus the
job's spawn key) — so the result of running it is addressed by the SHA-256
hash of that dictionary's canonical JSON form.  A sweep pointed at a cache
directory can therefore skip every configuration it has already computed,
across processes and across invocations.  Because the spawn key encodes the
job's position in its plan, reuse requires rebuilding the same plan (or a
plan whose leading jobs match) with the same explicit seed; a sweep that
shuffles its grid or draws fresh entropy addresses different entries.

Each entry is one JSON file under the store root::

    <hash>.json   {"format", "key", "config", "result"}

where ``result`` is :func:`~repro.experiments.results.result_to_wire`'s
lossless form (the same JSON the sweep service sends over HTTP).  The file is
published by :func:`atomic_write` (temp file + ``fsync`` + ``os.replace`` +
directory ``fsync``), so the rename is the commit: a reader sees the whole
entry or none of it.  The ``fsync`` before the rename matters: without it a
hard kill (power loss, ``SIGKILL`` plus an unlucky page-cache flush) could
leave a *renamed but empty* entry — the name commits before the bytes —
which would then parse as corrupt forever.  With it, a rename only ever
publishes fully-durable bytes.  :meth:`ResultStore.load` treats a missing,
torn or corrupt file, a stale ``format`` or a ``key`` that does not match the
file name as a cache miss, which is what makes interrupted sweeps safely
resumable — rerunning the sweep recomputes exactly the incomplete entries.

Records (non-Monte-Carlo results)
---------------------------------
Results that are not a :class:`MemoryExperimentResult` — the report's Fig. 8
density-matrix study — are kept as *records*: one JSON document per key at
``<root>/records/<key>.json``, written with the same atomic publish and
carrying ``format`` and ``key`` next to the caller's payload.
:meth:`ResultStore.load_record` reads a missing, truncated, empty or
non-JSON file, a stale ``format`` or a ``key`` that does not match the file
name as a miss, so the caller recomputes and rewrites it.  The ``records/``
directory is outside every path :meth:`~ResultStore.keys`, ``len()`` and
:meth:`~ResultStore.migrate_flat_entries` walk: records are neither listed
as entries nor moved into shards.

Sharding (the sweep-service layout)
-----------------------------------
A store created with ``shards=N > 1`` partitions entries into ``N`` shard
directories (``shard-000/`` ... keyed by the leading bits of the SHA-256
hash) so that many concurrent writer processes never contend on one
directory's dirent lock.  The shard count is recorded in a
``.store-meta.json`` marker so every later open agrees on the layout.
Reads fall through to the flat layout, so a flat store opened sharded keeps
serving its old entries, and :meth:`migrate_flat_entries` moves each one into
its shard directory with a single atomic rename (a reader racing the
migration sees the entry in one place or the other, never torn).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.experiments.results import MemoryExperimentResult, result_from_wire, result_to_wire

#: Bump when the on-disk layout changes; mismatched entries read as misses.
#: Format 1 kept each entry's arrays in a second, binary file.
STORE_FORMAT_VERSION = 2

#: Suffix of format 1's binary sibling file, deleted whenever its entry is
#: rewritten or removed.
_FORMAT_1_SUFFIX = ".npz"

#: Directory used when a sweep asks for resumption without naming a cache.
DEFAULT_CACHE_DIR = ".eraser-repro-cache"

#: Layout marker recording the shard count (hidden: never globbed as an entry).
STORE_META_FILE = ".store-meta.json"

#: Subdirectory of the store root holding keyed JSON records.
RECORDS_DIR = "records"

#: Shard count the sweep service uses for its shared store.
DEFAULT_SERVICE_SHARDS = 16


def default_cache_dir() -> str:
    """The cache directory implied by ``resume`` without an explicit path."""
    return os.environ.get("ERASER_REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


def canonical_config_json(config: Dict[str, object]) -> str:
    """Canonical JSON form of a job configuration (sorted keys, no spaces)."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def config_hash(config: Dict[str, object]) -> str:
    """SHA-256 content address of a job configuration.

    Stable across processes and platforms: the hash covers the canonical JSON
    of the configuration, which contains only primitives (including the
    derived seed material), never object identities.
    """
    return hashlib.sha256(canonical_config_json(config).encode("utf-8")).hexdigest()


class ResultStore:
    """Filesystem-backed map from config hash to saved experiment result.

    Args:
        root: Store directory (created if missing).
        shards: Number of shard directories.  ``None`` adopts whatever the
            store's ``.store-meta.json`` marker records (``1`` — the flat
            legacy layout — when the marker is absent).  An explicit value
            that contradicts an existing marker raises, so concurrent
            openers can never disagree on where a key lives.
    """

    def __init__(self, root, shards: Optional[int] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        recorded = self._read_meta()
        if shards is None:
            shards = recorded if recorded is not None else 1
        shards = int(shards)
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if recorded is not None and recorded != shards:
            raise ValueError(
                f"store at {self.root} is laid out with {recorded} shard(s); "
                f"reopen it with shards={recorded} (or shards=None)"
            )
        self.shards = shards
        if self.shards > 1 and recorded is None:
            self._write_meta()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _meta_path(self) -> Path:
        return self.root / STORE_META_FILE

    def _read_meta(self) -> Optional[int]:
        try:
            with open(self._meta_path(), "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            return int(meta["shards"])
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError):
            return None

    def _write_meta(self) -> None:
        payload = {"format": STORE_FORMAT_VERSION, "shards": self.shards}
        atomic_write(self._meta_path(), json.dumps(payload, sort_keys=True).encode("utf-8"))

    def shard_index(self, key: str) -> int:
        """Which shard ``key`` lives in (leading hash bits modulo the count)."""
        return int(key[:8], 16) % self.shards

    def shard_dir(self, key: str) -> Path:
        """The directory holding ``key`` (the root itself for flat stores)."""
        if self.shards == 1:
            return self.root
        return self.root / f"shard-{self.shard_index(key):03d}"

    def shard_dirs(self) -> List[Path]:
        """Every shard directory (flat stores: just the root)."""
        if self.shards == 1:
            return [self.root]
        return [self.root / f"shard-{index:03d}" for index in range(self.shards)]

    def json_path(self, key: str) -> Path:
        return self.shard_dir(key) / f"{key}.json"

    def _fallback_path(self, path: Path) -> Optional[Path]:
        """The flat-layout location of a sharded entry (read-through)."""
        if self.shards == 1 or path.parent == self.root:
            return None
        return self.root / path.name

    def _locations(self, key: str) -> List[Path]:
        """Where ``key``'s JSON file may live: its shard, then the flat root."""
        path = self.json_path(key)
        fallback = self._fallback_path(path)
        return [path] if fallback is None else [path, fallback]

    def contains(self, key: str) -> bool:
        """Whether a *complete* entry exists for ``key``."""
        return self.load(key) is not None

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    @staticmethod
    def _is_entry_key(stem: str) -> bool:
        """Whether a file stem names an entry (vs dot-prefixed meta/temp files)."""
        return bool(stem) and not stem.startswith(".")

    @staticmethod
    def _is_shardable_key(stem: str) -> bool:
        """Whether a key carries the hash prefix shard assignment needs."""
        return len(stem) >= 8 and all(c in "0123456789abcdef" for c in stem[:8])

    def keys(self) -> Iterator[str]:
        """Hashes of every entry :meth:`load` serves.

        Files that read as misses (torn, stale-format, filed under another
        key or in another shard) are not listed.
        """
        seen = set()
        directories = self.shard_dirs()
        if self.shards > 1:
            directories.append(self.root)  # flat entries awaiting migration
        for directory in directories:
            if not directory.is_dir():
                continue
            for path in directory.glob("*.json"):
                key = path.stem
                if self._is_entry_key(key) and (self.shards == 1 or self._is_shardable_key(key)):
                    seen.add(key)
        yield from (key for key in sorted(seen) if self.contains(key))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def save(
        self,
        key: str,
        result: MemoryExperimentResult,
        config: Optional[Dict[str, object]] = None,
    ) -> None:
        """Persist ``result`` under ``key`` as one atomically published file."""
        payload = {
            "format": STORE_FORMAT_VERSION,
            "key": key,
            "config": config,
            "result": result_to_wire(result),
        }
        atomic_write(self.json_path(key), json.dumps(payload, sort_keys=True).encode("utf-8"))
        for location in self._locations(key):
            self._unlink(location.with_suffix(_FORMAT_1_SUFFIX))

    def load(self, key: str) -> Optional[MemoryExperimentResult]:
        """Return the stored result, or ``None`` for a missing/torn/stale entry.

        The entry is looked up in its shard directory first and in the flat
        root second, so reads stay correct while a flat store migrates (or is
        simply reopened sharded).
        """
        path = self.json_path(key)
        try:
            try:
                handle = open(path, "rb")
            except FileNotFoundError:
                fallback = self._fallback_path(path)
                if fallback is None:
                    return None
                handle = open(fallback, "rb")
            with handle:
                payload = json.load(handle)
            if payload.get("format") != STORE_FORMAT_VERSION or payload.get("key") != key:
                return None
            return result_from_wire(payload["result"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def remove(self, key: str) -> None:
        """Delete an entry, and any format-1 sibling, from both layouts
        (idempotent)."""
        for location in self._locations(key):
            self._unlink(location)
            self._unlink(location.with_suffix(_FORMAT_1_SUFFIX))

    @staticmethod
    def _unlink(path: Path) -> None:
        try:
            path.unlink()
        except FileNotFoundError:
            pass

    def record_path(self, key: str) -> Path:
        return self.root / RECORDS_DIR / f"{key}.json"

    def save_record(self, key: str, payload: Dict[str, object]) -> None:
        """Persist a JSON-serialisable ``payload`` as the record ``key``."""
        document = {"format": STORE_FORMAT_VERSION, "key": key, "payload": payload}
        atomic_write(self.record_path(key), json.dumps(document, sort_keys=True).encode("utf-8"))

    def load_record(self, key: str) -> Optional[Dict[str, object]]:
        """Return the record's payload, or ``None`` for a missing/torn/stale one."""
        try:
            with open(self.record_path(key), "rb") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(document, dict)
            or document.get("format") != STORE_FORMAT_VERSION
            or document.get("key") != key
            or not isinstance(document.get("payload"), dict)
        ):
            return None
        return document["payload"]

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def migrate_flat_entries(self) -> int:
        """Move flat-layout entries into their shard directories.

        Returns the number of entries moved.  Each entry moves by one atomic
        rename, and the flat fallback in :meth:`load` keeps concurrent
        readers correct before and after it.  A no-op for flat stores.
        """
        if self.shards == 1:
            return 0
        moved = 0
        for path in sorted(self.root.glob("*.json")):
            key = path.stem
            if not self._is_entry_key(key) or not self._is_shardable_key(key):
                continue
            self.shard_dir(key).mkdir(parents=True, exist_ok=True)
            try:
                os.replace(path, self.json_path(key))
            except OSError:
                continue
            moved += 1
        return moved


class InMemoryResultStore:
    """Process-local result store with the same save/load protocol.

    Used when no cache directory is configured (e.g. a plain
    ``eraser-repro report`` run) so that identical jobs appearing in several
    sweeps of one process — Figure 14's grid reappearing as Table 4, Figure
    5's trace inside Figures 15/16 — are still simulated only once.  Nothing
    touches disk and nothing survives the process.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, MemoryExperimentResult] = {}
        self._records: Dict[str, Dict[str, object]] = {}

    def save(
        self,
        key: str,
        result: MemoryExperimentResult,
        config: Optional[Dict[str, object]] = None,
    ) -> None:
        self._entries[key] = result

    def load(self, key: str) -> Optional[MemoryExperimentResult]:
        return self._entries.get(key)

    def save_record(self, key: str, payload: Dict[str, object]) -> None:
        self._records[key] = payload

    def load_record(self, key: str) -> Optional[Dict[str, object]]:
        return self._records.get(key)

    def contains(self, key: str) -> bool:
        return key in self._entries

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return len(self._entries)


def atomic_write(path: Path, data: bytes) -> None:
    """Durable atomic publish: write + flush + fsync, rename, fsync the dir.

    The fsync *before* ``os.replace`` is load-bearing: renames can hit the
    journal before data pages do, so skipping it lets a hard kill publish a
    file whose name is durable but whose bytes are not — a renamed-but-empty
    file that would read as corrupt forever.  A failure at any point leaves
    the old file (or no file) in place and no temp litter behind.
    """
    directory = path.parent
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=f".{path.stem}-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_dir(directory)


def _fsync_dir(directory: Path) -> None:
    """Make a rename itself durable (best-effort on exotic filesystems)."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)
