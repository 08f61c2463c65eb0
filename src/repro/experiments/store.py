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

Each entry is a pair of files under the store root::

    <hash>.npz    per-round LPR arrays (written first)
    <hash>.json   scalar statistics + the originating config (written last)

Both files are written atomically (temp file + ``fsync`` + ``os.replace``)
and the JSON file acts as the commit marker: an entry is complete only when
its JSON file parses and its arrays load.  The ``fsync`` before the rename
matters: without it a hard kill (power loss, ``SIGKILL`` plus an unlucky
page-cache flush) could leave a *renamed but empty* entry — the name commits
before the bytes — which would then parse as corrupt forever.  With it, a
rename only ever publishes fully-durable bytes.  :meth:`ResultStore.load`
treats missing, torn, or corrupt entries as cache misses, which is what makes
interrupted sweeps safely resumable — rerunning the sweep recomputes exactly
the incomplete entries.

Sharding (the sweep-service layout)
-----------------------------------
A store created with ``shards=N > 1`` partitions entries into ``N`` shard
directories (``shard-000/`` ... keyed by the leading bits of the SHA-256
hash) so that many concurrent writer processes never contend on one
directory's dirent lock.  The shard count is recorded in a
``.store-meta.json`` marker so every later open agrees on the layout.
Reads fall through to the flat layout per file, so a flat store opened
sharded keeps serving its old entries, and :meth:`migrate_flat_entries`
moves them into their shard directories with the same atomic-rename
semantics (a reader racing the migration sees each entry in one place or
the other, never torn).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.experiments.results import MemoryExperimentResult

#: Bump when the on-disk layout changes; mismatched entries read as misses.
STORE_FORMAT_VERSION = 1

#: Directory used when a sweep asks for resumption without naming a cache.
DEFAULT_CACHE_DIR = ".eraser-repro-cache"

#: Layout marker recording the shard count (hidden: never globbed as an entry).
STORE_META_FILE = ".store-meta.json"

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
        self._atomic_write(
            self._meta_path(), json.dumps(payload, sort_keys=True).encode("utf-8")
        )

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

    def npz_path(self, key: str) -> Path:
        return self.shard_dir(key) / f"{key}.npz"

    def _fallback_path(self, path: Path) -> Optional[Path]:
        """The flat-layout location of a sharded entry (read-through)."""
        if self.shards == 1 or path.parent == self.root:
            return None
        return self.root / path.name

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
        """Hashes of every committed (JSON-present) entry."""
        seen = set()
        directories = self.shard_dirs()
        if self.shards > 1:
            directories.append(self.root)  # flat entries awaiting migration
        for directory in directories:
            if not directory.is_dir():
                continue
            for path in directory.glob("*.json"):
                if self._is_entry_key(path.stem):
                    seen.add(path.stem)
        yield from sorted(seen)

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def _atomic_write(self, path: Path, data: bytes) -> None:
        """Durable atomic publish: write + flush + fsync, then rename.

        The fsync *before* ``os.replace`` is load-bearing: renames can hit
        the journal before data pages do, so skipping it lets a hard kill
        publish an entry whose name is durable but whose bytes are not —
        a renamed-but-empty file that would read as corrupt forever.
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

    def save(
        self,
        key: str,
        result: MemoryExperimentResult,
        config: Optional[Dict[str, object]] = None,
    ) -> None:
        """Persist ``result`` under ``key`` (arrays first, JSON as commit)."""
        scalars, arrays = result.to_state()
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        self._atomic_write(self.npz_path(key), buffer.getvalue())
        payload = {
            "format": STORE_FORMAT_VERSION,
            "key": key,
            "config": config,
            "result": scalars,
        }
        self._atomic_write(
            self.json_path(key), json.dumps(payload, sort_keys=True, indent=1).encode("utf-8")
        )

    def _open_entry_file(self, path: Path):
        """Open a sharded entry file, falling back to its flat location."""
        try:
            return open(path, "rb")
        except FileNotFoundError:
            fallback = self._fallback_path(path)
            if fallback is None:
                raise
            return open(fallback, "rb")

    def load(self, key: str) -> Optional[MemoryExperimentResult]:
        """Return the stored result, or ``None`` for missing/torn entries.

        Each of the entry's two files is looked up in its shard directory
        first and in the flat root second, so reads stay correct while a
        flat store migrates (or is simply reopened sharded).
        """
        try:
            with self._open_entry_file(self.json_path(key)) as handle:
                payload = json.load(handle)
            if payload.get("format") != STORE_FORMAT_VERSION:
                return None
            scalars = payload["result"]
            with self._open_entry_file(self.npz_path(key)) as handle:
                with np.load(handle) as archive:
                    arrays = {name: archive[name] for name in archive.files}
            return MemoryExperimentResult.from_state(scalars, arrays)
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError, zipfile.BadZipFile):
            return None

    def remove(self, key: str) -> None:
        """Delete an entry (JSON first so readers never see a torn commit)."""
        for path in (self.json_path(key), self.npz_path(key)):
            for location in (path, self._fallback_path(path)):
                if location is None:
                    continue
                try:
                    location.unlink()
                except FileNotFoundError:
                    pass

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def migrate_flat_entries(self) -> int:
        """Move flat-layout entries into their shard directories.

        Returns the number of entries moved.  Both files move by atomic
        rename — arrays first, JSON (the commit marker) last — and the
        per-file flat fallback in :meth:`load` keeps concurrent readers
        correct at every intermediate state.  A no-op for flat stores.
        """
        if self.shards == 1:
            return 0
        moved = 0
        for path in sorted(self.root.glob("*.json")):
            key = path.stem
            if not self._is_entry_key(key) or not self._is_shardable_key(key):
                continue
            flat_npz = self.root / f"{key}.npz"
            self.shard_dir(key).mkdir(parents=True, exist_ok=True)
            try:
                if flat_npz.exists():
                    os.replace(flat_npz, self.npz_path(key))
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

    def save(
        self,
        key: str,
        result: MemoryExperimentResult,
        config: Optional[Dict[str, object]] = None,
    ) -> None:
        self._entries[key] = result

    def load(self, key: str) -> Optional[MemoryExperimentResult]:
        return self._entries.get(key)

    def contains(self, key: str) -> bool:
        return key in self._entries

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return len(self._entries)


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
