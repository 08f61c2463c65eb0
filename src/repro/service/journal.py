"""Durable submission journal: the sweep service's crash-recovery log.

An append-only, checksummed NDJSON write-ahead log of submission lifecycle
events (``accepted`` / ``started`` / ``completed`` / ``failed`` /
``cancelled``).  The scheduler journals every acceptance *before* admitting
the plan, so an ``eraser-repro serve`` process killed mid-sweep can replay
the journal on restart and resume exactly the submissions that had not
reached a terminal state — against the same sharded
:class:`~repro.experiments.store.ResultStore`, so completed jobs (and
spilled chunks) re-execute zero times and the resumed statistics are
bit-identical to an uninterrupted run (the Section 6 position-keyed seed
discipline makes re-executed chunks exact replays).

Record format — one line per event::

    crc32(payload) as 8 hex digits, one space, canonical JSON payload

Appends are flushed and fsynced before the scheduler acts on the event, so
the journal never lags reality by more than the record being written.  A
hard kill (SIGKILL, power loss) can tear at most the final line; replay
parses from the top and drops everything at and after the first record
whose checksum or JSON fails — torn tails read as misses, mirroring the
result store's torn-entry semantics.

Compaction rewrites the journal to just the live submissions' ``accepted``
records via the usual atomic pattern (temp file + ``fsync`` +
``os.replace`` + directory fsync): a crash mid-compaction leaves the old
journal fully intact, never a half-written one.

The module also owns the serve PID file (:func:`acquire_pid_file`) that
stops two service processes from replaying — and then double-executing —
the same journal directory (MICRO-scale deployments would use a lock
service; one local reproduction service needs only a pidfile).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.store import _fsync_dir

JOURNAL_FILE = "journal.ndjson"
SERVE_PID_FILE = "serve.pid"

#: Dead (terminal-state) records tolerated before ``maybe_compact`` rewrites.
DEFAULT_COMPACT_THRESHOLD = 256

_SERIAL_RE = re.compile(r"^sweep-(\d+)$")


def _canonical_json(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_record(payload: Dict[str, object]) -> str:
    """One journal line: crc32 of the canonical JSON, a space, the JSON."""
    text = _canonical_json(payload)
    checksum = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return f"{checksum:08x} {text}"


def decode_record(line: str) -> Optional[Dict[str, object]]:
    """Parse one journal line; ``None`` for torn/corrupt records."""
    line = line.rstrip("\n")
    if not line:
        return None
    prefix, _, text = line.partition(" ")
    if len(prefix) != 8 or not text:
        return None
    try:
        checksum = int(prefix, 16)
    except ValueError:
        return None
    if checksum != (zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF):
        return None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict):
        return None
    return payload


@dataclass
class JournalRecovery:
    """What :meth:`SubmissionJournal.replay` reconstructed.

    ``live`` maps submission id to its ``accepted`` record (insertion
    ordered, i.e. original acceptance order) for every submission that had
    no terminal event; ``max_serial`` is the highest numeric suffix of any
    ``sweep-NNNNNN`` id seen, so a restarted scheduler never reissues an id;
    ``dropped`` counts torn-tail records discarded.
    """

    live: "OrderedDict[str, Dict[str, object]]" = field(default_factory=OrderedDict)
    max_serial: int = 0
    records: int = 0
    dropped: int = 0


class SubmissionJournal:
    """Append-only checksummed NDJSON WAL with atomic compaction.

    Args:
        directory: Journal directory (created if missing); the log lives at
            ``<directory>/journal.ndjson``.
        compact_threshold: How many terminal-state records may accumulate
            before :meth:`maybe_compact` rewrites the log down to the live
            ``accepted`` records.
    """

    def __init__(
        self, directory, compact_threshold: int = DEFAULT_COMPACT_THRESHOLD
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOURNAL_FILE
        self.compact_threshold = int(compact_threshold)
        self._handle = None
        self._dead_records = 0

    # ------------------------------------------------------------------
    def append(self, payload: Dict[str, object]) -> None:
        """Durably append one event (flush + fsync before returning)."""
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(encode_record(payload) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        if payload.get("event") in ("completed", "failed", "cancelled"):
            self._dead_records += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SubmissionJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def records(self) -> Tuple[List[Dict[str, object]], int]:
        """All valid records plus the count of dropped (torn) lines.

        Parsing stops at the first invalid line: a checksum mismatch means
        the record — and anything fsynced after it can't be trusted to be
        ordered — is discarded, exactly like a torn store entry reads as a
        cache miss.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return [], 0
        valid: List[Dict[str, object]] = []
        for index, line in enumerate(lines):
            payload = decode_record(line)
            if payload is None:
                return valid, len(lines) - index
            valid.append(payload)
        return valid, 0

    def replay(self) -> JournalRecovery:
        """Reconstruct live submissions from the log (see :class:`JournalRecovery`)."""
        recovery = JournalRecovery()
        records, recovery.dropped = self.records()
        recovery.records = len(records)
        for payload in records:
            event = payload.get("event")
            submission_id = str(payload.get("id", ""))
            match = _SERIAL_RE.match(submission_id)
            if match:
                recovery.max_serial = max(recovery.max_serial, int(match.group(1)))
            if event == "accepted":
                recovery.live[submission_id] = payload
            elif event in ("completed", "failed", "cancelled"):
                recovery.live.pop(submission_id, None)
        return recovery

    # ------------------------------------------------------------------
    def compact(self, live_records: List[Dict[str, object]]) -> None:
        """Atomically rewrite the log to exactly ``live_records``.

        Uses write + fsync + ``os.replace`` + directory fsync, so a crash at
        any point leaves either the old complete journal or the new complete
        journal — never a torn one.
        """
        self.close()
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, prefix=".journal-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for payload in live_records:
                    handle.write(encode_record(payload) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        _fsync_dir(self.directory)
        self._dead_records = 0

    def maybe_compact(self, live_records: List[Dict[str, object]]) -> bool:
        """Compact when the dead-record count crosses the threshold."""
        if self._dead_records < self.compact_threshold:
            return False
        self.compact(live_records)
        return True


# ----------------------------------------------------------------------
# Serve PID file: refuse to double-start on a live journal directory.
# ----------------------------------------------------------------------
def pid_alive(pid: int) -> bool:
    """Whether a process with this PID still exists (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def acquire_pid_file(path) -> int:
    """Claim ``path`` for this process; raise if a live owner already holds it.

    A stale pidfile (owner no longer running — the normal aftermath of a
    SIGKILLed serve) is silently reclaimed.  Returns this process's PID.
    """
    path = Path(path)
    try:
        existing = int(path.read_text(encoding="utf-8").strip())
    except (OSError, ValueError):
        existing = None
    if existing is not None and existing != os.getpid() and pid_alive(existing):
        raise RuntimeError(
            f"another sweep service (pid {existing}) already owns {path}; "
            "stop it first, or remove the pid file if it is stale"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    pid = os.getpid()
    path.write_text(f"{pid}\n", encoding="utf-8")
    return pid


def release_pid_file(path, pid: Optional[int] = None) -> None:
    """Remove the pidfile if this process (or ``pid``) still owns it."""
    path = Path(path)
    owner = pid if pid is not None else os.getpid()
    try:
        recorded = int(path.read_text(encoding="utf-8").strip())
    except (OSError, ValueError):
        return
    if recorded != owner:
        return
    try:
        path.unlink()
    except OSError:
        pass
