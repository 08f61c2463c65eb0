"""Span tracer that times the program's layers from outside.

The benchmark never edits the program: it wraps public (and a few private,
but stable) functions at run time.  Each call of a wrapped function records
one span ``[name, start, end, parent, thread]`` in memory, with the parent
taken from a per-thread stack, so nested layers (a decoder built inside a
chunk inside a sweep) form a tree.  A layer's *self time* is its span's
duration minus the time covered by its child spans.

Targets are resolved when :meth:`Tracer.install` runs.  A target whose module
or attribute no longer exists is recorded in :attr:`Tracer.missing` and reads
as a zero-time layer; it never raises.  That keeps the benchmark runnable
while the program underneath is refactored.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` + dotted ``qualname`` -> span ``name``.

    With ``subclasses=True`` the qualname names a method on a base class and
    every loaded subclass defining its own version of that method is wrapped
    too (policies, matchers).
    """

    name: str
    module: str
    qualname: str
    subclasses: bool = False

    @property
    def label(self) -> str:
        return f"{self.module}:{self.qualname}"


def _all_subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``enabled`` gates recording: wrappers stay installed but call straight
    through while it is false, so the harness can pause tracing around its
    own bookkeeping.  Forked children (process-pool workers) never record.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.observers: Dict[str, List[Callable]] = defaultdict(list)
        self.missing: List[str] = []
        self.enabled = False
        self._patches: List[tuple] = []
        self._local = threading.local()
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            record = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()]
            tracer.spans.append(record)
            stack.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            for observe in tracer.observers.get(name, ()):
                observe(args, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def observe(self, name: str, fn: Callable) -> None:
        """Call ``fn(args, result)`` after every traced call of span ``name``."""
        self.observers[name].append(fn)

    # -- installation ----------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            try:
                patched = self._install_one(target)
            except (ImportError, AttributeError):
                patched = 0
            if not patched:
                self.missing.append(target.label)

    def _install_one(self, target: Target) -> int:
        module = importlib.import_module(target.module)
        owner_path, _, attr = target.qualname.rpartition(".")
        if not owner_path:
            return self._patch_function(module, attr, target.name)
        owner = module
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        classes = [owner] + (_all_subclasses(owner) if target.subclasses else [])
        return sum(self._patch_method(cls, attr, target.name) for cls in classes)

    def _patch_function(self, module, attr: str, name: str) -> int:
        """Wrap a module function everywhere it was imported by name."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        patched = 0
        for holder in list(sys.modules.values()):
            namespace = getattr(holder, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._patches.append((holder, key, original))
                    patched += 1
        return patched

    def _patch_method(self, cls: type, attr: str, name: str) -> int:
        raw = cls.__dict__.get(attr)
        if not inspect.isfunction(raw) or getattr(raw, "__wrapped_by_perfbench__", False):
            return 0
        setattr(cls, attr, self._wrap(name, raw))
        self._patches.append((cls, attr, raw))
        return 1

    def uninstall(self) -> None:
        self.enabled = False
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every recorded span as gzip JSON (parents as indices)."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            [name, start, end, -1 if parent is None else index[id(parent)], thread]
            for name, start, end, parent, thread in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "thread"], "spans": rows}, handle)


@contextmanager
def paused(tracer: Optional[Tracer]):
    """Stop recording for the harness's own work (checks, bookkeeping)."""
    if tracer is None:
        yield
        return
    was = tracer.enabled
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = was


@dataclass
class LayerTimes:
    """Aggregated span statistics for one stretch of recording."""

    count: Dict[str, int]
    total: Dict[str, float]
    self_time: Dict[str, float]
    durations: Dict[str, List[float]]
    #: Summed duration of top-level spans on ``main_thread`` (coverage).
    top_level: float
    #: Self time per span name restricted to ``main_thread``.
    main_self: Dict[str, float]


def aggregate(spans: List[list], main_thread: Optional[int] = None) -> LayerTimes:
    """Self time per span name: duration minus what child spans cover."""
    child_time: Dict[int, float] = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[id(parent)] += end - start
    count: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    main_self: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    top_level = 0.0
    for record in spans:
        name, start, end, parent, thread = record
        duration = end - start
        own = duration - child_time.get(id(record), 0.0)
        count[name] += 1
        total[name] += duration
        self_time[name] += own
        durations[name].append(duration)
        if thread == main_thread:
            main_self[name] += own
            if parent is None:
                top_level += duration
    return LayerTimes(count, total, self_time, durations, top_level, main_self)
