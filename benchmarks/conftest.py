"""Shared configuration for the benchmark harness.

Every benchmark regenerates the data behind one table or figure of the paper
and prints it (run pytest with ``-s`` to see the tables).  Because the paper's
own evaluation used 10M-100M shots on a cluster, the defaults here are scaled
to laptop budgets; two environment variables let you trade time for precision:

* ``ERASER_REPRO_SHOTS`` — shots per configuration (default 200).
* ``ERASER_REPRO_MAX_DISTANCE`` — largest code distance swept (default 5).
* ``ERASER_REPRO_ENGINE`` — Monte-Carlo engine
  (``auto``/``packed``/``scalar``).
* ``ERASER_REPRO_BATCH`` — shots per simulator batch (0 = engine default).

Sweep orchestration (see :mod:`repro.experiments.executor`) is controlled the
same way; every sweep-shaped benchmark forwards these to the executor:

* ``ERASER_REPRO_JOBS`` — worker processes per sweep (default 1 = serial;
  statistics are identical either way).
* ``ERASER_REPRO_CACHE_DIR`` — content-addressed result cache; rerunning a
  benchmark with the same cache skips every configuration already computed.
* ``ERASER_REPRO_RESUME`` — set to 1 to reuse the default cache directory
  (resume interrupted benchmark runs without naming a cache explicitly).
"""

import os

import pytest


def _int_env(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


@pytest.fixture(scope="session")
def shots() -> int:
    """Monte-Carlo shots per configuration."""
    return _int_env("ERASER_REPRO_SHOTS", 200)


@pytest.fixture(scope="session")
def max_distance() -> int:
    """Largest code distance included in distance sweeps."""
    return _int_env("ERASER_REPRO_MAX_DISTANCE", 5)


@pytest.fixture(scope="session")
def distances(max_distance) -> list:
    return [d for d in (3, 5, 7, 9, 11) if d <= max_distance]


@pytest.fixture(scope="session")
def seed() -> int:
    return _int_env("ERASER_REPRO_SEED", 20231028)


@pytest.fixture(scope="session")
def engine() -> str:
    """Monte-Carlo engine driving the sweeps (auto = packed when possible)."""
    value = os.environ.get("ERASER_REPRO_ENGINE", "auto").strip().lower()
    return value if value in ("auto", "scalar", "packed") else "auto"


@pytest.fixture(scope="session")
def batch_size():
    """Shots per simulator batch; ``None`` uses the engine default."""
    value = _int_env("ERASER_REPRO_BATCH", 0)
    return value if value > 0 else None


@pytest.fixture(scope="session")
def sweep_jobs() -> int:
    """Worker processes per sweep (1 = in-process serial execution)."""
    return max(1, _int_env("ERASER_REPRO_JOBS", 1))


@pytest.fixture(scope="session")
def cache_dir():
    """Content-addressed result cache directory (``None`` = caching off)."""
    return os.environ.get("ERASER_REPRO_CACHE_DIR") or None


@pytest.fixture(scope="session")
def resume() -> bool:
    """Whether to fall back to the default cache directory for resumption."""
    return os.environ.get("ERASER_REPRO_RESUME", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


@pytest.fixture(scope="session")
def sweep_opts(sweep_jobs, cache_dir, resume) -> dict:
    """Executor options forwarded by every sweep-shaped benchmark."""
    return {
        "jobs": sweep_jobs,
        "cache_dir": cache_dir,
        "resume": resume,
    }


def emit(title: str, body: str) -> None:
    """Print a titled block (visible with ``pytest -s``)."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
    print(body)
