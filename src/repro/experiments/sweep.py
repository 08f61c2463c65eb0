"""Parameter sweeps used by the CLI, the benchmark harness and the examples.

Every table and figure of the paper can be regenerated with a single call:

* :func:`ler_vs_distance` — Figure 14 / 17 / 20 style sweeps (LER vs distance
  for several policies),
* :func:`lpr_time_series` — Figure 5 / 6 / 15 / 18 / 21 style leakage
  population ratio traces,
* :func:`compare_policies` — a general sweep returning a
  :class:`~repro.experiments.results.PolicySweepResult`.

Sweeps are *planned* and then *executed*.  Each helper has a ``*_plan``
twin that expands the parameter grid into a
:class:`~repro.experiments.jobs.SweepPlan` — one seeded
:class:`~repro.experiments.jobs.SweepJob` per configuration, with child seeds
fanned out via ``numpy.random.SeedSequence.spawn`` — and the sweep itself
hands the plan to a :class:`~repro.experiments.executor.SweepExecutor`.

The keyword contract
--------------------
A plan builder declares only its grid: the distance(s), the policies (or
``cycles_list``), ``p``, ``cycles``, ``shots``, plus ``seed`` and
``chunk_shots``.  Every other keyword is a :class:`SweepJob` field
(``leakage_enabled``, ``transport_model``, ``engine``, ``code_family``,
``rounds``, ...) and is stamped on every job of the grid;
the job normalises its value at construction, and an unknown keyword
raises ``TypeError``.  Arguments after the grid are keyword-only.

A runner takes everything its plan builder takes, plus the executor options:

* ``jobs`` — worker processes (``1`` = in-process; results are bit-identical
  either way),
* ``cache_dir`` — content-addressed on-disk result cache; reruns of any
  configuration already computed there skip its Monte-Carlo work entirely,
* ``resume`` — reuse the default cache directory so an interrupted sweep
  continues from the configurations already finished,
* ``adaptive`` — an :class:`~repro.experiments.adaptive.AdaptiveConfig`
  stopping rule, stamped on every decode job,
* ``executor`` — a ready :class:`SweepExecutor` to run the plan on instead;
  ``jobs``, ``cache_dir`` and ``resume`` are then ignored, while the
  stamped ``adaptive`` option above still applies.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.adaptive import AdaptiveConfig, apply_adaptive
from repro.experiments.executor import SweepExecutor, warn_unseeded_cache
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.results import MemoryExperimentResult, PolicySweepResult
from repro.noise.profiles import NoiseProfile
from repro.sim.rng import RngLike

DEFAULT_POLICIES = ("always-lrc", "eraser", "eraser+m", "optimal")


def _run(
    build: Callable[..., SweepPlan],
    *grid,
    seed: RngLike = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    executor: Optional[SweepExecutor] = None,
    adaptive: Optional[AdaptiveConfig] = None,
    **fields,
) -> List[MemoryExperimentResult]:
    """Build the plan ``build(*grid, seed=seed, **fields)`` and execute it.

    The executor options are described in the module docstring.
    ``adaptive`` is stamped on the plan itself, so a caller's ``executor``
    receives it too.
    """
    plan = build(*grid, seed=seed, **fields)
    plan = apply_adaptive(plan, adaptive)
    if executor is None:
        warn_unseeded_cache(seed, cache_dir, resume)
        executor = SweepExecutor(jobs=jobs, cache_dir=cache_dir, resume=resume)
    return executor.run(plan)


def run_single_plan(
    distance: int,
    policy_name: str,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    **fields,
) -> SweepPlan:
    """A one-job plan for a single (distance, policy) configuration.

    :func:`compare_policies_plan` on a one-point grid.  A ``rounds`` field
    overrides ``cycles``.
    """
    return compare_policies_plan([distance], [policy_name], p, cycles, shots, **fields)


def run_single(
    distance: int,
    policy_name: str,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    **options,
) -> MemoryExperimentResult:
    """Run one (distance, policy) configuration and return its result."""
    return _run(run_single_plan, distance, policy_name, p, cycles, shots, **options)[0]


def compare_policies_plan(
    distances: Sequence[int],
    policies: Sequence[str] = DEFAULT_POLICIES,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    *,
    seed: RngLike = None,
    chunk_shots: Optional[int] = None,
    **fields,
) -> SweepPlan:
    """The (distance x policy) grid behind Figures 14-17 and 20 as a plan."""
    configs = [
        dict(distance=distance, policy=policy_name, p=p, cycles=cycles, shots=shots, **fields)
        for distance in distances
        for policy_name in policies
    ]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


def compare_policies(
    distances: Sequence[int],
    policies: Sequence[str] = DEFAULT_POLICIES,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    **options,
) -> PolicySweepResult:
    """Sweep policies across code distances (the shape behind Figures 14-17, 20).

    ``adaptive`` enables the sequential stopping rule on every decode job
    (see :mod:`repro.experiments.adaptive`): each (distance, policy) point
    runs only until the Wilson interval on its LER meets the target, which
    is what makes the low-``p`` Figure 14(b) regime affordable.
    """
    results = _run(compare_policies_plan, distances, policies, p, cycles, shots, **options)
    return PolicySweepResult(list(results))


def ler_vs_distance(
    distances: Sequence[int],
    policies: Sequence[str] = DEFAULT_POLICIES,
    **kwargs,
) -> Dict[str, Dict[int, float]]:
    """Logical error rate per policy per distance (Figure 14 series)."""
    sweep = compare_policies(distances, policies, decode=True, **kwargs)
    return sweep.ler_table()


def lpr_time_series_plan(
    distance: int,
    policies: Sequence[str] = DEFAULT_POLICIES,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 50,
    *,
    seed: RngLike = None,
    chunk_shots: Optional[int] = None,
    **fields,
) -> SweepPlan:
    """The per-policy LPR trace sweep as a plan (decoding disabled)."""
    configs = [
        dict(
            distance=distance, policy=policy_name, p=p, cycles=cycles, shots=shots,
            decode=False, **fields,
        )
        for policy_name in policies
    ]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


def lpr_time_series(
    distance: int,
    policies: Sequence[str] = DEFAULT_POLICIES,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 50,
    **options,
) -> Dict[str, np.ndarray]:
    """Per-round leakage population ratio per policy (Figures 5, 15, 18, 21).

    Decoding is disabled because the LPR does not depend on it, which makes
    these long time-series sweeps much faster.
    """
    results = _run(lpr_time_series_plan, distance, policies, p, cycles, shots, **options)
    return {result.policy: result.lpr_total for result in results}


#: Design-choice ablation axes (Section 5): LSB speculation threshold,
#: SWAP-table backup count, and decoding-graph matching engine.  Shared by
#: the registry plan, the report renderer and the ablation benchmark so the
#: three can never drift.
ABLATION_THRESHOLDS = (1, 2, 4)
ABLATION_BACKUPS = (0, 1, 3)
ABLATION_MATCHERS = ("mwpm", "greedy")


def ablation_plan(
    distance: int,
    shots: int,
    p: float = 1e-3,
    cycles: int = 10,
    seed: RngLike = None,
    chunk_shots: Optional[int] = None,
) -> SweepPlan:
    """The Section 5 design-choice grid: one ERASER config per axis point."""
    base = dict(distance=distance, policy="eraser", shots=shots, p=p, cycles=cycles)
    configs = (
        [dict(base, policy_kwargs={"speculation_threshold_override": t}) for t in ABLATION_THRESHOLDS]
        + [dict(base, policy_kwargs={"num_backups": b}) for b in ABLATION_BACKUPS]
        + [dict(base, decoder_method=m) for m in ABLATION_MATCHERS]
    )
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


def ablation_label(job: SweepJob) -> str:
    """Which ablation axis point a job of :func:`ablation_plan` represents."""
    kwargs = dict(job.policy_kwargs)
    if "speculation_threshold_override" in kwargs:
        return f"threshold={kwargs['speculation_threshold_override']}"
    if "num_backups" in kwargs:
        return f"backups={kwargs['num_backups']}"
    return f"matcher={job.decoder_method}"


def ler_vs_cycles_plan(
    distance: int,
    policies: Sequence[str],
    cycles_list: Sequence[int],
    p: float = 1e-3,
    shots: int = 100,
    *,
    seed: RngLike = None,
    chunk_shots: Optional[int] = None,
    **fields,
) -> SweepPlan:
    """The (cycles x policy) grid behind Figures 1(c), 2(c) and 6 as a plan."""
    configs = [
        dict(distance=distance, policy=policy_name, p=p, cycles=cycles, shots=shots, **fields)
        for cycles in cycles_list
        for policy_name in policies
    ]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


def ler_vs_cycles(
    distance: int,
    policies: Sequence[str],
    cycles_list: Sequence[int],
    p: float = 1e-3,
    shots: int = 100,
    **options,
) -> Dict[str, Dict[int, float]]:
    """LER as a function of the number of QEC cycles (Figures 1(c), 2(c), 6)."""
    results = _run(ler_vs_cycles_plan, distance, policies, cycles_list, p, shots, **options)
    table: Dict[str, Dict[int, float]] = {}
    for result in results:
        cycles = result.rounds // result.distance
        table.setdefault(result.policy, {})[cycles] = result.logical_error_rate
    return table


#: Scenario-diversity axes beyond the paper's uniform Section 5.2.1 model.
#: Shared by the registry entries, the report renderers and the scenario
#: benchmark so the three can never drift.
BIAS_ETAS = (1.0, 2.0, 4.0, 10.0)
HETEROGENEOUS_SPREADS = (0.0, 0.5, 1.0)
#: Fixed profile seed of the registry's heterogeneous sweep (the profile draw
#: is seeded separately from the Monte-Carlo stream, so this pins *which*
#: per-qubit rate landscape every run of the entry sees).
HETEROGENEOUS_PROFILE_SEED = 7


def ler_vs_bias_plan(
    distance: int,
    policies: Sequence[str] = ("always-lrc", "eraser"),
    etas: Sequence[float] = BIAS_ETAS,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    seed: RngLike = None,
    chunk_shots: Optional[int] = None,
) -> SweepPlan:
    """LER under Z-biased depolarising noise, one job per (policy, eta).

    ``eta = 1`` is the paper's uniform Pauli mix, so the sweep's first column
    doubles as a consistency anchor against the Figure 14 numbers.
    """
    configs = [
        dict(
            distance=distance, policy=policy_name, p=p, cycles=cycles, shots=shots,
            noise_profile=NoiseProfile.biased(eta),
        )
        for eta in etas
        for policy_name in policies
    ]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)


def ler_heterogeneous_plan(
    distance: int,
    policies: Sequence[str] = ("always-lrc", "eraser"),
    spreads: Sequence[float] = HETEROGENEOUS_SPREADS,
    profile_seed: int = HETEROGENEOUS_PROFILE_SEED,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    seed: RngLike = None,
    chunk_shots: Optional[int] = None,
) -> SweepPlan:
    """LER under log-normal per-qubit rate heterogeneity, per (policy, spread).

    ``spread = 0`` degenerates to uniform per-qubit arrays, whose statistics
    are bit-identical to the scalar fast path (the differential suite pins
    this), anchoring the sweep to the paper's operating point.
    """
    configs = [
        dict(
            distance=distance, policy=policy_name, p=p, cycles=cycles, shots=shots,
            noise_profile=NoiseProfile.heterogeneous(profile_seed, spread),
        )
        for spread in spreads
        for policy_name in policies
    ]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)
