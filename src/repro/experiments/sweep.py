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
hands the plan to a :class:`~repro.experiments.executor.SweepExecutor`.  All
helpers therefore share three orchestration knobs:

* ``jobs`` — worker processes (``1`` = in-process; results are bit-identical
  either way),
* ``cache_dir`` — content-addressed on-disk result cache; reruns of any
  configuration already computed there skip its Monte-Carlo work entirely,
* ``resume`` — reuse the default cache directory so an interrupted sweep
  continues from the configurations already finished.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.qsg import PROTOCOL_SWAP
from repro.experiments.adaptive import AdaptiveConfig
from repro.experiments.executor import SweepExecutor, warn_unseeded_cache
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.results import MemoryExperimentResult, PolicySweepResult
from repro.noise.leakage import LeakageTransportModel
from repro.noise.profiles import NoiseProfile
from repro.sim.rng import RngLike

DEFAULT_POLICIES = ("always-lrc", "eraser", "eraser+m", "optimal")


def _executor(
    jobs: int,
    cache_dir: Optional[str],
    resume: bool,
    executor: Optional[SweepExecutor],
    seed: RngLike = None,
    decoder_artifact_dir: Optional[str] = None,
    adaptive: Optional[AdaptiveConfig] = None,
) -> SweepExecutor:
    if executor is not None:
        return executor
    warn_unseeded_cache(seed, cache_dir, resume)
    return SweepExecutor(
        jobs=jobs,
        cache_dir=cache_dir,
        resume=resume,
        decoder_artifact_dir=decoder_artifact_dir,
        adaptive=adaptive,
    )


def _config(
    distance: int,
    policy_name: str,
    p: float,
    shots: int,
    cycles: Optional[int] = None,
    rounds: Optional[int] = None,
    leakage_enabled: bool = True,
    transport_model: LeakageTransportModel = LeakageTransportModel.REMAIN,
    protocol: str = PROTOCOL_SWAP,
    decode: bool = True,
    decoder_method: str = "auto",
    engine: str = "auto",
    batch_size: Optional[int] = None,
    decoder_cache_size: Optional[int] = None,
    decoder_artifact_dir: Optional[str] = None,
    code_family: Optional[str] = None,
    noise_profile=None,
) -> Dict[str, object]:
    """One grid point in the dict form consumed by :meth:`SweepPlan.build`."""
    return dict(
        distance=distance,
        policy=policy_name,
        p=p,
        shots=shots,
        cycles=cycles,
        rounds=rounds,
        leakage_enabled=leakage_enabled,
        transport_model=transport_model,
        protocol=protocol,
        decode=decode,
        decoder_method=decoder_method,
        engine=engine,
        batch_size=batch_size,
        decoder_cache_size=decoder_cache_size,
        decoder_artifact_dir=decoder_artifact_dir,
        code_family=code_family,
        noise_profile=noise_profile,
    )


def run_single_plan(
    distance: int,
    policy_name: str,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    leakage_enabled: bool = True,
    transport_model: LeakageTransportModel = LeakageTransportModel.REMAIN,
    protocol: str = PROTOCOL_SWAP,
    decode: bool = True,
    decoder_method: str = "auto",
    seed: RngLike = None,
    rounds: Optional[int] = None,
    engine: str = "auto",
    batch_size: Optional[int] = None,
    chunk_shots: Optional[int] = None,
    decoder_cache_size: Optional[int] = None,
    decoder_artifact_dir: Optional[str] = None,
    code_family: Optional[str] = None,
    noise_profile=None,
) -> SweepPlan:
    """A one-job plan for a single (distance, policy) configuration."""
    return SweepPlan.build(
        [
            _config(
                distance,
                policy_name,
                p,
                shots,
                cycles=cycles if rounds is None else None,
                rounds=rounds,
                leakage_enabled=leakage_enabled,
                transport_model=transport_model,
                protocol=protocol,
                decode=decode,
                decoder_method=decoder_method,
                engine=engine,
                batch_size=batch_size,
                decoder_cache_size=decoder_cache_size,
                decoder_artifact_dir=decoder_artifact_dir,
                code_family=code_family,
                noise_profile=noise_profile,
            )
        ],
        seed=seed,
        chunk_shots=chunk_shots,
    )


def run_single(
    distance: int,
    policy_name: str,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    leakage_enabled: bool = True,
    transport_model: LeakageTransportModel = LeakageTransportModel.REMAIN,
    protocol: str = PROTOCOL_SWAP,
    decode: bool = True,
    decoder_method: str = "auto",
    seed: RngLike = None,
    rounds: Optional[int] = None,
    engine: str = "auto",
    batch_size: Optional[int] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    chunk_shots: Optional[int] = None,
    executor: Optional[SweepExecutor] = None,
    decoder_cache_size: Optional[int] = None,
    decoder_artifact_dir: Optional[str] = None,
    code_family: Optional[str] = None,
    noise_profile=None,
    adaptive: Optional[AdaptiveConfig] = None,
) -> MemoryExperimentResult:
    """Run one (distance, policy) configuration and return its result."""
    plan = run_single_plan(
        distance=distance,
        policy_name=policy_name,
        p=p,
        cycles=cycles,
        shots=shots,
        leakage_enabled=leakage_enabled,
        transport_model=transport_model,
        protocol=protocol,
        decode=decode,
        decoder_method=decoder_method,
        seed=seed,
        rounds=rounds,
        engine=engine,
        batch_size=batch_size,
        chunk_shots=chunk_shots,
        decoder_cache_size=decoder_cache_size,
        decoder_artifact_dir=decoder_artifact_dir,
        code_family=code_family,
        noise_profile=noise_profile,
    )
    return _executor(
        jobs, cache_dir, resume, executor, seed, decoder_artifact_dir, adaptive
    ).run(plan)[0]


def compare_policies_plan(
    distances: Sequence[int],
    policies: Sequence[str] = DEFAULT_POLICIES,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    leakage_enabled: bool = True,
    transport_model: LeakageTransportModel = LeakageTransportModel.REMAIN,
    protocol: str = PROTOCOL_SWAP,
    decode: bool = True,
    decoder_method: str = "auto",
    seed: RngLike = None,
    engine: str = "auto",
    batch_size: Optional[int] = None,
    chunk_shots: Optional[int] = None,
    decoder_cache_size: Optional[int] = None,
    decoder_artifact_dir: Optional[str] = None,
    code_family: Optional[str] = None,
    noise_profile=None,
) -> SweepPlan:
    """The (distance x policy) grid behind Figures 14-17 and 20 as a plan."""
    configs = [
        _config(
            distance,
            policy_name,
            p,
            shots,
            cycles=cycles,
            leakage_enabled=leakage_enabled,
            transport_model=transport_model,
            protocol=protocol,
            decode=decode,
            decoder_method=decoder_method,
            engine=engine,
            batch_size=batch_size,
            decoder_cache_size=decoder_cache_size,
            decoder_artifact_dir=decoder_artifact_dir,
            code_family=code_family,
            noise_profile=noise_profile,
        )
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
    leakage_enabled: bool = True,
    transport_model: LeakageTransportModel = LeakageTransportModel.REMAIN,
    protocol: str = PROTOCOL_SWAP,
    decode: bool = True,
    decoder_method: str = "auto",
    seed: RngLike = None,
    engine: str = "auto",
    batch_size: Optional[int] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    chunk_shots: Optional[int] = None,
    executor: Optional[SweepExecutor] = None,
    decoder_cache_size: Optional[int] = None,
    decoder_artifact_dir: Optional[str] = None,
    code_family: Optional[str] = None,
    noise_profile=None,
    adaptive: Optional[AdaptiveConfig] = None,
) -> PolicySweepResult:
    """Sweep policies across code distances (the shape behind Figures 14-17, 20).

    ``adaptive`` enables the sequential stopping rule on every decode job
    (see :mod:`repro.experiments.adaptive`): each (distance, policy) point
    runs only until the Wilson interval on its LER meets the target, which
    is what makes the low-``p`` Figure 14(b) regime affordable.
    """
    plan = compare_policies_plan(
        distances=distances,
        policies=policies,
        p=p,
        cycles=cycles,
        shots=shots,
        leakage_enabled=leakage_enabled,
        transport_model=transport_model,
        protocol=protocol,
        decode=decode,
        decoder_method=decoder_method,
        seed=seed,
        engine=engine,
        batch_size=batch_size,
        chunk_shots=chunk_shots,
        decoder_cache_size=decoder_cache_size,
        decoder_artifact_dir=decoder_artifact_dir,
        code_family=code_family,
        noise_profile=noise_profile,
    )
    results = _executor(
        jobs, cache_dir, resume, executor, seed, decoder_artifact_dir, adaptive
    ).run(plan)
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
    transport_model: LeakageTransportModel = LeakageTransportModel.REMAIN,
    protocol: str = PROTOCOL_SWAP,
    seed: RngLike = None,
    engine: str = "auto",
    batch_size: Optional[int] = None,
    chunk_shots: Optional[int] = None,
    code_family: Optional[str] = None,
    noise_profile=None,
) -> SweepPlan:
    """The per-policy LPR trace sweep as a plan (decoding disabled)."""
    configs = [
        _config(
            distance,
            policy_name,
            p,
            shots,
            cycles=cycles,
            transport_model=transport_model,
            protocol=protocol,
            decode=False,
            engine=engine,
            batch_size=batch_size,
            code_family=code_family,
            noise_profile=noise_profile,
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
    transport_model: LeakageTransportModel = LeakageTransportModel.REMAIN,
    protocol: str = PROTOCOL_SWAP,
    seed: RngLike = None,
    engine: str = "auto",
    batch_size: Optional[int] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    chunk_shots: Optional[int] = None,
    executor: Optional[SweepExecutor] = None,
    decoder_artifact_dir: Optional[str] = None,
    code_family: Optional[str] = None,
    noise_profile=None,
) -> Dict[str, np.ndarray]:
    """Per-round leakage population ratio per policy (Figures 5, 15, 18, 21).

    Decoding is disabled because the LPR does not depend on it, which makes
    these long time-series sweeps much faster.
    """
    plan = lpr_time_series_plan(
        distance=distance,
        policies=policies,
        p=p,
        cycles=cycles,
        shots=shots,
        transport_model=transport_model,
        protocol=protocol,
        seed=seed,
        engine=engine,
        batch_size=batch_size,
        chunk_shots=chunk_shots,
        code_family=code_family,
        noise_profile=noise_profile,
    )
    # decode=False, so the artifact dir only matters if an executor reuses it;
    # the prebuild step skips non-decode jobs either way.
    results = _executor(
        jobs, cache_dir, resume, executor, seed, decoder_artifact_dir
    ).run(plan)
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
    leakage_enabled: bool = True,
    decoder_method: str = "auto",
    seed: RngLike = None,
    engine: str = "auto",
    batch_size: Optional[int] = None,
    chunk_shots: Optional[int] = None,
) -> SweepPlan:
    """The (cycles x policy) grid behind Figures 1(c), 2(c) and 6 as a plan."""
    configs = [
        _config(
            distance,
            policy_name,
            p,
            shots,
            cycles=cycles,
            leakage_enabled=leakage_enabled,
            decoder_method=decoder_method,
            engine=engine,
            batch_size=batch_size,
        )
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
    leakage_enabled: bool = True,
    seed: RngLike = None,
    decoder_method: str = "auto",
    engine: str = "auto",
    batch_size: Optional[int] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    chunk_shots: Optional[int] = None,
    executor: Optional[SweepExecutor] = None,
    decoder_artifact_dir: Optional[str] = None,
) -> Dict[str, Dict[int, float]]:
    """LER as a function of the number of QEC cycles (Figures 1(c), 2(c), 6)."""
    plan = ler_vs_cycles_plan(
        distance=distance,
        policies=policies,
        cycles_list=cycles_list,
        p=p,
        shots=shots,
        leakage_enabled=leakage_enabled,
        decoder_method=decoder_method,
        seed=seed,
        engine=engine,
        batch_size=batch_size,
        chunk_shots=chunk_shots,
    )
    results = _executor(
        jobs, cache_dir, resume, executor, seed, decoder_artifact_dir
    ).run(plan)
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
        _config(
            distance,
            policy_name,
            p,
            shots,
            cycles=cycles,
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
        _config(
            distance,
            policy_name,
            p,
            shots,
            cycles=cycles,
            noise_profile=NoiseProfile.heterogeneous(profile_seed, spread),
        )
        for spread in spreads
        for policy_name in policies
    ]
    return SweepPlan.build(configs, seed=seed, chunk_shots=chunk_shots)
