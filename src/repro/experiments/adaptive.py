"""Adaptive shot allocation and rare-event estimation for low-LER sweeps.

ROADMAP item 3: Fig-14b-style points at ``p = 1e-4`` burn millions of shots
for a handful of logical failures.  This module provides the two statistical
tools that make the deep sub-threshold regime a first-class workload:

Sequential stopping rule
------------------------
:class:`AdaptiveConfig` describes a per-job stopping target: keep dispatching
chunks only until the Wilson interval on the job's logical error rate is
tighter than an absolute (or relative) half-width.  The rule composes with
the Section 6 seed discipline for free — chunk ``c`` of a job draws from the
position-keyed stream ``(job, c)`` no matter how many chunks end up running,
so a truncated run is *bit-identical* to the prefix of a fixed run, and the
executor caches it under that prefix job's content address.  Driving the
rule off the Wilson half-width (not the plug-in stderr, which collapses to
``0.0`` at zero failures) means a job that has seen no logical error is
never declared "resolved" prematurely: at zero failures the half-width is
still roughly ``1.92 / (shots + 3.84)`` (rule of three).

The knobs ride on :class:`~repro.experiments.jobs.SweepJob` as perf-only
fields (``target_ci_halfwidth``, ``target_rel_halfwidth``,
``adaptive_min_chunks``) excluded from cache identity: they change how
much of the job runs, never the content of any statistic.

Rare-event estimator
--------------------
:class:`RareEventSampler` estimates the deep tail by importance sampling
over the error-count-conditioned ensemble of a phenomenological noise model:
sample shots conditioned on at least ``k`` physical error events (via the
packed engine's exact sparse samplers), evaluate failures through a
precomputed single-fault signature table (Pauli-frame linearity: the
detector pattern of a multi-error set is the XOR of single-fault
signatures), and reweight by the exact binomial tail ``P(K >= k)``.  With
``k = (d+1)//2`` the estimator is *exactly* unbiased: minimum-weight
matching corrects every error set of weight ``<= (d-1)//2``, so the
discarded low-count strata contribute zero failures by construction.
:func:`cross_check` verifies the estimator against direct sampling in the
overlap region where both are tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codes import DEFAULT_CODE_FAMILY, make_code
from repro.codes.layout import StabilizerType
from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.metrics import wilson_halfwidth, wilson_interval
from repro.sim.packed_bits import sample_cells, sample_distinct

#: Chunks the stopping rule must observe before it may stop a job.  Two is
#: the smallest count that lets the truncation property be non-trivial (a
#: one-chunk stop is indistinguishable from not having started).
DEFAULT_MIN_CHUNKS = 2

#: Default z-score of the stopping rule's Wilson interval (95%).
DEFAULT_Z = 1.96


# ----------------------------------------------------------------------
# Sequential stopping rule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdaptiveConfig:
    """A per-job sequential stopping target.

    Attributes:
        target_ci_halfwidth: Stop once the Wilson half-width on the job's
            LER is ``<=`` this absolute value (``None`` = no absolute target).
        target_rel_halfwidth: Stop once the half-width is ``<= target *
            LER-hat`` (``None`` = no relative target).  Only meaningful once
            at least one failure was observed — a zero-failure job can never
            satisfy a relative target, by design.
        min_chunks: Chunks that must complete before the rule may stop.
        z: z-score of the Wilson interval driving the rule.

    Either target being met stops the job (OR semantics).
    """

    target_ci_halfwidth: Optional[float] = None
    target_rel_halfwidth: Optional[float] = None
    min_chunks: int = DEFAULT_MIN_CHUNKS
    z: float = DEFAULT_Z

    def __post_init__(self) -> None:
        for name in ("target_ci_halfwidth", "target_rel_halfwidth"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.min_chunks < 1:
            raise ValueError(f"min_chunks must be >= 1, got {self.min_chunks}")

    @property
    def enabled(self) -> bool:
        """Whether any stopping target is configured."""
        return (
            self.target_ci_halfwidth is not None
            or self.target_rel_halfwidth is not None
        )

    def halfwidth(self, logical_errors: int, shots: int) -> float:
        """The Wilson half-width the rule evaluates (the per-job gauge)."""
        return wilson_halfwidth(logical_errors, shots, z=self.z)

    def satisfied(self, logical_errors: int, shots: int) -> bool:
        """Whether the interval on ``logical_errors / shots`` is tight enough.

        ``logical_errors < 0`` (decoding disabled) never satisfies: there is
        no LER to resolve, so such jobs always run to completion.
        """
        if not self.enabled or shots <= 0 or logical_errors < 0:
            return False
        halfwidth = self.halfwidth(logical_errors, shots)
        if halfwidth != halfwidth:  # NaN guard
            return False
        if (
            self.target_ci_halfwidth is not None
            and halfwidth <= self.target_ci_halfwidth
        ):
            return True
        if self.target_rel_halfwidth is not None and logical_errors > 0:
            rate = logical_errors / shots
            if halfwidth <= self.target_rel_halfwidth * rate:
                return True
        return False


def job_adaptive_config(job: SweepJob) -> Optional[AdaptiveConfig]:
    """The stopping rule a job carries, or ``None`` when it has no target."""
    if job.target_ci_halfwidth is None and job.target_rel_halfwidth is None:
        return None
    return AdaptiveConfig(
        target_ci_halfwidth=job.target_ci_halfwidth,
        target_rel_halfwidth=job.target_rel_halfwidth,
        min_chunks=(
            DEFAULT_MIN_CHUNKS
            if job.adaptive_min_chunks is None
            else job.adaptive_min_chunks
        ),
    )


def apply_adaptive(plan: SweepPlan, config: Optional[AdaptiveConfig]) -> SweepPlan:
    """Give every decode job of ``plan`` the stopping rule's targets.

    Jobs that already carry their own target keep it; non-decode jobs are
    left untouched (they have no LER to resolve); ``None`` or a disabled
    config returns the plan unchanged.  The stamped fields are perf-only and
    do not change any job's cache identity.
    """
    if config is None or not config.enabled:
        return plan
    stamped = []
    for job in plan.jobs:
        if not job.decode or job.target_ci_halfwidth is not None or (
            job.target_rel_halfwidth is not None
        ):
            stamped.append(job)
        else:
            stamped.append(
                replace(
                    job,
                    target_ci_halfwidth=config.target_ci_halfwidth,
                    target_rel_halfwidth=config.target_rel_halfwidth,
                    adaptive_min_chunks=config.min_chunks,
                )
            )
    return SweepPlan(stamped)


# ----------------------------------------------------------------------
# Rare-event estimation (error-count-conditioned importance sampling)
# ----------------------------------------------------------------------
def binomial_logpmf(n: int, p: float, j: int) -> float:
    """``log P(Binomial(n, p) = j)``, stable for tiny ``p`` and large ``n``."""
    if not 0 <= j <= n:
        return float("-inf")
    if p <= 0.0:
        return 0.0 if j == 0 else float("-inf")
    if p >= 1.0:
        return 0.0 if j == n else float("-inf")
    return (
        math.lgamma(n + 1)
        - math.lgamma(j + 1)
        - math.lgamma(n - j + 1)
        + j * math.log(p)
        + (n - j) * math.log1p(-p)
    )


def binomial_tail(n: int, p: float, k: int) -> float:
    """``P(Binomial(n, p) >= k)`` via direct pmf summation (exact weights)."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    # Sum ascending from k: terms decay geometrically once j >> n*p, so the
    # partial sums converge long before j reaches n for the sparse regime.
    total = 0.0
    for j in range(k, n + 1):
        term = math.exp(binomial_logpmf(n, p, j))
        total += term
        if term < 1e-18 * max(total, 1e-300) and j > n * p + 10:
            break
    return min(total, 1.0)


@dataclass
class RareEventEstimate:
    """One rare-event LER estimate with its uncertainty and provenance."""

    ler: float
    ci_low: float
    ci_high: float
    shots: int
    failures: int
    method: str
    min_events: int
    #: Importance weight ``P(K >= min_events)`` (``1.0`` for direct sampling).
    weight: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "ler": self.ler,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "shots": self.shots,
            "failures": self.failures,
            "method": self.method,
            "min_events": self.min_events,
            "weight": self.weight,
        }


class RareEventSampler:
    """Phenomenological failure model with exact conditioned sampling.

    The model: independent X errors land on data qubits just before each
    syndrome-extraction round with probability ``p`` per (round, qubit) cell;
    measurements are noiseless.  Failures are evaluated through a
    precomputed *single-fault signature table* — one noiseless frame-
    simulator run per cell records the detector pattern and observable flip
    of that fault, and Pauli-frame linearity makes any multi-error shot the
    XOR of its cells' signatures — so per-shot cost is a sparse XOR plus one
    decoder call, independent of ``p``.

    Three estimators share the machinery:

    * :meth:`direct` — plain Monte-Carlo over the unconditioned ensemble
      (exact sparse Bernoulli sampling via ``sample_cells``);
    * :meth:`conditioned` — importance sampling over the ensemble
      conditioned on at least ``k`` error events, reweighted by the exact
      binomial tail ``P(K >= k)``;
    * :meth:`stratified` — multilevel splitting over exact-count strata
      ``K = k, k+1, ...``, each estimated independently and recombined with
      exact binomial weights (a conservative tail term covers the truncated
      strata).

    With ``k = (d+1)//2`` (the default) the conditioned estimators are
    exactly unbiased: MWPM corrects every error set of weight ``<=
    (d-1)//2``, so every discarded low-count shot is a guaranteed success.
    """

    def __init__(
        self,
        distance: int,
        rounds: int,
        p: float,
        code_family: str = DEFAULT_CODE_FAMILY,
        decoder_method: str = "mwpm",
    ) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        from repro.decoder.decoder import SurfaceCodeDecoder

        self.distance = int(distance)
        self.rounds = int(rounds)
        self.p = float(p)
        self.code_family = code_family
        self.code = make_code(code_family, distance)
        self.decoder = SurfaceCodeDecoder(
            code=self.code,
            num_rounds=self.rounds,
            stabilizer_type=StabilizerType.Z,
            method=decoder_method,
        )
        self._build_signature_table()

    # -- signature table ------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Error cells per shot: one per (round, data qubit)."""
        return self.rounds * len(self._data_qubits)

    @property
    def min_events(self) -> int:
        """Smallest error count that can possibly defeat the decoder.

        MWPM corrects every error set of weight ``<= (d-1)//2``, so shots
        with fewer events than this are guaranteed successes and the
        conditioned ensemble may skip them without bias.
        """
        return (self.distance + 1) // 2

    def _build_signature_table(self) -> None:
        """One noiseless :class:`~repro.decoder.fault_injection.FaultInjector`
        run per (round, qubit) cell -> detector/observable XOR basis."""
        from repro.decoder.fault_injection import FaultInjector

        injector = FaultInjector(self.code, self.rounds)
        self._data_qubits = list(self.code.data_indices)
        checks = self.decoder.graph.num_checks
        position = {check: index for index, check in enumerate(self.decoder.graph.checks)}
        self._det_table = np.zeros((self.num_cells, (self.rounds + 1) * checks), dtype=np.uint8)
        self._obs_table = np.zeros(self.num_cells, dtype=np.uint8)
        for round_index in range(self.rounds):
            for qubit_pos, qubit in enumerate(self._data_qubits):
                cell = round_index * len(self._data_qubits) + qubit_pos
                signature = injector.data_pauli(round_index, qubit, "X")
                for layer, check in signature.flipped_detectors:
                    self._det_table[cell, layer * checks + position[check]] = 1
                self._obs_table[cell] = signature.observable_flip

    # -- failure evaluation ---------------------------------------------
    def failures_for_cells(
        self, shots: int, shot_rows: np.ndarray, cell_cols: np.ndarray
    ) -> np.ndarray:
        """Per-shot failure flags for sparse (shot, cell) error placements.

        Detector patterns and observable flips accumulate by XOR over each
        shot's cells (Pauli-frame linearity), then the decoder's batched
        correction path predicts the logical flip per shot.
        """
        layers = self.rounds + 1
        checks = self.decoder.graph.num_checks
        detectors = np.zeros((shots, layers * checks), dtype=np.uint8)
        observed = np.zeros(shots, dtype=np.uint8)
        if shot_rows.size:
            np.bitwise_xor.at(detectors, shot_rows, self._det_table[cell_cols])
            np.bitwise_xor.at(observed, shot_rows, self._obs_table[cell_cols])
        predicted = self.decoder.predict_corrections_batch(
            detectors.reshape(shots, layers, checks).astype(bool)
        )
        return (predicted.astype(np.uint8) ^ observed).astype(bool)

    # -- estimators ------------------------------------------------------
    def direct(self, shots: int, seed=None) -> RareEventEstimate:
        """Plain Monte-Carlo over the unconditioned ensemble."""
        rng = np.random.default_rng(seed)
        rows, cols = sample_cells(rng, shots, self.num_cells, self.p)
        failures = int(self.failures_for_cells(shots, rows, cols).sum())
        low, high = wilson_interval(failures, shots)
        return RareEventEstimate(
            ler=failures / shots,
            ci_low=low,
            ci_high=high,
            shots=shots,
            failures=failures,
            method="direct",
            min_events=0,
            weight=1.0,
        )

    def _conditional_count_sampler(self, k: int):
        """Inverse-CDF sampler for ``K ~ Binomial(N, p) | K >= k``."""
        n = self.num_cells
        tail = binomial_tail(n, self.p, k)
        if tail <= 0.0:
            raise ValueError(
                f"P(K >= {k}) underflows for N={n}, p={self.p}; "
                "the conditioned ensemble is empty"
            )
        counts: List[int] = []
        cdf: List[float] = []
        cumulative = 0.0
        for j in range(k, n + 1):
            mass = math.exp(binomial_logpmf(n, self.p, j)) / tail
            cumulative += mass
            counts.append(j)
            cdf.append(cumulative)
            if cumulative >= 1.0 - 1e-12:
                break
        cdf[-1] = 1.0
        cdf_array = np.asarray(cdf)
        counts_array = np.asarray(counts)

        def draw(rng: np.random.Generator, size: int) -> np.ndarray:
            return counts_array[np.searchsorted(cdf_array, rng.random(size))]

        return draw, tail

    def conditioned(
        self, shots: int, seed=None, min_events: Optional[int] = None
    ) -> RareEventEstimate:
        """Importance sampling conditioned on at least ``k`` error events.

        ``LER = P(K >= k) * E[failure | K >= k]``; the first factor is an
        exact binomial tail and the second a conditional Monte-Carlo mean,
        so the Wilson interval on the conditional mean scales directly by
        the (exact) weight.
        """
        k = self.min_events if min_events is None else int(min_events)
        rng = np.random.default_rng(seed)
        draw, weight = self._conditional_count_sampler(k)
        counts = draw(rng, shots)
        rows = np.repeat(np.arange(shots, dtype=np.int64), counts)
        cols = np.concatenate(
            [sample_distinct(rng, self.num_cells, int(j)) for j in counts]
        ) if shots else np.empty(0, dtype=np.int64)
        failures = int(self.failures_for_cells(shots, rows, cols).sum())
        low, high = wilson_interval(failures, shots)
        return RareEventEstimate(
            ler=weight * failures / shots,
            ci_low=weight * low,
            ci_high=weight * high,
            shots=shots,
            failures=failures,
            method="conditioned",
            min_events=k,
            weight=weight,
        )

    def stratified(
        self,
        shots: int,
        seed=None,
        min_events: Optional[int] = None,
        min_stratum_shots: int = 32,
    ) -> RareEventEstimate:
        """Multilevel splitting over exact-count strata ``K = k, k+1, ...``.

        Shots are allocated across strata proportionally to each stratum's
        exact binomial weight (never below ``min_stratum_shots``), each
        stratum's conditional failure rate is estimated independently, and
        the estimates recombine as ``sum_j P(K = j) * f_j``.  Strata beyond
        the retained range contribute their full weight to the upper bound
        (conservative: as if every such shot failed).
        """
        k = self.min_events if min_events is None else int(min_events)
        rng = np.random.default_rng(seed)
        n = self.num_cells
        tail = binomial_tail(n, self.p, k)
        # Retain strata covering all but a vanishing fraction of the tail.
        strata: List[Tuple[int, float]] = []
        cumulative = 0.0
        for j in range(k, n + 1):
            mass = math.exp(binomial_logpmf(n, self.p, j))
            strata.append((j, mass))
            cumulative += mass
            if tail - cumulative <= 1e-6 * tail:
                break
        truncated_weight = max(tail - cumulative, 0.0)
        total_mass = sum(mass for _, mass in strata)
        ler = 0.0
        ci_low = 0.0
        ci_high = truncated_weight
        total_shots = 0
        total_failures = 0
        for j, mass in strata:
            stratum_shots = max(
                min_stratum_shots, int(round(shots * mass / total_mass))
            )
            cols = np.concatenate(
                [sample_distinct(rng, n, j) for _ in range(stratum_shots)]
            )
            rows = np.repeat(np.arange(stratum_shots, dtype=np.int64), j)
            failures = int(
                self.failures_for_cells(stratum_shots, rows, cols).sum()
            )
            low, high = wilson_interval(failures, stratum_shots)
            ler += mass * failures / stratum_shots
            ci_low += mass * low
            ci_high += mass * high
            total_shots += stratum_shots
            total_failures += failures
        return RareEventEstimate(
            ler=ler,
            ci_low=ci_low,
            ci_high=ci_high,
            shots=total_shots,
            failures=total_failures,
            method="stratified",
            min_events=k,
            weight=tail,
        )


def intervals_overlap(
    a: Tuple[float, float], b: Tuple[float, float]
) -> bool:
    """Whether two ``(low, high)`` intervals share any point (NaN = False)."""
    if any(v != v for v in (*a, *b)):
        return False
    return a[0] <= b[1] and b[0] <= a[1]


def cross_check(
    sampler: RareEventSampler,
    direct_shots: int,
    conditioned_shots: int,
    seed: int = 0,
) -> Dict[str, object]:
    """Unbiasedness cross-check: conditioned vs direct in the overlap region.

    Runs both estimators on the same model (independent streams) and reports
    whether their Wilson intervals overlap — the acceptance gate used by the
    adaptive benchmark and the test suite.  Run it at a ``p`` where direct
    sampling still resolves the LER; the conditioned estimator's weights do
    not change with ``p``, so agreement here transfers to the deep tail.
    """
    direct = sampler.direct(direct_shots, seed=seed)
    conditioned = sampler.conditioned(conditioned_shots, seed=seed + 1)
    return {
        "direct": direct.to_dict(),
        "conditioned": conditioned.to_dict(),
        "overlap": intervals_overlap(
            (direct.ci_low, direct.ci_high),
            (conditioned.ci_low, conditioned.ci_high),
        ),
    }
