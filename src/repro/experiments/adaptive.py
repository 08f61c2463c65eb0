"""Sequential stopping rule for the Figure 14(b) low-error-rate sweeps.

At ``p = 1e-4`` (Figure 14, bottom) most configurations see zero logical
failures at laptop shot budgets, so a fixed allocation spends most of its
shots on points whose confidence interval tightened long ago.

:class:`AdaptiveConfig` describes a per-job stopping target: keep dispatching
chunks only until the Wilson interval on the job's logical error rate is
tighter than an absolute half-width.  The rule composes with the Section 6
seed discipline for free — chunk ``c`` of a job draws from the
position-keyed stream ``(job, c)`` no matter how many chunks end up running,
so a truncated run is *bit-identical* to the prefix of a fixed run, and the
executor caches it under that prefix job's content address.  Driving the
rule off the Wilson half-width (not the plug-in stderr, which collapses to
``0.0`` at zero failures) means a job that has seen no logical error is
never declared "resolved" prematurely: at zero failures the half-width is
still roughly ``1.92 / (shots + 3.84)`` (rule of three).

The knobs ride on :class:`~repro.experiments.jobs.SweepJob` as perf-only
fields (``target_ci_halfwidth``, ``adaptive_min_chunks``) excluded from
cache identity: they change how much of the job runs, never the content of
any statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.experiments.jobs import SweepJob, SweepPlan
from repro.experiments.metrics import wilson_halfwidth

#: Chunks the stopping rule must observe before it may stop a job.  Two is
#: the smallest count that lets the truncation property be non-trivial (a
#: one-chunk stop is indistinguishable from not having started).
DEFAULT_MIN_CHUNKS = 2

#: z-score of the stopping rule's Wilson interval (95%).
DEFAULT_Z = 1.96


@dataclass(frozen=True)
class AdaptiveConfig:
    """A per-job sequential stopping target.

    Attributes:
        target_ci_halfwidth: Stop once the Wilson half-width on the job's
            LER is ``<=`` this absolute value (``None`` = no target).
        min_chunks: Chunks that must complete before the rule may stop.
    """

    target_ci_halfwidth: Optional[float] = None
    min_chunks: int = DEFAULT_MIN_CHUNKS

    def __post_init__(self) -> None:
        if self.target_ci_halfwidth is not None and not self.target_ci_halfwidth > 0.0:
            raise ValueError(
                f"target_ci_halfwidth must be > 0, got {self.target_ci_halfwidth}"
            )
        if self.min_chunks < 1:
            raise ValueError(f"min_chunks must be >= 1, got {self.min_chunks}")

    @property
    def enabled(self) -> bool:
        """Whether a stopping target is configured."""
        return self.target_ci_halfwidth is not None

    def halfwidth(self, logical_errors: int, shots: int) -> float:
        """The Wilson half-width the rule evaluates (the per-job gauge)."""
        return wilson_halfwidth(logical_errors, shots, z=DEFAULT_Z)

    def satisfied(self, logical_errors: int, shots: int) -> bool:
        """Whether the interval on ``logical_errors / shots`` is tight enough.

        ``logical_errors < 0`` (decoding disabled) never satisfies: there is
        no LER to resolve, so such jobs always run to completion.
        """
        if not self.enabled or shots <= 0 or logical_errors < 0:
            return False
        # A NaN half-width compares False, so it never stops a job.
        return self.halfwidth(logical_errors, shots) <= self.target_ci_halfwidth


def job_adaptive_config(job: SweepJob) -> Optional[AdaptiveConfig]:
    """The stopping rule a job carries, or ``None`` when it has no target."""
    if job.target_ci_halfwidth is None:
        return None
    return AdaptiveConfig(
        target_ci_halfwidth=job.target_ci_halfwidth,
        min_chunks=(
            DEFAULT_MIN_CHUNKS
            if job.adaptive_min_chunks is None
            else job.adaptive_min_chunks
        ),
    )


def apply_adaptive(plan: SweepPlan, config: Optional[AdaptiveConfig]) -> SweepPlan:
    """Give every decode job of ``plan`` the stopping rule's target.

    Jobs that already carry their own target keep it; non-decode jobs are
    left untouched (they have no LER to resolve); ``None`` or a disabled
    config returns the plan unchanged.  The stamped fields are perf-only and
    do not change any job's cache identity.
    """
    if config is None or not config.enabled:
        return plan
    stamped = []
    for job in plan.jobs:
        if not job.decode or job.target_ci_halfwidth is not None:
            stamped.append(job)
        else:
            stamped.append(
                replace(
                    job,
                    target_ci_halfwidth=config.target_ci_halfwidth,
                    adaptive_min_chunks=config.min_chunks,
                )
            )
    return SweepPlan(stamped)
