"""Adaptive shot allocation on the Figure 14(b) low-p workload (p=1e-4).

At p=1e-4 most configurations see zero logical failures at laptop shot
budgets, so a fixed-allocation sweep spends its entire budget on points
whose Wilson interval tightened long ago.  This benchmark runs the same
(distance x policy) grid behind ``bench_fig14b_low_error_rate.py`` twice:

* **fixed** — every job runs its full ``BUDGET_SHOTS`` budget (today's
  default sweep behaviour), and
* **adaptive** — the sequential stopping rule from
  :mod:`repro.experiments.adaptive` dispatches chunks only until each
  job's Wilson half-width on the LER is tighter than
  ``LOW_P_ADAPTIVE_TARGET``, the same target the ``ler-low-p-adaptive``
  registry entry uses.

Both runs draw from position-keyed chunk seeds, so every adaptive result
is bit-identical to the prefix of the corresponding fixed job (the
exhaustive identity tier lives in ``tests/test_adaptive.py``).  The
acceptance guard asserts the adaptive sweep reaches the target CI width
with >= 3x fewer total shots and that every job met its target.

The numbers are written to ``BENCH_adaptive.json`` at the repository
root.  Environment knobs (see ``conftest.py``): ``ERASER_REPRO_SHOTS``
(fixed budget floor ``BUDGET_SHOTS`` = max(shots, 600)),
``ERASER_REPRO_MAX_DISTANCE``, ``ERASER_REPRO_SEED``, and
``ERASER_REPRO_BENCH_OUT`` to redirect the JSON.
"""

import json
import os
import time

from conftest import emit

from repro.experiments.adaptive import AdaptiveConfig
from repro.experiments.executor import SweepExecutor
from repro.experiments.metrics import wilson_interval
from repro.experiments.registry import LOW_P_ADAPTIVE_TARGET
from repro.experiments.sweep import compare_policies_plan

POLICIES = ("always-lrc", "eraser", "optimal")
P = 1e-4
CYCLES = 10
CHUNK_SHOTS = 25

#: The acceptance target: on the fig14(b)-style plan the adaptive sweep
#: must reach the target CI width with >= 3x fewer total shots than the
#: fixed allocation.  The budget floor keeps the guard meaningful even
#: under CI quick settings: zero-failure jobs satisfy the 2.5e-2 target
#: after ~75 shots, jobs that do see a failure stop by ~200, so a
#: 600-shot budget holds the 3x guard with headroom for seed variation.
TARGET_RATIO = 3.0
BUDGET_FLOOR = 600


def _plan(distances, budget, seed):
    return compare_policies_plan(
        distances=distances,
        policies=POLICIES,
        p=P,
        cycles=CYCLES,
        shots=budget,
        seed=seed,
        chunk_shots=CHUNK_SHOTS,
    )


def _job_rows(plan, results):
    rows = []
    for job, result in zip(plan.jobs, results):
        low, high = wilson_interval(result.logical_errors, result.shots)
        rows.append(
            {
                "distance": job.distance,
                "policy": job.policy,
                "shots": result.shots,
                "logical_errors": result.logical_errors,
                "ler": result.logical_error_rate,
                "ler_ci_low": low,
                "ler_ci_high": high,
                "ci_halfwidth": (high - low) / 2.0,
            }
        )
    return rows


def test_adaptive_allocation(shots, distances, seed):
    small = [d for d in distances if d <= 5]
    budget = max(shots, BUDGET_FLOOR)
    config = AdaptiveConfig(target_ci_halfwidth=LOW_P_ADAPTIVE_TARGET)

    t0 = time.perf_counter()
    fixed_exec = SweepExecutor()
    fixed_plan = _plan(small, budget, seed)
    fixed_results = fixed_exec.run(fixed_plan)
    t_fixed = time.perf_counter() - t0

    t0 = time.perf_counter()
    adaptive_exec = SweepExecutor(adaptive=config)
    adaptive_plan = _plan(small, budget, seed)
    adaptive_results = adaptive_exec.run(adaptive_plan)
    t_adaptive = time.perf_counter() - t0
    stats = adaptive_exec.last_stats

    fixed_rows = _job_rows(fixed_plan, fixed_results)
    adaptive_rows = _job_rows(adaptive_plan, adaptive_results)
    fixed_shots = sum(row["shots"] for row in fixed_rows)
    adaptive_shots = sum(row["shots"] for row in adaptive_rows)
    ratio = fixed_shots / adaptive_shots if adaptive_shots else float("inf")

    # Every adaptive job must actually have met the CI-width target, and
    # each one is the bit-identical prefix of the fixed job beside it
    # (same seeds, fewer chunks) — so the LERs must agree wherever the
    # adaptive job consumed the full budget.
    for fixed_row, adaptive_row in zip(fixed_rows, adaptive_rows):
        assert config.satisfied(
            adaptive_row["logical_errors"], adaptive_row["shots"]
        ), f"{adaptive_row} missed the CI-width target"
        if adaptive_row["shots"] == fixed_row["shots"]:
            assert adaptive_row["ler"] == fixed_row["ler"]

    report = {
        "workload": {
            "policies": list(POLICIES),
            "distances": small,
            "p": P,
            "cycles": CYCLES,
            "budget_shots_per_job": budget,
            "chunk_shots": CHUNK_SHOTS,
            "target_ci_halfwidth": LOW_P_ADAPTIVE_TARGET,
            "seed": seed,
        },
        "fixed": {
            "total_shots": fixed_shots,
            "elapsed_seconds": t_fixed,
            "jobs": fixed_rows,
        },
        "adaptive": {
            "total_shots": adaptive_shots,
            "elapsed_seconds": t_adaptive,
            "jobs": adaptive_rows,
            "jobs_stopped_early": stats.jobs_stopped_early,
            "shots_saved": stats.shots_saved,
        },
        "shots_ratio": ratio,
        "target_ratio": TARGET_RATIO,
    }

    out_path = os.environ.get(
        "ERASER_REPRO_BENCH_OUT",
        os.path.join(os.path.dirname(__file__), "..", "BENCH_adaptive.json"),
    )
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    rows = [
        f"d={row['distance']}  {row['policy']:>10s}  "
        f"fixed {fixed_row['shots']:5d} shots  adaptive {row['shots']:5d} shots  "
        f"halfwidth {row['ci_halfwidth']:.4f} (target {LOW_P_ADAPTIVE_TARGET})"
        for fixed_row, row in zip(fixed_rows, adaptive_rows)
    ]
    rows.append(
        f"total {fixed_shots} -> {adaptive_shots} shots "
        f"({ratio:.2f}x, {stats.jobs_stopped_early} job(s) stopped early)"
    )
    emit(
        f"Adaptive shot allocation, fig14(b) grid at p={P} "
        f"(budget {budget} shots/job, target half-width {LOW_P_ADAPTIVE_TARGET})",
        "\n".join(rows + [f"-> {os.path.abspath(out_path)}"]),
    )

    assert stats.jobs_stopped_early > 0
    assert ratio >= TARGET_RATIO, (
        f"adaptive allocation saved only {ratio:.2f}x shots "
        f"(target {TARGET_RATIO}x) on the p={P} grid"
    )
