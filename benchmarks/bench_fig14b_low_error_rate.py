"""Figure 14 (bottom): LER vs distance at the lower physical error rate p=1e-4.

At p=1e-4 error events are sparser, leakage is more visible, and the paper
reports ERASER closing most of the gap to ERASER+M and Optimal.  Resolving
absolute LER values at p=1e-4 needs far more shots than a laptop run, so this
benchmark reports the measured values and asserts only that the sweep runs
and that the leakage population behaves (the LPR is well resolved even at
small shot counts).

For actually resolving this regime, use the adaptive path instead:
``bench_adaptive_allocation.py`` runs the same grid under the sequential
stopping rule from :mod:`repro.experiments.adaptive` (registry entry
``ler-low-p-adaptive``), which drains the shot budget to the points whose
Wilson intervals are still loose.
"""

from conftest import emit

from repro.analysis.tables import series_table
from repro.experiments.sweep import compare_policies

POLICIES = ("always-lrc", "eraser", "optimal")


def _run(distances, shots, seed, sweep_opts):
    return compare_policies(
        distances=distances,
        policies=POLICIES,
        p=1e-4,
        cycles=10,
        shots=shots,
        seed=seed,
        **sweep_opts,
    )


def test_fig14_low_physical_error_rate(benchmark, shots, distances, seed, sweep_opts):
    small = [d for d in distances if d <= 5]
    sweep = benchmark.pedantic(
        _run, args=(small, shots, seed, sweep_opts), iterations=1, rounds=1
    )
    emit(
        f"Figure 14 (bottom): LER vs distance, p=1e-4, 10 cycles, {shots} shots/point",
        sweep.format_table() + "\n\n" + series_table(sweep.ler_table(), x_label="distance"),
    )
    for result in sweep:
        assert 0.0 <= result.logical_error_rate <= 1.0
    # Leakage events are rare at p=1e-4, so only a loose ordering is asserted:
    # the Optimal oracle never retains substantially more leakage than the
    # static Always-LRCs baseline.
    d = max(small)
    always = sweep.filter(policy="always-lrc", distance=d).results[0]
    optimal = sweep.filter(policy="optimal", distance=d).results[0]
    assert optimal.mean_lpr <= always.mean_lpr + 1e-3
