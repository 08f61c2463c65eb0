"""Per-experiment renderers: registry entries -> report artifacts.

One renderer per experiment *shape*: the LER-vs-distance sweeps (Figures 14,
14(b), 17, 20), the LER-vs-cycles grids (Figures 2(c), 6), the LPR time
series (Figures 5, 15), speculation accuracy (Figure 16), LRC counts
(Table 4), the design-choice ablations, and summary emitters for the
analytic entries (Equations 1-2, Table 2), the FPGA cost model (Table 3) and
the density-matrix stabilizer study (Figure 8).

Monte-Carlo renderers pull all their data through
:meth:`~repro.report.artifacts.RenderContext.run_spec`, i.e. through the
shared cached executor; analytic/hardware renderers compute their closed-form
models directly.  Every renderer returns an
:class:`~repro.report.artifacts.ExperimentArtifact` whose tables carry the
exact series behind the corresponding figure, plus paper-vs-reproduced
comparison rows where the paper states a number.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.analysis.analytic import (
    expected_lrcs_per_round_always,
    invisible_leakage_table,
    leakage_onto_data_without_lrc,
    leakage_onto_parity_with_lrc,
    paper_table2,
    transport_amplification_factor,
)
from repro.densitymatrix.study import DATA_QUDITS, PARITY_QUDIT, SingleStabilizerLeakageStudy
from repro.experiments.results import MemoryExperimentResult, PolicySweepResult
from repro.experiments.sweep import ablation_label
from repro.hardware.cost_model import FpgaCostModel
from repro.report.artifacts import (
    ComparisonRow,
    ExperimentArtifact,
    FigureResult,
    RenderContext,
    TableResult,
)
from repro.report.figures import save_bar_figure, save_line_figure


def _artifact(spec, tables=None, figures=None, comparisons=None, notes=None) -> ExperimentArtifact:
    return ExperimentArtifact(
        experiment_id=spec.experiment_id,
        title=spec.title,
        kind=spec.kind,
        tables=list(tables or []),
        figures=list(figures or []),
        comparisons=list(comparisons or []),
        notes=list(notes or []),
    )


def _figure(ctx: RenderContext, spec, name: str, caption: str, render: Callable[[str], bool]) -> FigureResult:
    """Attempt a PNG; fall back to a skipped figure with the same caption."""
    filename = f"{name}.png"
    written = False
    if ctx.figures_enabled:
        written = render(str(ctx.output_dir / filename))
    return FigureResult(
        experiment_id=spec.experiment_id,
        title=spec.title,
        filename=filename if written else None,
        caption=caption,
    )


def _sweep_detail_table(spec, results: Sequence[MemoryExperimentResult]) -> TableResult:
    """Long-form per-configuration CSV detail shared by every sweep renderer."""
    headers = [
        "policy", "distance", "rounds", "p", "shots", "logical_errors",
        "logical_error_rate", "ler_stderr", "ler_ci_low", "ler_ci_high",
        "mean_lpr", "final_lpr",
        "lrcs_per_round", "speculation_accuracy", "false_positive_rate",
        "false_negative_rate",
    ]
    rows = []
    for result in results:
        record = result.to_dict()
        rows.append([record[h] for h in headers])
    return TableResult(
        experiment_id=spec.experiment_id,
        title=f"{spec.experiment_id}: per-configuration detail",
        headers=headers,
        rows=rows,
        csv_name=f"{spec.experiment_id}.csv",
    )


def _cycles(result: MemoryExperimentResult) -> int:
    return result.rounds // result.distance


# ----------------------------------------------------------------------
# Monte-Carlo sweep renderers
# ----------------------------------------------------------------------
def render_ler_vs_distance(spec, ctx: RenderContext) -> ExperimentArtifact:
    """Figures 14 / 14(b) / 17 / 20: LER per policy across code distances."""
    results = ctx.run_spec(spec)
    sweep = PolicySweepResult(list(results))
    ler = sweep.ler_table()
    distances = sweep.distances()
    policies = sweep.policies()

    # Wilson bounds per (policy, distance): the error bars on the figure.
    # Using the interval (not the plug-in stderr) keeps zero-failure points
    # honest — their upper bar stays visible instead of collapsing to zero.
    ci: Dict[str, Dict[int, Tuple[float, float]]] = {}
    for result in results:
        ci.setdefault(result.policy, {})[result.distance] = result.logical_error_rate_interval

    wide = TableResult(
        experiment_id=spec.experiment_id,
        title=f"{spec.experiment_id}: logical error rate vs code distance",
        headers=["distance"] + policies,
        rows=[[d] + [ler.get(p, {}).get(d, float("nan")) for p in policies] for d in distances],
    )
    figure = _figure(
        ctx, spec, spec.experiment_id,
        "Logical error rate vs code distance (log scale), one line per policy; "
        "error bars are 95% Wilson intervals.",
        lambda path: save_line_figure(
            path,
            series={p: [ler[p][d] for d in sorted(ler[p])] for p in policies},
            x_values={p: sorted(ler[p]) for p in policies},
            title=f"{spec.experiment_id}: LER vs distance",
            xlabel="code distance",
            ylabel="logical error rate",
            logy=True,
            error_bounds={
                p: (
                    [ci[p][d][0] for d in sorted(ler[p])],
                    [ci[p][d][1] for d in sorted(ler[p])],
                )
                for p in policies
            },
        ),
    )

    comparisons: List[ComparisonRow] = []
    if spec.experiment_id == "fig14" and "always-lrc" in ler and "eraser" in ler:
        d = max(distances)
        always, eraser = ler["always-lrc"].get(d), ler["eraser"].get(d)
        if always and eraser and eraser == eraser and eraser > 0:
            comparisons.append(ComparisonRow(
                spec.experiment_id,
                f"LER(Always-LRCs) / LER(ERASER) at d={d}",
                "up to 4.3x (paper, d=11)",
                f"{always / eraser:.2f}x",
                "Monte-Carlo trend; grows with distance and shots",
            ))
    if spec.experiment_id == "fig20" and "dqlr" in ler and "eraser" in ler:
        d = max(distances)
        comparisons.append(ComparisonRow(
            spec.experiment_id,
            f"LER at d={d}: DQLR alone vs ERASER-scheduled DQLR",
            "ERASER scheduling improves on always-on DQLR",
            f"{ler['dqlr'].get(d, float('nan'))!r} vs {ler['eraser'].get(d, float('nan'))!r}",
            "Appendix A.2, exchange transport",
        ))
    return _artifact(
        spec,
        tables=[wide, _sweep_detail_table(spec, results)],
        figures=[figure],
        comparisons=comparisons,
    )


def render_ler_vs_cycles(spec, ctx: RenderContext) -> ExperimentArtifact:
    """Figures 2(c) and 6: LER as a function of the number of QEC cycles."""
    results = ctx.run_spec(spec)

    def group(result: MemoryExperimentResult) -> str:
        if spec.experiment_id == "fig2c":
            return "leakage on" if result.metadata.get("leakage_enabled") else "leakage off"
        return result.policy

    series: Dict[str, Dict[int, float]] = {}
    for result in results:
        series.setdefault(group(result), {})[_cycles(result)] = result.logical_error_rate
    cycles = sorted({c for values in series.values() for c in values})
    wide = TableResult(
        experiment_id=spec.experiment_id,
        title=f"{spec.experiment_id}: logical error rate vs QEC cycles",
        headers=["cycles"] + list(series),
        rows=[[c] + [series[name].get(c, float("nan")) for name in series] for c in cycles],
    )
    figure = _figure(
        ctx, spec, spec.experiment_id,
        "Logical error rate vs number of QEC cycles.",
        lambda path: save_line_figure(
            path,
            series={name: [series[name][c] for c in sorted(series[name])] for name in series},
            x_values={name: sorted(series[name]) for name in series},
            title=f"{spec.experiment_id}: LER vs cycles",
            xlabel="QEC cycles",
            ylabel="logical error rate",
        ),
    )
    comparisons = []
    if spec.experiment_id == "fig2c" and "leakage on" in series and "leakage off" in series:
        top = max(cycles)
        on, off = series["leakage on"].get(top), series["leakage off"].get(top)
        comparisons.append(ComparisonRow(
            spec.experiment_id,
            f"LER with vs without leakage at {top} cycles",
            "leakage sharply degrades LER (Section 2.3)",
            f"{on!r} vs {off!r}",
            "Monte-Carlo trend",
        ))
    return _artifact(
        spec,
        tables=[wide, _sweep_detail_table(spec, results)],
        figures=[figure],
        comparisons=comparisons,
    )


def render_lpr_time_series(spec, ctx: RenderContext) -> ExperimentArtifact:
    """Figures 5 and 15: per-round leakage population ratio traces."""
    results = ctx.run_spec(spec)
    split = spec.experiment_id == "fig5"
    series: Dict[str, List[float]] = {}
    if split:
        result = results[0]
        series["total"] = [float(v) for v in result.lpr_total]
        series["data"] = [float(v) for v in result.lpr_data]
        series["parity"] = [float(v) for v in result.lpr_parity]
    else:
        for result in results:
            series[result.policy] = [float(v) for v in result.lpr_total]
    rounds = max(len(v) for v in series.values())
    table = TableResult(
        experiment_id=spec.experiment_id,
        title=f"{spec.experiment_id}: leakage population ratio per round",
        headers=["round"] + list(series),
        rows=[
            [r] + [series[name][r] if r < len(series[name]) else float("nan") for name in series]
            for r in range(rounds)
        ],
        csv_name=f"{spec.experiment_id}.csv",
    )
    figure = _figure(
        ctx, spec, spec.experiment_id,
        "Leakage population ratio (Equation 5) per syndrome-extraction round.",
        lambda path: save_line_figure(
            path,
            series=series,
            x_values={name: list(range(len(values))) for name, values in series.items()},
            title=f"{spec.experiment_id}: LPR over time",
            xlabel="round",
            ylabel="leakage population ratio",
        ),
    )
    comparisons = []
    if not split and "always-lrc" in series and "eraser" in series:
        mean = lambda vs: sum(vs) / len(vs)  # noqa: E731
        comparisons.append(ComparisonRow(
            spec.experiment_id,
            "mean LPR, ERASER vs Always-LRCs",
            "comparable leakage suppression with far fewer LRCs (Section 6.2)",
            f"{mean(series['eraser']):.4g} vs {mean(series['always-lrc']):.4g}",
            "Monte-Carlo trend",
        ))
    return _artifact(spec, tables=[table], figures=[figure], comparisons=comparisons)


def _profile_axis(result: MemoryExperimentResult) -> Tuple[str, float]:
    """(axis label, x value) of a result's noise profile for scenario sweeps."""
    config = result.metadata.get("noise_profile") or {"kind": "uniform"}
    kind = config.get("kind", "uniform")
    if kind == "biased":
        return "bias eta", float(config["eta"])
    if kind == "heterogeneous":
        return "spread", float(config["spread"])
    if kind == "hot_spot":
        return "hot-spot factor", float(config["factor"])
    return "bias eta", 1.0  # the uniform anchor point of a bias sweep


def render_ler_vs_profile(spec, ctx: RenderContext) -> ExperimentArtifact:
    """Scenario sweeps: LER per policy across a noise-profile axis.

    Serves both the ``ler-vs-bias`` entry (x = bias ratio eta) and the
    ``ler-heterogeneous`` entry (x = log-normal spread); the axis is read off
    each result's ``noise_profile`` metadata, so the renderer needs no
    per-entry configuration.
    """
    results = ctx.run_spec(spec)
    axis_label = _profile_axis(results[0])[0]
    series: Dict[str, Dict[float, float]] = {}
    for result in results:
        x = _profile_axis(result)[1]
        series.setdefault(result.policy, {})[x] = result.logical_error_rate
    xs = sorted({x for values in series.values() for x in values})
    wide = TableResult(
        experiment_id=spec.experiment_id,
        title=f"{spec.experiment_id}: logical error rate vs {axis_label}",
        headers=[axis_label] + list(series),
        rows=[[x] + [series[p].get(x, float("nan")) for p in series] for x in xs],
    )
    figure = _figure(
        ctx, spec, spec.experiment_id,
        f"Logical error rate vs {axis_label}, one line per policy.",
        lambda path: save_line_figure(
            path,
            series={p: [series[p][x] for x in sorted(series[p])] for p in series},
            x_values={p: sorted(series[p]) for p in series},
            title=f"{spec.experiment_id}: LER vs {axis_label}",
            xlabel=axis_label,
            ylabel="logical error rate",
        ),
    )
    comparisons: List[ComparisonRow] = []
    if len(xs) >= 2:
        for policy, values in series.items():
            lo, hi = min(values), max(values)
            comparisons.append(ComparisonRow(
                spec.experiment_id,
                f"{policy}: LER at {axis_label}={hi:g} vs {lo:g}",
                "off-nominal noise shifts the operating point",
                f"{values[hi]!r} vs {values[lo]!r}",
                "Monte-Carlo trend",
            ))
    return _artifact(
        spec,
        tables=[wide, _sweep_detail_table(spec, results)],
        figures=[figure],
        comparisons=comparisons,
    )


def render_speculation(spec, ctx: RenderContext) -> ExperimentArtifact:
    """Figure 16: speculation accuracy, false positives and false negatives."""
    results = ctx.run_spec(spec)
    table = TableResult(
        experiment_id=spec.experiment_id,
        title=f"{spec.experiment_id}: LRC speculation quality per policy and distance",
        headers=["policy", "distance", "accuracy %", "FPR %", "FNR %", "LRCs/round"],
        rows=[
            [
                r.policy, r.distance,
                100.0 * r.speculation.accuracy,
                100.0 * r.speculation.false_positive_rate,
                100.0 * r.speculation.false_negative_rate,
                r.lrcs_per_round,
            ]
            for r in results
        ],
        csv_name=f"{spec.experiment_id}.csv",
    )
    top = max(r.distance for r in results)
    at_top = [r for r in results if r.distance == top]
    figure = _figure(
        ctx, spec, spec.experiment_id,
        f"Speculation accuracy per policy at d={top}.",
        lambda path: save_bar_figure(
            path,
            labels=[r.policy for r in at_top],
            values=[100.0 * r.speculation.accuracy for r in at_top],
            title=f"{spec.experiment_id}: speculation accuracy (d={top})",
            xlabel="policy",
            ylabel="accuracy %",
        ),
    )
    comparisons = []
    eraser = [r for r in at_top if r.policy == "eraser"]
    if eraser:
        comparisons.append(ComparisonRow(
            spec.experiment_id,
            f"ERASER speculation accuracy at d={top}",
            "~99% (Section 6.3)",
            f"{100.0 * eraser[0].speculation.accuracy:.1f}%",
            "Monte-Carlo",
        ))
    return _artifact(spec, tables=[table], figures=[figure], comparisons=comparisons)


def render_lrc_counts(spec, ctx: RenderContext) -> ExperimentArtifact:
    """Table 4: average LRCs scheduled per round.

    Uses the same sweep plan as Figure 14 under the same report seed, so with
    a cache directory every job here is a cache hit — no extra simulation.
    """
    results = ctx.run_spec(spec)
    sweep = PolicySweepResult(list(results))
    lrc = sweep.lrc_table()
    distances = sweep.distances()
    policies = sweep.policies()
    table = TableResult(
        experiment_id=spec.experiment_id,
        title="Table 4: average LRCs scheduled per round",
        headers=["distance"] + policies,
        rows=[[d] + [lrc.get(p, {}).get(d, float("nan")) for p in policies] for d in distances],
        csv_name=f"{spec.experiment_id}.csv",
    )
    comparisons = [
        ComparisonRow(
            spec.experiment_id,
            f"Always-LRCs LRCs/round at d={d}",
            f"{expected_lrcs_per_round_always(d):.1f} (analytic, d^2/2)",
            f"{lrc['always-lrc'][d]:.2f}",
            "measured vs closed form",
        )
        for d in distances
        if d in lrc.get("always-lrc", {})
    ]
    return _artifact(spec, tables=[table], comparisons=comparisons)


def render_ablations(spec, ctx: RenderContext) -> ExperimentArtifact:
    """Design-choice ablations (Section 5): threshold, backups, matcher."""
    plan = spec.make_plan(
        shots=ctx.shots, max_distance=ctx.max_distance, seed=ctx.seed,
        chunk_shots=ctx.chunk_shots,
    )
    results = ctx.run_plan(spec.experiment_id, plan)
    labels = [ablation_label(job) for job in plan.jobs]
    table = TableResult(
        experiment_id=spec.experiment_id,
        title=f"Design-choice ablations at d={plan.jobs[0].distance}",
        headers=["configuration", "LRCs/round", "FPR %", "FNR %", "LER"],
        rows=[
            [
                label,
                r.lrcs_per_round,
                100.0 * r.speculation.false_positive_rate,
                100.0 * r.speculation.false_negative_rate,
                r.logical_error_rate,
            ]
            for label, r in zip(labels, results)
        ],
        csv_name=f"{spec.experiment_id}.csv",
    )
    return _artifact(
        spec,
        tables=[table],
        notes=[
            "Axes shared with `benchmarks/bench_ablation_design_choices.py` via "
            "`repro.experiments.sweep.ablation_plan`: the LSB speculation "
            "threshold, SWAP-table backup count, and matching engine."
        ],
    )


# ----------------------------------------------------------------------
# Analytic / hardware / density-matrix summary emitters
# ----------------------------------------------------------------------
def render_transport_analytic(spec, ctx: RenderContext) -> ExperimentArtifact:
    """Equations (1) and (2): LRCs facilitate leakage transport."""
    eq1 = leakage_onto_data_without_lrc()
    eq2 = leakage_onto_parity_with_lrc()
    ratio = transport_amplification_factor()
    table = TableResult(
        experiment_id=spec.experiment_id,
        title="Equations (1)-(2): leakage transport with and without LRCs",
        headers=["quantity", "value"],
        rows=[
            ["Eq. (1)  P(L_data | L_parity), no LRC", eq1],
            ["Eq. (2)  P(L_parity | L_data), with LRC", eq2],
            ["amplification  Eq.(2) / Eq.(1)", ratio],
        ],
        csv_name=f"{spec.experiment_id}.csv",
    )
    comparisons = [
        ComparisonRow(spec.experiment_id, "Eq. (1)", "~10% (Section 3.1)", f"{100 * eq1:.2f}%", "closed form"),
        ComparisonRow(spec.experiment_id, "Eq. (2)", "~34% (Section 3.1)", f"{100 * eq2:.2f}%", "closed form"),
        ComparisonRow(spec.experiment_id, "transport amplification", "~3x (Section 3.1)", f"{ratio:.2f}x", "closed form"),
    ]
    return _artifact(
        spec,
        tables=[table],
        comparisons=comparisons,
        notes=[f"Monte-Carlo cross-check: `{spec.benchmark}`."],
    )


def render_invisible_table(spec, ctx: RenderContext) -> ExperimentArtifact:
    """Table 2: probability leaked data stays invisible for r rounds."""
    model = invisible_leakage_table(max_rounds=3)
    paper = paper_table2()
    table = TableResult(
        experiment_id=spec.experiment_id,
        title="Table 2: rounds a leaked data qubit stays invisible",
        headers=["rounds invisible", "probability % (model)", "probability % (paper)"],
        rows=[[r, value, paper.get(r, float("nan"))] for r, value in model],
        csv_name=f"{spec.experiment_id}.csv",
    )
    comparisons = [
        ComparisonRow(
            spec.experiment_id,
            f"P(invisible for {r} rounds)",
            f"{paper[r]:.2f}%",
            f"{value:.2f}%",
            "Equation (3), exact",
        )
        for r, value in model
        if r in paper
    ]
    return _artifact(spec, tables=[table], comparisons=comparisons)


def render_fpga_table(spec, ctx: RenderContext) -> ExperimentArtifact:
    """Table 3: FPGA utilisation and latency of the ERASER controller."""
    model = FpgaCostModel()
    resources = model.table([3, 5, 7, 9, 11])
    paper = FpgaCostModel.paper_table3()
    table = TableResult(
        experiment_id=spec.experiment_id,
        title=f"Table 3: ERASER on {model.device.name}",
        headers=["distance", "LUTs", "LUT %", "LUT % (paper)", "FFs", "FF %", "FF % (paper)", "latency ns"],
        rows=[
            [
                r.distance, r.luts, round(r.lut_percent, 3),
                paper.get(r.distance, {}).get("lut_percent", float("nan")),
                r.flip_flops, round(r.ff_percent, 3),
                paper.get(r.distance, {}).get("ff_percent", float("nan")),
                round(r.latency_ns, 2),
            ]
            for r in resources
        ],
        csv_name=f"{spec.experiment_id}.csv",
    )
    figure = _figure(
        ctx, spec, spec.experiment_id,
        "Modelled LUT utilisation of one ERASER instance per code distance.",
        lambda path: save_bar_figure(
            path,
            labels=[f"d={r.distance}" for r in resources],
            values=[r.lut_percent for r in resources],
            title="table3: LUT utilisation",
            xlabel="code distance",
            ylabel="LUT %",
            colors=["#2a78d6"] * len(resources),
        ),
    )
    comparisons = [
        ComparisonRow(
            spec.experiment_id,
            f"LUT % at d={r.distance}",
            f"{paper[r.distance]['lut_percent']:.2f}%",
            f"{r.lut_percent:.2f}%",
            "structural cost model",
        )
        for r in resources
        if r.distance in paper
    ]
    comparisons.append(ComparisonRow(
        spec.experiment_id, "worst-case latency", "5 ns", f"{resources[0].latency_ns:.2f} ns",
        "distance-independent critical path",
    ))
    return _artifact(spec, tables=[table], figures=[figure], comparisons=comparisons)


def render_density_study(spec, ctx: RenderContext) -> ExperimentArtifact:
    """Figure 8: density-matrix study of leakage spread across one stabilizer."""
    result = ctx.run_study(spec.experiment_id, SingleStabilizerLeakageStudy())
    rows = []
    for step, (label, leaks, correct) in enumerate(
        zip(result.labels, result.leak_probabilities, result.correct_measurement_probability)
    ):
        rows.append(
            [step, label]
            + [float(leaks[q]) for q in DATA_QUDITS]
            + [float(leaks[PARITY_QUDIT]), float(correct)]
        )
    table = TableResult(
        experiment_id=spec.experiment_id,
        title="Figure 8: per-CNOT leakage probabilities across one Z stabilizer",
        headers=["step", "label", "P(leak q0)", "P(leak q1)", "P(leak q2)", "P(leak q3)", "P(leak parity)", "P(correct)"],
        rows=rows,
        csv_name=f"{spec.experiment_id}.csv",
    )
    parity = [float(v) for v in result.parity_leak_series]
    q0 = [float(v[0]) for v in result.leak_probabilities]
    correct = [float(v) for v in result.correct_measurement_probability]
    figure = _figure(
        ctx, spec, spec.experiment_id,
        "Leakage probability of the initially leaked data qubit and the parity "
        "qubit, and the correct-measurement probability, after every CNOT.",
        lambda path: save_line_figure(
            path,
            series={"P(leak q0)": q0, "P(leak parity)": parity, "P(correct)": correct},
            x_values={name: list(range(result.num_steps)) for name in ("P(leak q0)", "P(leak parity)", "P(correct)")},
            title="fig8: leakage spread across one stabilizer",
            xlabel="recorded step",
            ylabel="probability",
        ),
    )
    comparisons = [
        ComparisonRow(
            spec.experiment_id,
            "peak P(leak parity) during the LRC round",
            "LRC transports leakage onto the parity qubit (Section 3.3)",
            f"{max(parity):.3f}",
            "density-matrix simulation",
        )
    ]
    return _artifact(spec, tables=[table], figures=[figure], comparisons=comparisons)


#: Renderer styles wired into the registry (one per experiment shape).
RENDERERS: Dict[str, Callable[..., ExperimentArtifact]] = {
    "ler_vs_distance": render_ler_vs_distance,
    "ler_vs_cycles": render_ler_vs_cycles,
    "ler_vs_profile": render_ler_vs_profile,
    "lpr_time_series": render_lpr_time_series,
    "speculation": render_speculation,
    "lrc_counts": render_lrc_counts,
    "ablations": render_ablations,
    "transport_analytic": render_transport_analytic,
    "invisible_table": render_invisible_table,
    "fpga_table": render_fpga_table,
    "density_study": render_density_study,
}


def get_renderer(style: str) -> Callable[..., ExperimentArtifact]:
    """Look up a renderer style by name (raises KeyError with the known set)."""
    if style not in RENDERERS:
        raise KeyError(f"unknown renderer style {style!r}; known: {', '.join(sorted(RENDERERS))}")
    return RENDERERS[style]
