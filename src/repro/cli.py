"""Command-line front-end for the ERASER reproduction.

Mirrors the workflow of the paper's artifact: one subcommand per experiment
family, each printing the table of numbers behind the corresponding figure.

Examples::

    eraser-repro ler --distances 3 5 --shots 100
    eraser-repro ler --distances 3 5 7 --jobs 4 --cache-dir sweep-cache/
    eraser-repro lpr --distance 5 --cycles 10 --shots 50
    eraser-repro speculation --distance 5
    eraser-repro table2
    eraser-repro fpga
    eraser-repro rtl --distance 5 --output eraser_d5.sv
    eraser-repro dm-study
    eraser-repro experiments
    eraser-repro experiments run fig14 --jobs 4 --cache-dir sweep-cache/
    eraser-repro report --quick --jobs 4 --cache-dir sweep-cache/
    eraser-repro serve --workers 4 --cache-dir sweep-cache/
    eraser-repro submit fig14 --seed 7 --service-url http://127.0.0.1:7917

``report`` renders every figure and table of the paper into ``report/``
(``index.md`` + CSV, and PNG when the optional ``[report]`` extra installs
matplotlib), with a paper-vs-reproduced comparison table.

Every Monte-Carlo sweep accepts ``--jobs N`` (parallel workers; statistics
are identical to the serial run), ``--cache-dir DIR`` (content-addressed
result cache — rerunning a cached configuration performs no simulation) and
``--resume`` (reuse the default cache directory so an interrupted sweep
continues where it stopped).

``serve`` starts the resident sweep service (:mod:`repro.service`): a
supervised worker pool with a shared sharded result cache and live
telemetry.  ``submit`` sends any registered experiment's sweep plan to that
service and waits for the (bit-identical) results; ``report
--service-url URL`` renders the whole report through it.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.analytic import (
    invisible_leakage_table,
    leakage_onto_data_without_lrc,
    leakage_onto_parity_with_lrc,
)
from repro.analysis.tables import format_table, series_table
from repro.densitymatrix.study import SingleStabilizerLeakageStudy
from repro.decoder.artifacts import default_artifact_dir
from repro.dqlr.protocol import run_dqlr_comparison
from repro.experiments.executor import SweepExecutor
from repro.experiments.memory import ENGINES
from repro.experiments.registry import format_experiment_index, get_experiment
from repro.experiments.results import PolicySweepResult
from repro.experiments.store import DEFAULT_SERVICE_SHARDS, default_cache_dir
from repro.experiments.sweep import compare_policies, lpr_time_series
from repro.codes import CODE_FAMILIES
from repro.hardware.cost_model import FpgaCostModel
from repro.hardware.rtl_gen import generate_eraser_rtl
from repro.noise.leakage import LeakageTransportModel


def _add_common_sweep_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--distances", type=int, nargs="+", default=[3, 5])
    parser.add_argument(
        "--policies",
        nargs="+",
        default=["always-lrc", "eraser", "eraser+m", "optimal"],
    )
    parser.add_argument("--p", type=float, default=1e-3)
    parser.add_argument("--cycles", type=int, default=10)
    parser.add_argument("--shots", type=int, default=100)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--transport",
        choices=["remain", "exchange"],
        default="remain",
        help="Leakage transport model (main text vs Appendix A.1).",
    )
    parser.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="auto",
        help="Monte-Carlo engine: bit-packed words (64 shots per word) or "
        "the scalar reference loop (auto picks packed).",
    )
    parser.add_argument(
        "--code-family",
        choices=list(CODE_FAMILIES),
        default="rotated-surface",
        help="Code substrate the memory experiment runs on.",
    )
    parser.add_argument(
        "--noise-profile",
        type=str,
        default=None,
        metavar="SPEC",
        help="Noise profile modulating the uniform error model, e.g. "
        "'biased:eta=4', 'heterogeneous:seed=7,spread=0.5', or "
        "'hot-spot:indices=0+3,factor=8' (default: uniform).",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="Shots simulated together per packed-engine batch "
        "(default 16384; ignored by the scalar engine).",
    )
    _add_orchestration_args(parser)


def _add_orchestration_args(parser: argparse.ArgumentParser) -> None:
    """Sweep-executor knobs shared by every Monte-Carlo subcommand."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="Worker processes for the sweep (1 = in-process; statistics are "
        "identical to the serial run for the same seed).",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="Content-addressed result cache; configurations already stored "
        "there are loaded instead of re-simulated.",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="Reuse the default cache directory (.eraser-repro-cache) so an "
        "interrupted sweep continues from the results already on disk.",
    )
    parser.add_argument(
        "--chunk-shots",
        type=int,
        default=None,
        help="Shots per scheduled work chunk (default 256); smaller chunks "
        "spread one large configuration across more workers.",
    )
    parser.add_argument(
        "--decoder-artifact-dir",
        type=str,
        default=default_artifact_dir(),
        help="Persistent decoder-artifact store: decoding-graph shortest-path "
        "tables (and the syndrome->correction LRU) are saved here once and "
        "mmap-loaded by every process, so repeat runs and pool workers start "
        "warm.  Tuning knob only: corrections are bit-identical with or "
        "without it.  Defaults to $ERASER_REPRO_DECODER_ARTIFACT_DIR.",
    )


def _add_adaptive_args(parser: argparse.ArgumentParser) -> None:
    """Sequential stopping-rule knobs (sweeps that decode)."""
    parser.add_argument(
        "--target-ci-width",
        type=float,
        default=None,
        metavar="HW",
        help="Adaptive shot allocation: keep simulating each decode "
        "configuration only until the 95%% Wilson interval on its LER has "
        "half-width <= HW, then stop it early and drain the remaining "
        "budget to still-loose configurations.  Perf-only: a stopped job's "
        "result is bit-identical to a fixed run of the prefix it executed.",
    )
    parser.add_argument(
        "--max-shots",
        type=int,
        default=None,
        help="Per-configuration shot budget ceiling (overrides --shots). "
        "Intended with --target-ci-width: set a generous ceiling and let "
        "the stopping rule spend only what each configuration needs.",
    )


def _adaptive_config(args: argparse.Namespace):
    """The AdaptiveConfig requested by --target-ci-width (None = fixed)."""
    if getattr(args, "target_ci_width", None) is None:
        return None
    from repro.experiments.adaptive import AdaptiveConfig

    return AdaptiveConfig(target_ci_halfwidth=args.target_ci_width)


def _budget_shots(args: argparse.Namespace) -> int:
    """The per-configuration shot budget (--max-shots overrides --shots)."""
    if getattr(args, "max_shots", None) is not None:
        return args.max_shots
    return args.shots


def _sweep_options(args: argparse.Namespace) -> dict:
    return dict(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        resume=args.resume,
        chunk_shots=args.chunk_shots,
        decoder_artifact_dir=args.decoder_artifact_dir,
    )


def _scenario_options(args: argparse.Namespace) -> dict:
    """The scenario-diversity knobs shared by every Monte-Carlo subcommand."""
    return dict(
        code_family=args.code_family,
        noise_profile=args.noise_profile,
    )


def _transport(name: str) -> LeakageTransportModel:
    return LeakageTransportModel(name)


def _cmd_ler(args: argparse.Namespace) -> int:
    sweep = compare_policies(
        distances=args.distances,
        policies=args.policies,
        p=args.p,
        cycles=args.cycles,
        shots=_budget_shots(args),
        adaptive=_adaptive_config(args),
        transport_model=_transport(args.transport),
        seed=args.seed,
        engine=args.engine,
        batch_size=args.batch_size,
        **_scenario_options(args),
        **_sweep_options(args),
    )
    print(sweep.format_table())
    print()
    print(series_table(sweep.ler_table(), x_label="distance"))
    return 0


def _cmd_lpr(args: argparse.Namespace) -> int:
    series = lpr_time_series(
        distance=args.distance,
        policies=args.policies,
        p=args.p,
        cycles=args.cycles,
        shots=args.shots,
        transport_model=_transport(args.transport),
        seed=args.seed,
        engine=args.engine,
        batch_size=args.batch_size,
        **_scenario_options(args),
        **_sweep_options(args),
    )
    headers = ["round"] + list(series.keys())
    rows = []
    num_rounds = len(next(iter(series.values())))
    for r in range(num_rounds):
        rows.append([r] + [float(series[name][r]) for name in series])
    print(format_table(headers, rows, float_format="{:.5f}"))
    return 0


def _cmd_speculation(args: argparse.Namespace) -> int:
    sweep = compare_policies(
        distances=[args.distance],
        policies=args.policies,
        p=args.p,
        cycles=args.cycles,
        shots=args.shots,
        decode=False,
        seed=args.seed,
        engine=args.engine,
        batch_size=args.batch_size,
        **_scenario_options(args),
        **_sweep_options(args),
    )
    rows = []
    for result in sweep:
        rows.append(
            [
                result.policy,
                100.0 * result.speculation.accuracy,
                100.0 * result.speculation.false_positive_rate,
                100.0 * result.speculation.false_negative_rate,
                result.lrcs_per_round,
            ]
        )
    print(format_table(["policy", "accuracy %", "FPR %", "FNR %", "LRCs/round"], rows))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    rows = [(r, p) for r, p in invisible_leakage_table(max_rounds=3)]
    print(format_table(["rounds invisible", "probability %"], rows))
    print()
    print(f"Eq. (1)  P(L_data | L_parity) = {leakage_onto_data_without_lrc():.4f}")
    print(f"Eq. (2)  P(L_parity | L_data) = {leakage_onto_parity_with_lrc():.4f}")
    return 0


def _cmd_fpga(args: argparse.Namespace) -> int:
    model = FpgaCostModel()
    rows = []
    for resources in model.table(args.distances):
        row = resources.to_row()
        rows.append(
            [
                row["distance"],
                row["luts"],
                row["lut_percent"],
                row["flip_flops"],
                row["ff_percent"],
                row["latency_ns"],
            ]
        )
    print(format_table(["d", "LUTs", "LUT %", "FFs", "FF %", "latency ns"], rows))
    return 0


def _cmd_rtl(args: argparse.Namespace) -> int:
    rtl = generate_eraser_rtl(args.distance, multilevel=args.multilevel)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rtl)
        print(f"wrote {args.output} ({len(rtl.splitlines())} lines)")
    else:
        print(rtl)
    return 0


def _cmd_dm_study(args: argparse.Namespace) -> int:
    study = SingleStabilizerLeakageStudy()
    print(study.summary())
    return 0


def _cmd_rare_event(args: argparse.Namespace) -> int:
    """Rare-event LER estimation for the deep low-``p`` tail."""
    from repro.experiments.adaptive import RareEventSampler, cross_check

    sampler = RareEventSampler(
        distance=args.distance,
        rounds=args.rounds if args.rounds is not None else args.distance,
        p=args.p,
        decoder_method=args.decoder_method,
    )
    print(
        f"rare-event model: d={sampler.distance}, rounds={sampler.rounds}, "
        f"p={sampler.p:g}, {sampler.num_cells} error cells, "
        f"conditioning on >= {sampler.min_events} events"
    )
    headers = ["method", "ler", "ci_low", "ci_high", "shots", "failures", "weight"]
    if args.cross_check:
        report = cross_check(
            sampler,
            direct_shots=args.direct_shots,
            conditioned_shots=args.shots,
            seed=args.seed if args.seed is not None else 0,
        )
        rows = [
            [
                est["method"],
                est["ler"],
                est["ci_low"],
                est["ci_high"],
                est["shots"],
                est["failures"],
                est["weight"],
            ]
            for est in (report["direct"], report["conditioned"])
        ]
        print(format_table(headers, rows, float_format="{:.3e}"))
        print()
        print(f"Wilson intervals overlap: {report['overlap']}")
        return 0 if report["overlap"] else 1
    estimator = getattr(sampler, args.method)
    est = estimator(args.shots, seed=args.seed if args.seed is not None else 0)
    rows = [[est.method, est.ler, est.ci_low, est.ci_high, est.shots, est.failures, est.weight]]
    print(format_table(headers, rows, float_format="{:.3e}"))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.action == "list":
        print(format_experiment_index())
        return 0
    if not args.experiment_id:
        print("experiments run requires an experiment id (e.g. fig14)")
        return 2
    try:
        spec = get_experiment(args.experiment_id)
    except KeyError as error:
        print(error.args[0])
        return 2
    if not spec.has_plan:
        print(
            f"{spec.experiment_id} is not a Monte-Carlo sweep; regenerate it "
            f"with its benchmark instead:\n"
            f"  PYTHONPATH=src python -m pytest -s {spec.benchmark}"
        )
        return 1
    plan = spec.make_plan(
        shots=_budget_shots(args),
        max_distance=args.max_distance,
        seed=args.seed,
        chunk_shots=args.chunk_shots,
    )
    if args.seed is None and (args.cache_dir or args.resume):
        print(
            "note: caching without --seed cannot be reused by later "
            "invocations (each run draws fresh entropy); pass --seed to make "
            "the cache and --resume effective"
        )
    executor = SweepExecutor(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        resume=args.resume,
        decoder_artifact_dir=args.decoder_artifact_dir,
        adaptive=_adaptive_config(args),
    )
    results = executor.run(plan)
    sweep = PolicySweepResult(list(results))
    print(f"{spec.experiment_id}: {spec.title}")
    print()
    print(sweep.format_table())
    decoded = [result for result in results if result.logical_errors >= 0]
    # ler_table() keys by (policy, distance); only print it when that view is
    # faithful (grids that also vary cycles or leakage would collapse rows).
    if decoded and len({(r.policy, r.distance) for r in decoded}) == len(decoded):
        print()
        print(series_table(sweep.ler_table(), x_label="distance"))
    print()
    print(executor.last_stats.summary())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.service.server import serve_forever

    journal_dir = None
    if not args.no_journal:
        journal_dir = args.journal_dir or os.path.join(args.cache_dir, "journal")
    try:
        serve_forever(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            shards=args.shards,
            workers=args.workers,
            decoder_artifact_dir=args.decoder_artifact_dir,
            address_file=args.address_file,
            journal_dir=journal_dir,
            max_pending_submissions=args.max_pending_submissions,
            max_inflight_chunks=args.max_inflight_chunks,
            retry_after=args.retry_after,
        )
    except RuntimeError as error:  # e.g. a live pidfile: refuse to double-start
        print(f"error: {error}")
        return 1
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError, SweepServiceClient

    try:
        spec = get_experiment(args.experiment_id)
    except KeyError as error:
        print(error.args[0])
        return 2
    if not spec.has_plan:
        print(f"{spec.experiment_id} is not a Monte-Carlo sweep; nothing to submit")
        return 1
    plan = spec.make_plan(
        shots=args.shots,
        max_distance=args.max_distance,
        seed=args.seed,
        chunk_shots=args.chunk_shots,
    )
    client = SweepServiceClient(
        args.service_url, timeout=args.timeout, retries=args.retries
    )
    try:
        job_id = client.submit(plan, submission_key=args.submission_key)
        print(f"submitted {spec.experiment_id} as {job_id}")
        if args.no_wait:
            return 0
        client.wait(job_id, poll=args.poll)
        results, stats = client.results(job_id)
    except ServiceError as error:
        print(f"error: {error}")
        return 1
    sweep = PolicySweepResult(list(results))
    print()
    print(sweep.format_table())
    print()
    print(stats.summary())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import QUICK_MAX_DISTANCE, QUICK_SHOTS, ReportBuilder

    shots = args.shots if args.shots is not None else (QUICK_SHOTS if args.quick else 200)
    max_distance = args.max_distance if args.max_distance is not None else (
        QUICK_MAX_DISTANCE if args.quick else 5
    )
    try:
        builder = ReportBuilder(
            ids=args.ids,
            output_dir=args.output_dir,
            shots=shots,
            max_distance=max_distance,
            seed=args.seed,
            chunk_shots=args.chunk_shots,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            resume=args.resume,
            decoder_artifact_dir=args.decoder_artifact_dir,
            figures=not args.no_figures,
            service_url=args.service_url,
        )
    except KeyError as error:
        print(error.args[0])
        return 2
    result = builder.build()
    print(result.summary())
    return 0


def _cmd_dqlr(args: argparse.Namespace) -> int:
    sweep = run_dqlr_comparison(
        distances=args.distances,
        p=args.p,
        cycles=args.cycles,
        shots=args.shots,
        seed=args.seed,
        engine=args.engine,
        batch_size=args.batch_size,
        **_scenario_options(args),
        **_sweep_options(args),
    )
    print(sweep.format_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eraser-repro",
        description="Reproduce the experiments of the ERASER paper (MICRO 2023).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    ler = subparsers.add_parser("ler", help="LER vs distance (Figures 14/17)")
    _add_common_sweep_args(ler)
    _add_adaptive_args(ler)
    ler.set_defaults(func=_cmd_ler)

    lpr = subparsers.add_parser("lpr", help="LPR time series (Figures 5/15/18)")
    _add_common_sweep_args(lpr)
    lpr.add_argument("--distance", type=int, default=7)
    lpr.set_defaults(func=_cmd_lpr)

    spec = subparsers.add_parser("speculation", help="Speculation accuracy (Figure 16, Table 4)")
    _add_common_sweep_args(spec)
    spec.add_argument("--distance", type=int, default=5)
    spec.set_defaults(func=_cmd_speculation)

    table2 = subparsers.add_parser("table2", help="Analytic models (Table 2, Eqs. 1-2)")
    table2.set_defaults(func=_cmd_table2)

    fpga = subparsers.add_parser("fpga", help="FPGA cost model (Table 3)")
    fpga.add_argument("--distances", type=int, nargs="+", default=[3, 5, 7, 9, 11])
    fpga.set_defaults(func=_cmd_fpga)

    rtl = subparsers.add_parser("rtl", help="Generate ERASER SystemVerilog")
    rtl.add_argument("--distance", type=int, default=9)
    rtl.add_argument("--multilevel", action="store_true")
    rtl.add_argument("--output", type=str, default=None)
    rtl.set_defaults(func=_cmd_rtl)

    dm = subparsers.add_parser("dm-study", help="Density-matrix stabilizer study (Figure 8)")
    dm.set_defaults(func=_cmd_dm_study)

    dqlr = subparsers.add_parser("dqlr", help="DQLR comparison (Figures 20/21)")
    _add_common_sweep_args(dqlr)
    dqlr.set_defaults(func=_cmd_dqlr)

    experiments = subparsers.add_parser(
        "experiments",
        help="List every paper table/figure, or run one as a parallel cached sweep",
    )
    experiments.add_argument(
        "action",
        nargs="?",
        choices=["list", "run"],
        default="list",
        help="'list' prints the index; 'run' executes an experiment's sweep plan.",
    )
    experiments.add_argument(
        "experiment_id",
        nargs="?",
        default=None,
        help="Experiment to run (e.g. fig14); see 'experiments list'.",
    )
    experiments.add_argument("--shots", type=int, default=200)
    experiments.add_argument("--max-distance", type=int, default=5)
    experiments.add_argument("--seed", type=int, default=None)
    _add_orchestration_args(experiments)
    _add_adaptive_args(experiments)
    experiments.set_defaults(func=_cmd_experiments)

    rare = subparsers.add_parser(
        "rare-event",
        help="Rare-event LER estimation (importance sampling / multilevel "
        "splitting) for the deep low-p tail",
    )
    rare.add_argument("--distance", type=int, default=3)
    rare.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="Syndrome-extraction rounds (default: --distance).",
    )
    rare.add_argument("--p", type=float, default=1e-4)
    rare.add_argument("--shots", type=int, default=20000)
    rare.add_argument("--seed", type=int, default=0)
    rare.add_argument(
        "--method",
        choices=["direct", "conditioned", "stratified"],
        default="conditioned",
        help="Estimator: plain Monte-Carlo, importance sampling conditioned "
        "on >= (d+1)//2 error events, or exact-count multilevel splitting.",
    )
    rare.add_argument(
        "--decoder-method",
        choices=["mwpm", "greedy"],
        default="mwpm",
        help="Matching engine (mwpm keeps the conditioned estimator exactly "
        "unbiased: every discarded low-count shot is a guaranteed success).",
    )
    rare.add_argument(
        "--cross-check",
        action="store_true",
        help="Run direct and conditioned estimators side by side and exit "
        "nonzero unless their Wilson intervals overlap (run at a p where "
        "direct sampling still resolves the LER).",
    )
    rare.add_argument(
        "--direct-shots",
        type=int,
        default=20000,
        help="Shots for the direct estimator in --cross-check mode.",
    )
    rare.set_defaults(func=_cmd_rare_event)

    report = subparsers.add_parser(
        "report",
        help="Render the full reproduction report (every figure/table) to report/",
    )
    report.add_argument(
        "--ids",
        nargs="+",
        default=None,
        help="Subset of experiment ids to render (default: the whole registry).",
    )
    report.add_argument(
        "--shots",
        type=int,
        default=None,
        help="Monte-Carlo shots per configuration (default 200; 40 with --quick).",
    )
    report.add_argument(
        "--max-distance",
        type=int,
        default=None,
        help="Largest code distance in the sweeps (default 5; 3 with --quick).",
    )
    report.add_argument(
        "--seed",
        type=int,
        default=1234,
        help="Root seed; fixed by default so rerenders hit the result cache.",
    )
    report.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized report: fewer shots, d=3 only (same artifact structure).",
    )
    report.add_argument(
        "--output-dir",
        type=str,
        default="report",
        help="Directory the report tree (index.md, CSV, PNG) is written to.",
    )
    report.add_argument(
        "--no-figures",
        action="store_true",
        help="Skip PNG rendering even when matplotlib is installed.",
    )
    report.add_argument(
        "--service-url",
        type=str,
        default=None,
        help="Run every sweep through a running 'eraser-repro serve' instance "
        "at this URL instead of executing in-process.",
    )
    _add_orchestration_args(report)
    report.set_defaults(func=_cmd_report)

    serve = subparsers.add_parser(
        "serve",
        help="Run the resident sweep service (async scheduler + HTTP API + telemetry)",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=7917,
        help="Port to listen on (0 = pick a free port and print it).",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="Supervised worker processes executing sweep chunks.",
    )
    serve.add_argument(
        "--cache-dir",
        type=str,
        default=default_cache_dir(),
        help="Sharded content-addressed result store shared by every "
        "submission (flat-layout entries are migrated into shards on start).",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=DEFAULT_SERVICE_SHARDS,
        help="Shard directories for the result store (existing stores keep "
        "their recorded shard count).",
    )
    serve.add_argument(
        "--decoder-artifact-dir",
        type=str,
        default=default_artifact_dir(),
        help="Persistent decoder-artifact store inherited by every submitted "
        "job (see the sweep subcommands' flag of the same name).",
    )
    serve.add_argument(
        "--address-file",
        type=str,
        default=None,
        help="Write the bound URL here once listening (useful with --port 0); "
        "a PID file is written next to it.",
    )
    serve.add_argument(
        "--journal-dir",
        type=str,
        default=None,
        help="Durable submission-journal directory (default: <cache-dir>/journal). "
        "A serve killed mid-sweep replays it on restart and resumes live "
        "submissions without re-executing completed chunks.",
    )
    serve.add_argument(
        "--no-journal",
        action="store_true",
        help="Run without the submission journal (no crash recovery).",
    )
    serve.add_argument(
        "--max-pending-submissions",
        type=int,
        default=None,
        help="Admission control: reject new submissions (HTTP 429 + Retry-After) "
        "while this many are already active.",
    )
    serve.add_argument(
        "--max-inflight-chunks",
        type=int,
        default=None,
        help="Admission control: reject new submissions while the active "
        "submissions' unfinished chunks number at least this many.",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=0.5,
        help="Retry-After hint (seconds) sent with saturation/draining "
        "rejections.",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = subparsers.add_parser(
        "submit",
        help="Submit a registered experiment's sweep plan to a running service",
    )
    submit.add_argument(
        "experiment_id",
        help="Experiment to run (e.g. fig14); see 'experiments list'.",
    )
    submit.add_argument("--shots", type=int, default=200)
    submit.add_argument("--max-distance", type=int, default=5)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--chunk-shots", type=int, default=None)
    submit.add_argument(
        "--service-url",
        type=str,
        default=None,
        help="Service base URL (default $ERASER_REPRO_SERVICE_URL or "
        "http://127.0.0.1:7917).",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="Per-request HTTP timeout in seconds.",
    )
    submit.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="Status poll interval while waiting, in seconds.",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="Print the submission id and return without waiting for results.",
    )
    submit.add_argument(
        "--retries",
        type=int,
        default=3,
        help="Client-side retry budget for connection errors/5xx/429 "
        "(jittered exponential backoff, honors Retry-After).",
    )
    submit.add_argument(
        "--submission-key",
        type=str,
        default=None,
        help="Explicit idempotency key; a retried submit with the same key "
        "dedupes onto the existing submission (default: a fresh random key "
        "per invocation).",
    )
    submit.set_defaults(func=_cmd_submit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
