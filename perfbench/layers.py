"""What the traced run wraps, and how spans become per-layer metrics.

Every layer below is timed from outside by wrapping the program's functions
(see :mod:`tracer`).  The comment on each group says which end-to-end metric
the layer should move, and on which workload; ``README.md`` has the table.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List

from tracer import LayerTimes, Target

_SIMULATORS = (
    ("repro.sim.batched_frame_simulator", "BatchedLeakageFrameSimulator"),
    ("repro.sim.packed_frame_simulator", "PackedLeakageFrameSimulator"),
)
_LRC_KERNELS = (
    "swap_instances",
    "lrc_finalize_instances",
    "leak_iswap_instances",
    "reset_instances",
    "measure_reset_masked",
)


def _sim_targets() -> List[Target]:
    targets = [
        Target("sim.run", "repro.sim.frame_simulator", "LeakageFrameSimulator.run"),
        Target("sim.other", "repro.sim.frame_simulator", "LeakageFrameSimulator.__init__"),
    ]
    for module, cls in _SIMULATORS:
        targets.append(Target("sim.run", module, f"{cls}.run"))
        targets += [Target("sim.lrc", module, f"{cls}.{name}") for name in _LRC_KERNELS]
        targets += [
            Target("sim.other", module, f"{cls}.{name}")
            for name in ("__init__", "leaked_at", "leaked_fraction")
        ]
    return targets


#: Every wrapped function.  Span names are ``<layer>.<part>``.
TARGETS: List[Target] = _sim_targets() + [
    # core.policies: moves shots_per_s on fig14-grid (always-lrc vs eraser).
    Target("policy.decide", "repro.core.policies.base", "LrcPolicy.decide_batch", True),
    Target("policy.decide", "repro.core.policies.base", "LrcPolicy.decide", True),
    # decoder: match moves shots_per_s on fig14-grid; setup moves wall_s on
    # report-quick; exact_frac moves ler_excess.
    Target("decoder.setup", "repro.decoder.decoder", "SurfaceCodeDecoder.__post_init__"),
    Target("decoder.graph_build", "repro.decoder.graph", "DecodingGraph.__post_init__"),
    Target("decoder.tables", "repro.decoder.matching", "_all_pairs"),
    Target("decoder.tables", "repro.decoder.matching", "_frame_parity_table"),
    Target("decoder.detectors", "repro.decoder.decoder", "SurfaceCodeDecoder.build_detectors_batch"),
    Target("decoder.dispatch", "repro.decoder.decoder", "SurfaceCodeDecoder.decode_batch"),
    Target("decoder.match", "repro.decoder.matching", "_BaseMatcher.decode_nodes", True),
    # experiments.memory: harness time outside sim, policy and decoder.
    Target("memory.run", "repro.experiments.memory", "MemoryExperiment.run"),
    # experiments.executor / jobs: chunk_setup moves wall_s on report-quick.
    Target("executor.run", "repro.experiments.executor", "SweepExecutor.run"),
    Target("executor.chunk", "repro.experiments.jobs", "SweepJob.run_chunk"),
    Target("executor.chunk_setup", "repro.experiments.jobs", "SweepJob.build_experiment"),
    Target("executor.merge", "repro.experiments.jobs", "merge_chunk_results"),
    # experiments.store: wall_s / warm_wall_s on report-quick, warm_wall_s on
    # service-loop.
    Target("store.save", "repro.experiments.store", "ResultStore.save"),
    Target("store.load", "repro.experiments.store", "ResultStore.load"),
    Target("store.save", "repro.experiments.store", "InMemoryResultStore.save"),
    Target("store.load", "repro.experiments.store", "InMemoryResultStore.load"),
    # report / densitymatrix: report-quick only.
    Target("report.build", "repro.report.builder", "ReportBuilder.build"),
    Target("report.render", "repro.experiments.registry", "ExperimentSpec.render_artifact"),
    Target("report.write", "repro.report.index", "build_index_markdown"),
    Target("report.write", "repro.report.artifacts", "TableResult.to_csv"),
    Target("densitymatrix.run", "repro.densitymatrix.study", "SingleStabilizerLeakageStudy.run"),
    # service (client side): wall_s / warm_wall_s on service-loop only.
    Target("service.submit", "repro.service.client", "SweepServiceClient.submit"),
    Target("service.wait", "repro.service.client", "SweepServiceClient.wait"),
    Target("service.poll", "repro.service.client", "SweepServiceClient.status"),
    Target("service.results", "repro.service.client", "SweepServiceClient.results"),
    Target("service.http", "repro.service.client", "SweepServiceClient._request_once"),
]

#: Layer groups for the ``share.*`` split: span-name prefix -> group.
GROUPS = ("sim", "policy", "decoder", "memory", "executor", "store", "report",
          "densitymatrix", "service")

_LOWER, _HIGHER = "lower", "higher"

#: Every per-layer metric: (name, unit, better).  A traced run reports all of
#: them on every workload; a layer a workload does not touch reads 0.
METRICS: List[tuple] = [
    ("sim.run_s", "s", _LOWER),
    ("sim.lrc_kernels_s", "s", _LOWER),
    ("sim.other_s", "s", _LOWER),
    ("sim.shot_rounds", "count", _LOWER),
    ("sim.lrc_instances", "count", _LOWER),
    ("sim.ns_per_shot_round", "ns", _LOWER),
    ("policy.decide_s", "s", _LOWER),
    ("policy.calls", "count", _LOWER),
    ("policy.lrcs_per_round", "count", _LOWER),
    ("decoder.setup_s", "s", _LOWER),
    ("decoder.detectors_s", "s", _LOWER),
    ("decoder.dispatch_s", "s", _LOWER),
    ("decoder.match_s", "s", _LOWER),
    ("decoder.match_ms_per_syndrome", "ms", _LOWER),
    ("decoder.shots", "count", _LOWER),
    ("decoder.empty", "count", _HIGHER),
    ("decoder.dedup_hits", "count", _HIGHER),
    ("decoder.cache_hits", "count", _HIGHER),
    ("decoder.matched", "count", _LOWER),
    ("decoder.graph_builds", "count", _LOWER),
    ("decoder.reuse_frac", "ratio", _HIGHER),
    ("decoder.exact_frac", "ratio", _HIGHER),
    ("ler_excess", "ratio", _LOWER),
    ("memory.self_s", "s", _LOWER),
    ("executor.chunks", "count", _LOWER),
    ("executor.chunk_s.p50", "s", _LOWER),
    ("executor.chunk_s.max", "s", _LOWER),
    ("executor.chunk_setup_s", "s", _LOWER),
    ("executor.merge_s", "s", _LOWER),
    ("executor.self_s", "s", _LOWER),
    ("store.saves", "count", _LOWER),
    ("store.loads", "count", _LOWER),
    ("store.hits", "count", _HIGHER),
    ("store.save_s", "s", _LOWER),
    ("store.load_s", "s", _LOWER),
    ("adaptive.shots_executed", "count", _LOWER),
    ("adaptive.chunks_executed", "count", _LOWER),
    ("adaptive.chunks_skipped", "count", _HIGHER),
    ("adaptive.jobs_stopped_early", "count", _HIGHER),
    ("adaptive.useful_chunk_frac", "ratio", _HIGHER),
    ("report.render_s", "s", _LOWER),
    ("densitymatrix.s", "s", _LOWER),
    ("report.write_s", "s", _LOWER),
    ("service.submit_s.p50", "s", _LOWER),
    ("service.results_s.p50", "s", _LOWER),
    ("service.polls_per_submission", "count", _LOWER),
    ("service.chunk_s", "s", _LOWER),
    ("service.overhead_s.p50", "s", _LOWER),
    ("service.http_requests", "count", _LOWER),
    ("service.client_retries", "count", _LOWER),
    ("service.rejected", "count", _LOWER),
    ("submit_to_results_s.p90", "s", _LOWER),
    ("cached_submit_to_results_s.p90", "s", _LOWER),
] + [(f"share.{group}", "ratio", _LOWER) for group in GROUPS] + [
    ("trace.overhead_frac", "ratio", _LOWER),
    ("trace.coverage_frac", "ratio", _HIGHER),
    ("trace.missing_targets", "count", _LOWER),
    ("failed_ops_frac", "ratio", _LOWER),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def derive(times: LayerTimes, counts: Dict[str, float], wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from its spans and counters."""
    own = times.self_time
    chunk_durations = times.durations.get("executor.chunk", [])
    sim_s = own["sim.run"] + own["sim.lrc"] + own["sim.other"]
    shot_rounds = counts.get("sim.shot_rounds", 0.0)
    matched = counts.get("decoder.matched", 0.0)
    nonempty = counts.get("decoder.shots", 0.0) - counts.get("decoder.empty", 0.0)
    reused = counts.get("decoder.dedup_hits", 0.0) + counts.get("decoder.cache_hits", 0.0)
    metrics = {
        "sim.run_s": own["sim.run"],
        "sim.lrc_kernels_s": own["sim.lrc"],
        "sim.other_s": own["sim.other"],
        "sim.shot_rounds": shot_rounds,
        "sim.lrc_instances": counts.get("sim.lrc_instances", 0.0),
        "sim.ns_per_shot_round": _ratio(sim_s * 1e9, shot_rounds),
        "policy.decide_s": own["policy.decide"],
        "policy.calls": times.count["policy.decide"],
        "policy.lrcs_per_round": _ratio(counts.get("sim.lrc_instances", 0.0), shot_rounds),
        "decoder.setup_s": own["decoder.setup"] + own["decoder.graph_build"] + own["decoder.tables"],
        "decoder.detectors_s": own["decoder.detectors"],
        "decoder.dispatch_s": own["decoder.dispatch"],
        "decoder.match_s": own["decoder.match"],
        "decoder.match_ms_per_syndrome": _ratio(own["decoder.match"] * 1e3, matched),
        "decoder.graph_builds": times.count["decoder.graph_build"],
        "decoder.reuse_frac": _ratio(reused, nonempty),
        "decoder.exact_frac": _ratio(matched - counts.get("decoder.approximate", 0.0), matched),
        "memory.self_s": own["memory.run"],
        "executor.chunks": len(chunk_durations),
        "executor.chunk_s.p50": statistics.median(chunk_durations) if chunk_durations else 0.0,
        "executor.chunk_s.max": max(chunk_durations, default=0.0),
        "executor.chunk_setup_s": own["executor.chunk_setup"],
        "executor.merge_s": own["executor.merge"],
        "executor.self_s": own["executor.run"] + own["executor.chunk"],
        "store.saves": times.count["store.save"],
        "store.loads": times.count["store.load"],
        "store.hits": counts.get("store.hits", 0.0),
        "store.save_s": own["store.save"],
        "store.load_s": own["store.load"],
        "report.render_s": own["report.render"],
        "densitymatrix.s": own["densitymatrix.run"],
        "report.write_s": own["report.build"] + own["report.write"],
        "service.submit_s.p50": percentile(times.durations.get("service.submit", []), 0.5),
        "service.results_s.p50": percentile(times.durations.get("service.results", []), 0.5),
        "service.http_requests": times.count["service.http"],
        "service.polls_per_submission": _ratio(times.count["service.poll"], times.count["service.submit"]),
        "trace.coverage_frac": _ratio(times.top_level, wall),
    }
    for key in ("shots", "empty", "dedup_hits", "cache_hits", "matched"):
        metrics[f"decoder.{key}"] = counts.get(f"decoder.{key}", 0.0)
    for group in GROUPS:
        busy = sum(t for name, t in times.main_self.items() if name.split(".")[0] == group)
        metrics[f"share.{group}"] = _ratio(busy, wall)
    return metrics


def install_counters(tracer) -> None:
    """Counters read where the work happens, off the spans' return values."""
    counts = tracer.counts

    def chunk_done(args, result) -> None:
        shot_rounds = result.shots * result.rounds
        counts["sim.shot_rounds"] += shot_rounds
        counts["sim.lrc_instances"] += round(result.lrcs_per_round * shot_rounds)
        counts["executor.chunk_shots"] += result.shots

    def experiment_done(args, result) -> None:
        decoder = getattr(args[0], "decoder", None)
        if decoder is None:
            return
        for key, value in decoder.stats.as_dict().items():
            counts[f"decoder.{key}"] += value
        matcher_stats = getattr(getattr(decoder, "_matcher", None), "stats", None) or {}
        counts["decoder.approximate"] += matcher_stats.get("greedy", 0)

    def store_loaded(args, result) -> None:
        counts["store.hits"] += result is not None

    tracer.observe("executor.chunk", chunk_done)
    tracer.observe("memory.run", experiment_done)
    tracer.observe("store.load", store_loaded)
