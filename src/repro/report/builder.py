"""The one-command reproduction-report pipeline (``eraser-repro report``).

:class:`ReportBuilder` walks the experiment registry in order, calls every
entry's render hook against one shared :class:`RenderContext`, and writes the
result tree::

    report/
      index.md         # run config, paper-vs-reproduced table, all sections
      <id>.csv         # machine-readable data behind each figure/table
      <id>.png         # rendered figures (only with matplotlib installed)
      run_stats.json   # executor statistics (cache hits, chunks simulated)
                       # and whether each density-matrix study was a store hit

All Monte-Carlo data flows through one cached
:class:`~repro.experiments.executor.SweepExecutor`, and the Fig. 8
density-matrix study is kept as a record in the same result store.  Pointed
at a cache directory, a second build of the same report performs **zero**
simulation — no Monte-Carlo chunk and no density-matrix run — and reproduces
``index.md`` and every CSV byte for byte (``run_stats.json`` is the only file
that records run-varying facts, which is why those numbers are kept out of
the index).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.executor import SweepExecutor, SweepStats
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.store import InMemoryResultStore
from repro.report.artifacts import DEFAULT_REPORT_SEED, ExperimentArtifact, RenderContext
from repro.report.figures import matplotlib_available
from repro.report.index import build_index_markdown

#: ``--quick`` settings: enough shots to show every trend, small enough for CI.
QUICK_SHOTS = 40
QUICK_MAX_DISTANCE = 3


@dataclass
class ReportResult:
    """What a report build produced and what it cost."""

    output_dir: Path
    index_path: Path
    artifacts: List[ExperimentArtifact] = field(default_factory=list)
    stats: Dict[str, SweepStats] = field(default_factory=dict)
    total_stats: SweepStats = field(default_factory=SweepStats)

    def summary(self) -> str:
        """One-paragraph human summary for the CLI."""
        figures = sum(1 for a in self.artifacts for f in a.figures if f.filename)
        tables = sum(len(a.tables) for a in self.artifacts)
        return (
            f"report: {len(self.artifacts)} experiment(s), {tables} table(s), "
            f"{figures} figure(s) -> {self.index_path}\n"
            f"monte-carlo: {self.total_stats.summary()}"
        )


class ReportBuilder:
    """Renders every (or a selected subset of) registry entries into a report.

    Args:
        ids: Experiment ids to render (default: the full registry, in order).
        output_dir: Report directory (created if missing).
        shots: Monte-Carlo shots per configuration.
        max_distance: Largest code distance included in the sweeps.
        seed: Root seed; fixed by default so report runs address the same
            cache entries (see :data:`DEFAULT_REPORT_SEED`).
        chunk_shots: Executor chunk granularity (``None`` = default).
        jobs / cache_dir / resume: Passed to :class:`SweepExecutor` — the
            same orchestration knobs every sweep command shares.
        figures: Attempt PNG rendering (skipped gracefully without
            matplotlib).
        executor: Pre-built executor (overrides jobs/cache_dir/resume).
        service_url: Base URL of a running ``eraser-repro serve`` instance;
            when set, every sweep is submitted to that service (results are
            bit-identical to in-process execution, so the report is
            byte-for-byte the same — the service just owns the cache and the
            worker pool).
    """

    def __init__(
        self,
        ids: Optional[Sequence[str]] = None,
        output_dir: str = "report",
        shots: int = 200,
        max_distance: int = 5,
        seed: int = DEFAULT_REPORT_SEED,
        chunk_shots: Optional[int] = None,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        resume: bool = False,
        figures: bool = True,
        executor: Optional[SweepExecutor] = None,
        service_url: Optional[str] = None,
    ) -> None:
        self.specs = [get_experiment(i) for i in ids] if ids else list(EXPERIMENTS.values())
        self.output_dir = Path(output_dir)
        self.shots = int(shots)
        self.max_distance = int(max_distance)
        self.seed = int(seed)
        self.chunk_shots = chunk_shots
        self.figures = figures
        if executor is None and service_url:
            from repro.service.client import ServiceExecutor

            executor = ServiceExecutor(service_url, timeout=None)
        if executor is None:
            if cache_dir or resume:
                executor = SweepExecutor(jobs=jobs, cache_dir=cache_dir, resume=resume)
            else:
                # Even without an on-disk cache, identical jobs shared between
                # figures (fig14/table4, fig5/fig15/fig16) should simulate once.
                executor = SweepExecutor(jobs=jobs, store=InMemoryResultStore())
        self.executor = executor

    # ------------------------------------------------------------------
    def build(self) -> ReportResult:
        """Render everything, write the report tree, return the outcome."""
        self.output_dir.mkdir(parents=True, exist_ok=True)
        figures_enabled = self.figures and matplotlib_available()
        context = RenderContext(
            executor=self.executor,
            output_dir=self.output_dir,
            shots=self.shots,
            max_distance=self.max_distance,
            seed=self.seed,
            chunk_shots=self.chunk_shots,
            figures_enabled=figures_enabled,
        )

        artifacts: List[ExperimentArtifact] = []
        for spec in self.specs:
            artifacts.append(spec.render_artifact(context))

        for artifact in artifacts:
            for table in artifact.tables:
                if table.csv_name:
                    path = self.output_dir / table.csv_name
                    path.write_text(table.to_csv(), encoding="utf-8")

        notes = []
        if self.figures and not figures_enabled:
            notes.append(
                "Figures were skipped: matplotlib is not installed.  Install the "
                "`[report]` extra (`pip install .[report]`) to render PNGs; every "
                "figure's data is available in the tables and CSV files below."
            )
        index_text = build_index_markdown(
            artifacts,
            config_rows=[
                ("seed", self.seed),
                ("shots per configuration", self.shots),
                ("max code distance", self.max_distance),
                ("chunk shots", self.chunk_shots if self.chunk_shots else "default"),
                ("experiments", ", ".join(s.experiment_id for s in self.specs)),
                ("figures", "rendered" if figures_enabled else "skipped (no matplotlib)"),
            ],
            workloads={s.experiment_id: s.workload for s in self.specs},
            notes=notes,
        )
        index_path = self.output_dir / "index.md"
        index_path.write_text(index_text, encoding="utf-8")

        total = context.total_stats()
        stats_payload = {
            "total": total.to_dict(),
            "experiments": {key: value.to_dict() for key, value in context.stats.items()},
            "studies": dict(context.studies),
        }
        (self.output_dir / "run_stats.json").write_text(
            json.dumps(stats_payload, indent=1, sort_keys=True), encoding="utf-8"
        )
        return ReportResult(
            output_dir=self.output_dir,
            index_path=index_path,
            artifacts=artifacts,
            stats=dict(context.stats),
            total_stats=total,
        )
