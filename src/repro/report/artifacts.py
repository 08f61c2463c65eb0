"""Artifact model for the reproduction report (Section 6 evaluation).

A rendered report is assembled from three artifact kinds:

* :class:`TableResult` — the numbers behind one paper table or figure, kept as
  headers + rows so they can be emitted both as a Markdown table in the report
  index and as a machine-readable CSV file;
* :class:`FigureResult` — a rendered PNG of one paper figure (optional: when
  matplotlib is unavailable the table/CSV view stands in for the plot);
* :class:`ComparisonRow` — one paper-value-versus-reproduced-value line of the
  report's summary comparison table.

Renderers receive a :class:`RenderContext`, which carries the sweep
configuration (shots, max distance, seed) and the shared
:class:`~repro.experiments.executor.SweepExecutor` — so every Monte-Carlo
experiment is pulled through the content-addressed result cache, and a fully
cached report renders with zero simulation work.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.densitymatrix.study import SingleStabilizerLeakageStudy, StabilizerStudyResult
from repro.experiments.executor import SweepExecutor, SweepStats
from repro.experiments.jobs import SweepPlan
from repro.experiments.results import MemoryExperimentResult
from repro.experiments.store import config_hash

#: Fixed default seed of the report pipeline.  A *fixed* integer (rather than
#: fresh OS entropy) is what makes report runs cache-addressable: rerunning
#: the report against the same cache directory reuses every finished job.
DEFAULT_REPORT_SEED = 1234


def format_cell(value: object) -> str:
    """Render one table cell deterministically.

    Floats use ``repr`` (shortest round-trip form), so the same numbers always
    produce byte-identical CSV/Markdown output — the property the report's
    identical-rerun guarantee rests on.
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def markdown_escape(text: str) -> str:
    """Escape the table delimiter so cell text survives GFM rendering."""
    return text.replace("|", "\\|")


@dataclass
class TableResult:
    """The data behind one table (or the series behind one figure).

    Attributes:
        experiment_id: Registry id this table belongs to.
        title: Table caption shown in the report index.
        headers: Column names.
        rows: Row values (mixed primitives; formatted via :func:`format_cell`).
        csv_name: File name (relative to the report directory) the CSV copy is
            written to; ``None`` keeps the table inline-only.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    csv_name: Optional[str] = None

    def to_markdown(self) -> str:
        """GitHub-flavoured Markdown rendering of the table."""
        lines = [
            "| " + " | ".join(markdown_escape(str(h)) for h in self.headers) + " |",
            "| " + " | ".join("---" for _ in self.headers) + " |",
        ]
        for row in self.rows:
            lines.append(
                "| " + " | ".join(markdown_escape(format_cell(v)) for v in row) + " |"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Deterministic CSV rendering (same cell formatting as Markdown).

        Emitted through the stdlib ``csv`` writer so cells containing commas
        or quotes are quoted correctly; minimal quoting and a fixed ``\\n``
        terminator keep the bytes identical across runs and platforms.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow([str(h) for h in self.headers])
        for row in self.rows:
            writer.writerow([format_cell(v) for v in row])
        return buffer.getvalue()


@dataclass
class FigureResult:
    """One rendered figure of the report.

    ``filename`` is the PNG written into the report directory; ``None`` means
    the figure was skipped (matplotlib unavailable or figures disabled) and
    the accompanying table is the authoritative view.
    """

    experiment_id: str
    title: str
    filename: Optional[str]
    caption: str = ""


@dataclass
class ComparisonRow:
    """One line of the paper-vs-reproduced summary table."""

    experiment_id: str
    quantity: str
    paper_value: str
    reproduced_value: str
    note: str = ""


@dataclass
class ExperimentArtifact:
    """Everything one registry entry contributes to the report."""

    experiment_id: str
    title: str
    kind: str
    tables: List[TableResult] = field(default_factory=list)
    figures: List[FigureResult] = field(default_factory=list)
    comparisons: List[ComparisonRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


@dataclass
class RenderContext:
    """Shared state handed to every experiment renderer.

    Monte-Carlo renderers call :meth:`run_spec` (or :meth:`run_plan` for
    ad-hoc grids such as the ablation study), which routes all simulation
    through one :class:`SweepExecutor` — cached, parallel, resumable — and
    records per-experiment :class:`SweepStats` so the report can prove how
    much Monte-Carlo work it actually performed.  Density-matrix renderers
    call :meth:`run_study`, which records in :attr:`studies` whether each
    study was served from the store (``"hit"``) or ``"computed"``.
    """

    executor: SweepExecutor
    output_dir: Path
    shots: int = 200
    max_distance: int = 5
    seed: int = DEFAULT_REPORT_SEED
    chunk_shots: Optional[int] = None
    figures_enabled: bool = True
    stats: Dict[str, SweepStats] = field(default_factory=dict)
    studies: Dict[str, str] = field(default_factory=dict)

    def run_plan(self, experiment_id: str, plan: SweepPlan) -> List[MemoryExperimentResult]:
        """Execute ``plan`` through the shared executor, recording its stats."""
        results = self.executor.run(plan)
        self.stats.setdefault(experiment_id, SweepStats()).merge(self.executor.last_stats)
        return results

    def run_spec(self, spec) -> List[MemoryExperimentResult]:
        """Plan and execute a registry entry's sweep under this context."""
        plan = spec.make_plan(
            shots=self.shots,
            max_distance=self.max_distance,
            seed=self.seed,
            chunk_shots=self.chunk_shots,
        )
        return self.run_plan(spec.experiment_id, plan)

    def run_study(
        self, experiment_id: str, study: SingleStabilizerLeakageStudy
    ) -> StabilizerStudyResult:
        """Load ``study``'s result from the executor's store, or run and save it.

        The record is addressed by the hash of :meth:`study.config_dict()
        <SingleStabilizerLeakageStudy.config_dict>`.  An executor without a
        local store (a :class:`~repro.service.client.ServiceExecutor`) always
        computes.
        """
        store = getattr(self.executor, "store", None)
        key = config_hash(study.config_dict())
        payload = store.load_record(key) if store is not None else None
        if payload is not None:
            self.studies[experiment_id] = "hit"
            return StabilizerStudyResult.from_state(payload)
        result = study.run()
        if store is not None:
            store.save_record(key, result.to_state())
        self.studies[experiment_id] = "computed"
        return result

    def total_stats(self) -> SweepStats:
        """Aggregate executor statistics across every rendered experiment."""
        total = SweepStats()
        for stats in self.stats.values():
            total.merge(stats)
        return total
