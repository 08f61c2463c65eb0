"""Tests for the reproduction-report pipeline (Figures/Tables -> report/).

Covers the three guarantees the report layer makes:

* registry-complete rendering — every experiment id produces its artifact,
  even at tiny shot counts and without matplotlib;
* cache discipline — a rerun against a warm cache executes zero Monte-Carlo
  chunks, serves the Fig. 8 density-matrix study from its store record (a
  torn record is recomputed and rewritten), and reproduces ``index.md`` and
  every CSV byte for byte;
* determinism — CSV output under a fixed seed is stable across builds.
"""

import json
import shutil

import pytest

from repro.densitymatrix.study import SingleStabilizerLeakageStudy
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.store import ResultStore, config_hash
from repro.report import ReportBuilder, matplotlib_available
from repro.report.artifacts import ExperimentArtifact, TableResult

TINY = dict(shots=2, max_distance=3, figures=False)


def _build(tmp_path, subdir, ids=None, **overrides):
    options = dict(TINY)
    options.update(overrides)
    builder = ReportBuilder(
        ids=ids,
        output_dir=str(tmp_path / subdir),
        cache_dir=str(tmp_path / "cache"),
        **options,
    )
    return builder.build()


@pytest.fixture(scope="module")
def full_reports(tmp_path_factory):
    """One cold build and one warm rebuild of the complete report."""
    tmp_path = tmp_path_factory.mktemp("report")
    cold = _build(tmp_path, "cold")
    warm = _build(tmp_path, "warm")
    return cold, warm


class TestRegistryCompleteRender:
    def test_every_experiment_produces_an_artifact(self, full_reports):
        cold, _ = full_reports
        rendered = {artifact.experiment_id for artifact in cold.artifacts}
        assert rendered == set(EXPERIMENTS)
        for artifact in cold.artifacts:
            assert isinstance(artifact, ExperimentArtifact)
            assert artifact.tables, artifact.experiment_id

    def test_index_covers_every_registry_entry(self, full_reports):
        cold, _ = full_reports
        text = cold.index_path.read_text()
        for experiment_id, spec in EXPERIMENTS.items():
            assert f"### {experiment_id} — " in text
            assert spec.kind in text

    def test_every_table_with_csv_is_written(self, full_reports):
        cold, _ = full_reports
        for artifact in cold.artifacts:
            for table in artifact.tables:
                if table.csv_name:
                    path = cold.output_dir / table.csv_name
                    assert path.exists(), table.csv_name
                    assert path.read_text().startswith(",".join(map(str, table.headers)))

    def test_comparison_table_present(self, full_reports):
        cold, _ = full_reports
        text = cold.index_path.read_text()
        assert "## Paper vs reproduced" in text
        assert "Eq. (1)" in text

    def test_run_stats_written(self, full_reports):
        cold, warm = full_reports
        stats = json.loads((cold.output_dir / "run_stats.json").read_text())
        assert stats["total"]["jobs_total"] > 0
        assert set(stats["experiments"]) <= set(EXPERIMENTS)
        assert stats["studies"] == {"fig8": "computed"}
        warm_stats = json.loads((warm.output_dir / "run_stats.json").read_text())
        assert warm_stats["studies"] == {"fig8": "hit"}


class TestCachedRerun:
    def test_warm_rebuild_executes_zero_monte_carlo_chunks(self, full_reports):
        cold, warm = full_reports
        assert cold.total_stats.chunks_run > 0
        assert warm.total_stats.chunks_run == 0
        assert warm.total_stats.jobs_run == 0
        assert warm.total_stats.cache_hits == warm.total_stats.jobs_total

    def test_warm_rebuild_is_byte_identical(self, full_reports):
        cold, warm = full_reports
        cold_files = {p.name: p for p in cold.output_dir.iterdir() if p.name != "run_stats.json"}
        warm_files = {p.name: p for p in warm.output_dir.iterdir() if p.name != "run_stats.json"}
        assert set(cold_files) == set(warm_files)
        for name, cold_path in cold_files.items():
            assert cold_path.read_bytes() == warm_files[name].read_bytes(), name

    def test_table4_is_free_after_fig14(self, full_reports):
        """Table 4 reuses Figure 14's sweep plan, so its jobs are cache hits."""
        cold, _ = full_reports
        table4 = cold.stats["table4"]
        assert table4.cache_hits == table4.jobs_total
        assert table4.chunks_run == 0


def _study_record_path(cache_dir):
    key = config_hash(SingleStabilizerLeakageStudy().config_dict())
    return ResultStore(cache_dir).record_path(key)


@pytest.fixture(scope="module")
def clean_fig8(tmp_path_factory):
    """A cold fig8-only build: its cache directory and its CSV bytes."""
    tmp_path = tmp_path_factory.mktemp("fig8")
    cold = _build(tmp_path, "cold", ids=["fig8"])
    return tmp_path / "cache", (cold.output_dir / "fig8.csv").read_bytes()


def _corrupt_truncated(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _corrupt_empty(path):
    path.write_bytes(b"")


def _corrupt_not_json(path):
    path.write_bytes(b"\x89PNG\r\n not a JSON document")


def _corrupt_stale_format(path):
    document = json.loads(path.read_text())
    document["format"] = 999
    path.write_text(json.dumps(document))


def _corrupt_wrong_key(path):
    document = json.loads(path.read_text())
    document["key"] = "0" * 64
    path.write_text(json.dumps(document))


class TestStudyRecord:
    """The Fig. 8 density-matrix study is a result-store record."""

    def test_warm_rebuild_never_runs_the_study(self, clean_fig8, tmp_path, monkeypatch):
        cache_dir, clean_csv = clean_fig8
        shutil.copytree(cache_dir, tmp_path / "cache")

        def refuse(self):
            raise AssertionError("a warm build must not run the density-matrix study")

        monkeypatch.setattr(SingleStabilizerLeakageStudy, "run", refuse)
        warm = _build(tmp_path, "warm", ids=["fig8"])
        assert (warm.output_dir / "fig8.csv").read_bytes() == clean_csv

    @pytest.mark.parametrize(
        "corrupt",
        [
            _corrupt_truncated,
            _corrupt_empty,
            _corrupt_not_json,
            _corrupt_stale_format,
            _corrupt_wrong_key,
        ],
        ids=["truncated", "empty", "not-json", "stale-format", "wrong-key"],
    )
    def test_torn_record_is_recomputed_and_rewritten(
        self, clean_fig8, tmp_path, monkeypatch, corrupt
    ):
        cache_dir, clean_csv = clean_fig8
        clean_record = _study_record_path(cache_dir).read_bytes()
        shutil.copytree(cache_dir, tmp_path / "cache")
        record = _study_record_path(tmp_path / "cache")
        corrupt(record)

        runs = []
        original_run = SingleStabilizerLeakageStudy.run

        def counting_run(self):
            runs.append(self)
            return original_run(self)

        monkeypatch.setattr(SingleStabilizerLeakageStudy, "run", counting_run)
        rebuilt = _build(tmp_path, "rebuilt", ids=["fig8"])
        assert len(runs) == 1
        stats = json.loads((rebuilt.output_dir / "run_stats.json").read_text())
        assert stats["studies"] == {"fig8": "computed"}
        assert (rebuilt.output_dir / "fig8.csv").read_bytes() == clean_csv
        assert record.read_bytes() == clean_record


class TestDeterminism:
    def test_csv_deterministic_under_fixed_seed(self, tmp_path):
        first = _build(tmp_path, "one", ids=["table2", "table3", "eq1-2"])
        second = _build(tmp_path, "two", ids=["table2", "table3", "eq1-2"])
        for name in ("table2.csv", "table3.csv", "eq1-2.csv"):
            assert (first.output_dir / name).read_bytes() == (
                second.output_dir / name
            ).read_bytes()

    def test_subset_report_covers_only_requested_ids(self, tmp_path):
        result = _build(tmp_path, "subset", ids=["table2"])
        text = result.index_path.read_text()
        assert "### table2 — " in text
        assert "### fig14 — " not in text

    def test_unknown_id_raises(self, tmp_path):
        with pytest.raises(KeyError):
            ReportBuilder(ids=["fig99"], output_dir=str(tmp_path / "x"))

    def test_no_cache_run_still_dedups_shared_jobs(self, tmp_path):
        """Without --cache-dir an in-memory store deduplicates fig14/table4."""
        result = ReportBuilder(
            ids=["fig14", "table4"], shots=2, max_distance=3, figures=False,
            output_dir=str(tmp_path / "nocache"),
        ).build()
        table4 = result.stats["table4"]
        assert table4.cache_hits == table4.jobs_total
        assert table4.chunks_run == 0

    def test_csv_cells_with_commas_are_quoted(self, tmp_path):
        """eq1-2 quantity labels contain commas; the CSV must stay parseable."""
        import csv as csv_module

        result = _build(tmp_path, "quoted", ids=["eq1-2"])
        with open(result.output_dir / "eq1-2.csv", newline="") as handle:
            rows = list(csv_module.reader(handle))
        assert all(len(row) == len(rows[0]) for row in rows)
        assert any("P(L_data | L_parity)" in cell for row in rows for cell in row)

    def test_markdown_escapes_pipes_in_cells(self):
        table = TableResult("t", "title", ["quantity"], [["P(a | b)"]])
        assert "P(a \\| b)" in table.to_markdown()


class TestTableResult:
    def test_markdown_and_csv_share_cell_formatting(self):
        table = TableResult("t", "title", ["a", "b"], [[1, 0.5], [2, float("nan")]])
        md = table.to_markdown()
        csv = TableResult("t", "title", ["a", "b"], [[1, 0.5], [2, float("nan")]], csv_name="t.csv").to_csv()
        assert "| 1 | 0.5 |" in md
        assert "1,0.5" in csv
        assert "nan" in csv

    def test_figure_pipeline_with_stub_matplotlib(self, tmp_path, monkeypatch):
        """Exercise the PNG code path without a real matplotlib install.

        A MagicMock stands in for matplotlib; this validates the renderer ->
        figures plumbing (series/x_values shapes, axis styling calls), which
        CI then exercises against the real library in the report-smoke job.
        """
        from unittest import mock

        from repro.report import figures

        fake_mpl = mock.MagicMock()
        # `import matplotlib.pyplot as plt` resolves via attribute access on
        # the parent mock, so configure subplots() there.
        fake_plt = fake_mpl.pyplot
        fake_plt.subplots.return_value = (mock.MagicMock(), mock.MagicMock())
        monkeypatch.setitem(__import__("sys").modules, "matplotlib", fake_mpl)
        monkeypatch.setitem(__import__("sys").modules, "matplotlib.pyplot", fake_plt)
        figures.matplotlib_available.cache_clear()
        try:
            result = ReportBuilder(
                ids=["table3", "fig14"], shots=2, max_distance=3, figures=True,
                output_dir=str(tmp_path / "figrep"),
            ).build()
            rendered = [f for a in result.artifacts for f in a.figures if f.filename]
            assert {f.filename for f in rendered} == {"table3.png", "fig14.png"}
            assert fake_plt.subplots.call_count == 2
            text = result.index_path.read_text()
            assert "![fig14](fig14.png)" in text
        finally:
            figures.matplotlib_available.cache_clear()

    def test_figures_skipped_note_without_matplotlib(self, tmp_path):
        result = ReportBuilder(
            ids=["table2"], output_dir=str(tmp_path / "fig"), shots=2,
            max_distance=3, figures=True,
        ).build()
        text = result.index_path.read_text()
        if matplotlib_available():
            assert "skipped" not in text.split("## Run configuration")[0]
        else:
            assert "matplotlib is not installed" in text
