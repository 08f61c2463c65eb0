"""Tests for the persistent mmap-shared decoder-artifact store."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.codes import make_code
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoder.artifacts import (
    DecoderArtifactStore,
    get_artifact_store,
    graph_identity,
    graph_key,
    mmap_npz,
    prebuild_job_artifacts,
)
from repro.decoder.decoder import SurfaceCodeDecoder
from repro.decoder.graph import (
    DecodingGraph,
    clear_shared_graphs,
    shared_decoding_graph,
)
from repro.decoder.matching import _frame_parity_table
from repro.experiments.executor import SweepExecutor, execute_chunk_with_stats
from repro.experiments.jobs import SweepJob
from repro.experiments.memory import MemoryExperiment
from repro.experiments.metrics import MetricsRegistry
from repro.experiments.sweep import compare_policies_plan
from repro.core.policies import make_policy

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    return env


def _random_shots(code, rng, shots, rounds):
    histories = (
        rng.random((shots, rounds, code.num_stabilizers)) < 0.04
    ).astype(np.uint8)
    finals = (rng.random((shots, code.num_data_qubits)) < 0.04).astype(np.uint8)
    return histories, finals


@pytest.fixture(autouse=True)
def _fresh_shared_graphs():
    """Isolate the module-level shared-graph registry per test."""
    clear_shared_graphs()
    yield
    clear_shared_graphs()


class TestGraphTables:
    """Round-trip, identity, and corruption semantics of the graph tables."""

    def test_round_trip_is_memory_mapped(self, tmp_path):
        store = DecoderArtifactStore(tmp_path)
        code = RotatedSurfaceCode(3)
        graph = DecodingGraph(code, 4, artifact_store=store)
        _frame_parity_table(graph)  # cold build, persists to the store
        assert store.contains_graph(graph)
        assert graph.frame_table_builds == 1

        warm = DecodingGraph(code, 4, artifact_store=store)
        table = _frame_parity_table(warm)
        assert warm.frame_table_builds == 0
        assert warm.apsp_builds == 0
        assert warm.artifact_hits == 1
        distances, predecessors = warm._apsp_cache
        assert isinstance(distances, np.memmap)
        assert isinstance(predecessors, np.memmap)
        assert isinstance(table, np.memmap)
        cold_distances, cold_predecessors = graph._apsp_cache
        np.testing.assert_array_equal(distances, cold_distances)
        np.testing.assert_array_equal(predecessors, cold_predecessors)
        np.testing.assert_array_equal(table, graph._frame_parity_cache)

    def test_identity_distinguishes_graphs(self):
        code = RotatedSurfaceCode(3)
        base = graph_key(DecodingGraph(code, 4))
        assert graph_key(DecodingGraph(code, 5)) != base
        assert graph_key(DecodingGraph(RotatedSurfaceCode(5), 4)) != base
        assert graph_key(DecodingGraph(code, 4, space_weight=2.0)) != base
        # Identity is pure content: a second identical build maps to the
        # same entry.
        assert graph_key(DecodingGraph(code, 4)) == base

    def test_key_stable_across_processes(self):
        code = RotatedSurfaceCode(3)
        parent_key = graph_key(DecodingGraph(code, 4))
        child = (
            "from repro.codes.rotated_surface import RotatedSurfaceCode\n"
            "from repro.decoder.artifacts import graph_key\n"
            "from repro.decoder.graph import DecodingGraph\n"
            "print(graph_key(DecodingGraph(RotatedSurfaceCode(3), 4)))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", child],
            env=_child_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        assert output.stdout.strip() == parent_key

    def test_truncated_npz_reads_as_miss(self, tmp_path):
        store = DecoderArtifactStore(tmp_path)
        code = RotatedSurfaceCode(3)
        graph = DecodingGraph(code, 4, artifact_store=store)
        _frame_parity_table(graph)
        npz_path = store.graph_npz_path(graph_key(graph))
        data = npz_path.read_bytes()
        npz_path.write_bytes(data[: len(data) // 2])  # torn write

        torn = DecodingGraph(code, 4, artifact_store=store)
        table = _frame_parity_table(torn)  # must fall back to a cold build
        assert torn.artifact_misses == 1
        assert torn.frame_table_builds == 1
        np.testing.assert_array_equal(table, graph._frame_parity_cache)

    def test_corrupt_marker_reads_as_miss(self, tmp_path):
        store = DecoderArtifactStore(tmp_path)
        code = RotatedSurfaceCode(3)
        graph = DecodingGraph(code, 4, artifact_store=store)
        _frame_parity_table(graph)
        store.graph_json_path(graph_key(graph)).write_text("{not json")
        assert store.load_graph_tables(graph) is None

    def test_missing_marker_is_miss_despite_npz(self, tmp_path):
        store = DecoderArtifactStore(tmp_path)
        code = RotatedSurfaceCode(3)
        graph = DecodingGraph(code, 4, artifact_store=store)
        _frame_parity_table(graph)
        store.graph_json_path(graph_key(graph)).unlink()
        assert store.load_graph_tables(graph) is None

    def test_mmap_npz_rejects_compressed(self, tmp_path):
        path = tmp_path / "compressed.npz"
        np.savez_compressed(path, a=np.arange(10))
        with pytest.raises(ValueError):
            mmap_npz(path)


class TestCrossProcess:
    """A warm process must load the tables without rebuilding anything."""

    def test_child_process_builds_nothing(self, tmp_path):
        store = DecoderArtifactStore(tmp_path)
        code = RotatedSurfaceCode(3)
        graph = DecodingGraph(code, 4, artifact_store=store)
        _frame_parity_table(graph)

        child = (
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.codes.rotated_surface import RotatedSurfaceCode\n"
            "from repro.decoder.artifacts import get_artifact_store\n"
            "from repro.decoder.decoder import SurfaceCodeDecoder\n"
            "store = get_artifact_store(sys.argv[1])\n"
            "code = RotatedSurfaceCode(3)\n"
            "decoder = SurfaceCodeDecoder(code, num_rounds=4, artifact_store=store)\n"
            "rng = np.random.default_rng(3)\n"
            "histories = (rng.random((30, 4, code.num_stabilizers)) < 0.04)"
            ".astype(np.uint8)\n"
            "finals = (rng.random((30, code.num_data_qubits)) < 0.04)"
            ".astype(np.uint8)\n"
            "decoder.decode_batch(histories, finals)\n"
            "print(json.dumps(decoder.stats.as_dict()))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path)],
            env=_child_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        stats = json.loads(output.stdout)
        assert stats["frame_table_builds"] == 0
        assert stats["apsp_builds"] == 0
        assert stats["artifact_hits"] >= 1
        assert stats["artifact_misses"] == 0


class TestBitIdentity:
    """Corrections must be bit-identical with the store on vs off."""

    @pytest.mark.parametrize("method", ["mwpm", "greedy", "auto", "union-find"])
    def test_decode_batch_identical(self, tmp_path, method):
        code = RotatedSurfaceCode(3)
        rng = np.random.default_rng(17)
        histories, finals = _random_shots(code, rng, 60, 4)

        bare = SurfaceCodeDecoder(code, num_rounds=4, method=method)
        expected = bare.decode_batch(histories, finals)
        clear_shared_graphs()

        store = get_artifact_store(tmp_path)
        cold = SurfaceCodeDecoder(
            code, num_rounds=4, method=method, artifact_store=store
        )
        np.testing.assert_array_equal(cold.decode_batch(histories, finals), expected)
        cold.save_artifacts()
        clear_shared_graphs()

        warm = SurfaceCodeDecoder(
            code, num_rounds=4, method=method, artifact_store=store
        )
        np.testing.assert_array_equal(warm.decode_batch(histories, finals), expected)

    def test_randomized_weights_identical(self, tmp_path):
        code = RotatedSurfaceCode(3)
        rng = np.random.default_rng(23)
        for trial in range(3):
            space = float(rng.uniform(0.5, 2.0))
            time_w = float(rng.uniform(0.5, 2.0))
            diagonal = float(rng.uniform(0.5, 2.0)) if trial % 2 else None
            histories, finals = _random_shots(code, rng, 40, 4)
            kwargs = dict(
                num_rounds=4,
                space_weight=space,
                time_weight=time_w,
                diagonal_weight=diagonal,
            )
            bare = SurfaceCodeDecoder(code, **kwargs)
            expected = bare.decode_batch(histories, finals)
            clear_shared_graphs()
            store = get_artifact_store(tmp_path)
            stored = SurfaceCodeDecoder(code, artifact_store=store, **kwargs)
            np.testing.assert_array_equal(
                stored.decode_batch(histories, finals), expected
            )
            clear_shared_graphs()
            warm = SurfaceCodeDecoder(code, artifact_store=store, **kwargs)
            np.testing.assert_array_equal(
                warm.decode_batch(histories, finals), expected
            )
            clear_shared_graphs()


class TestLruPersistence:
    """The syndrome->correction LRU round-trips through the store."""

    def test_prewarm_round_trip(self, tmp_path):
        code = RotatedSurfaceCode(3)
        store = get_artifact_store(tmp_path)
        rng = np.random.default_rng(5)
        histories, finals = _random_shots(code, rng, 50, 4)

        first = SurfaceCodeDecoder(code, num_rounds=4, artifact_store=store)
        expected = first.decode_batch(histories, finals)
        assert first.stats.lru_prewarmed == 0
        first.save_artifacts()
        clear_shared_graphs()

        second = SurfaceCodeDecoder(code, num_rounds=4, artifact_store=store)
        assert second.stats.lru_prewarmed == len(first._correction_cache)
        result = second.decode_batch(histories, finals)
        np.testing.assert_array_equal(result, expected)
        # Every non-empty syndrome was restored from the persisted LRU:
        # nothing reached the matcher.
        assert second.stats.matched == 0

    def test_prewarm_respects_method_identity(self, tmp_path):
        code = RotatedSurfaceCode(3)
        store = get_artifact_store(tmp_path)
        rng = np.random.default_rng(7)
        histories, finals = _random_shots(code, rng, 30, 4)

        mwpm = SurfaceCodeDecoder(
            code, num_rounds=4, method="mwpm", artifact_store=store
        )
        mwpm.decode_batch(histories, finals)
        mwpm.save_artifacts()
        clear_shared_graphs()

        # A greedy decoder must not inherit MWPM corrections.
        greedy = SurfaceCodeDecoder(
            code, num_rounds=4, method="greedy", artifact_store=store
        )
        assert greedy.stats.lru_prewarmed == 0

    def test_merge_respects_bound(self, tmp_path):
        code = RotatedSurfaceCode(3)
        store = get_artifact_store(tmp_path)
        graph = shared_decoding_graph(code, 4, artifact_store=store)
        identity = {"method": "mwpm", "exact_threshold": None}
        from collections import OrderedDict

        first = OrderedDict((bytes([i, 0, 0]), i) for i in range(4))
        store.save_lru(graph, identity, first, bound=4)
        second = OrderedDict((bytes([i, 1, 0]), i + 10) for i in range(4))
        store.save_lru(graph, identity, second, bound=4)

        merged = store.load_lru(graph, identity)
        assert merged is not None
        assert len(merged) == 4
        # Newest entries win the size bound.
        assert set(merged.values()) == {10, 11, 12, 13}


class TestSharedGraphs:
    """In-process decoding-graph dedup keyed by construction parameters."""

    def test_same_config_shares_graph(self):
        code = RotatedSurfaceCode(3)
        a = SurfaceCodeDecoder(code, num_rounds=4)
        b = SurfaceCodeDecoder(code, num_rounds=4, method="greedy")
        assert a.graph is b.graph
        c = SurfaceCodeDecoder(code, num_rounds=5)
        assert c.graph is not a.graph

    def test_clear_drops_registry(self):
        code = RotatedSurfaceCode(3)
        a = SurfaceCodeDecoder(code, num_rounds=4)
        clear_shared_graphs()
        b = SurfaceCodeDecoder(code, num_rounds=4)
        assert a.graph is not b.graph

    def test_store_distinguishes_registry_key(self, tmp_path):
        code = RotatedSurfaceCode(3)
        bare = shared_decoding_graph(code, 4)
        stored = shared_decoding_graph(
            code, 4, artifact_store=get_artifact_store(tmp_path)
        )
        assert bare is not stored


    def test_chunk_stats_count_one_build_per_shared_graph(self):
        """Decoders sharing a graph report per-decoder deltas, so merging
        every chunk's stats counts the one table build exactly once."""
        clear_shared_graphs()
        job = SweepJob(distance=3, policy="eraser", shots=40, rounds=30, chunk_shots=10)
        assert job.num_chunks == 4
        registry = MetricsRegistry()
        for chunk in range(job.num_chunks):
            _, stats = execute_chunk_with_stats(job, chunk)
            registry.merge_counts(stats, prefix="decoder_")
        counters = registry.snapshot()["counters"]
        assert counters["decoder_apsp_builds"] == 1
        assert counters["decoder_frame_table_builds"] == 1
        assert counters["decoder_shots"] == job.shots


class TestExperimentWiring:
    """MemoryExperiment / SweepExecutor thread the artifact directory."""

    def test_memory_experiment_persists_artifacts(self, tmp_path):
        art = str(tmp_path / "artifacts")
        experiment = MemoryExperiment(
            distance=3,
            policy=make_policy("eraser"),
            cycles=2,
            seed=11,
            decode=True,
            decoder_artifact_dir=art,
        )
        baseline = MemoryExperiment(
            distance=3, policy=make_policy("eraser"), cycles=2, seed=11, decode=True
        )
        result = experiment.run(40)
        expected = baseline.run(40)
        assert result.logical_errors == expected.logical_errors
        names = os.listdir(art)
        assert any(name.endswith(".npz") for name in names)
        assert any(".lru-" in name for name in names)

        clear_shared_graphs()
        warm = MemoryExperiment(
            distance=3,
            policy=make_policy("eraser"),
            cycles=2,
            seed=11,
            decode=True,
            decoder_artifact_dir=art,
        )
        warm.run(40)
        assert warm.decoder.stats.frame_table_builds == 0
        assert warm.decoder.stats.lru_prewarmed > 0

    def test_executor_prebuilds_unique_graphs(self, tmp_path):
        art = str(tmp_path / "artifacts")
        plan = compare_policies_plan(
            distances=[3], policies=["eraser", "always-lrc"], shots=10,
            cycles=2, seed=3,
        )
        executor = SweepExecutor(jobs=1, decoder_artifact_dir=art)
        executor.run(plan)
        # Two jobs, one unique (family, distance, rounds) graph.
        assert executor.last_stats.artifacts_prebuilt == 1
        store = get_artifact_store(art)
        graph = shared_decoding_graph(make_code("rotated-surface", 3), 6)
        assert store.contains_graph(graph)

        warm = SweepExecutor(jobs=1, decoder_artifact_dir=art)
        warm.run(plan)
        assert warm.last_stats.artifacts_prebuilt == 0

    def test_artifact_dir_excluded_from_job_identity(self, tmp_path):
        plain = compare_policies_plan(
            distances=[3], policies=["eraser"], shots=10, cycles=2, seed=3
        ).jobs[0]
        routed = compare_policies_plan(
            distances=[3], policies=["eraser"], shots=10, cycles=2, seed=3,
            decoder_artifact_dir=str(tmp_path),
        ).jobs[0]
        assert routed.decoder_artifact_dir == str(tmp_path)
        assert plain.config_dict() == routed.config_dict()
        assert plain.cache_key() == routed.cache_key()

    def test_prebuild_dedups_and_skips_non_decode(self, tmp_path):
        art = str(tmp_path / "artifacts")
        jobs = (
            compare_policies_plan(
                distances=[3], policies=["eraser", "optimal"], shots=10,
                cycles=2, seed=3, decoder_artifact_dir=art,
            ).jobs
            + compare_policies_plan(
                distances=[3], policies=["eraser"], shots=10, cycles=2,
                seed=3, decode=False, decoder_artifact_dir=art,
            ).jobs
        )
        assert prebuild_job_artifacts(jobs) == 1
        assert prebuild_job_artifacts(jobs) == 0  # idempotent


class TestIdentityPayload:
    """The canonical identity covers everything corrections depend on."""

    def test_identity_fields(self):
        code = RotatedSurfaceCode(3)
        identity = graph_identity(DecodingGraph(code, 4))
        assert identity["code_family"] == "rotated-surface"
        assert identity["distance"] == 3
        assert identity["num_rounds"] == 4
        assert identity["num_nodes"] > 0
        assert identity["num_edges"] > 0
        assert len(identity["edges_sha256"]) == 64
