"""Tests for the persistent decoder-artifact store (syndrome LRU snapshots)."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.decoder.artifacts import (
    get_artifact_store,
    graph_identity,
    graph_key,
)
from repro.decoder.decoder import SurfaceCodeDecoder
from repro.decoder.graph import (
    DecodingGraph,
    clear_shared_graphs,
    shared_decoding_graph,
)
from repro.experiments.executor import execute_chunk_with_stats
from repro.experiments.jobs import SweepJob
from repro.experiments.memory import MemoryExperiment
from repro.experiments.metrics import MetricsRegistry
from repro.experiments.sweep import compare_policies_plan
from repro.core.policies import make_policy
from repro.noise.profiles import NoiseProfile

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
    """Content addressing of a decoding graph's store entries."""

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


class TestBitIdentity:
    """Corrections must be bit-identical with the store on vs off."""

    @pytest.mark.parametrize("method", ["mwpm", "greedy", "auto"])
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


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _stale_format(path):
    marker = json.loads(path.read_text())
    marker["format"] = 2
    path.write_text(json.dumps(marker))


#: Ways an LRU entry can be torn or stale: ``(npz path, marker path) -> None``.
TEARS = {
    "truncated-npz": lambda npz, marker: _truncate(npz),
    "empty-npz": lambda npz, marker: npz.write_bytes(b""),
    "missing-npz": lambda npz, marker: npz.unlink(),
    "corrupt-marker": lambda npz, marker: marker.write_text("{not json"),
    "missing-marker": lambda npz, marker: marker.unlink(),
    "stale-format": lambda npz, marker: _stale_format(marker),
}


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
        graph = shared_decoding_graph(code, 4)
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

    @pytest.mark.parametrize("tear", sorted(TEARS))
    def test_torn_entry_reads_as_miss(self, tmp_path, tear):
        code = RotatedSurfaceCode(3)
        store = get_artifact_store(tmp_path)
        histories, finals = _random_shots(code, np.random.default_rng(5), 50, 4)
        expected = SurfaceCodeDecoder(code, num_rounds=4).decode_batch(histories, finals)
        writer = SurfaceCodeDecoder(code, num_rounds=4, artifact_store=store)
        writer.decode_batch(histories, finals)
        writer.save_artifacts()
        (npz_path,) = tmp_path.glob("*.lru-*.npz")
        TEARS[tear](npz_path, npz_path.with_suffix(".json"))
        clear_shared_graphs()

        reader = SurfaceCodeDecoder(code, num_rounds=4, artifact_store=store)
        assert reader.stats.lru_prewarmed == 0
        np.testing.assert_array_equal(reader.decode_batch(histories, finals), expected)


class TestCrossProcess:
    """A second process pre-warms its LRU from what the first one saved."""

    def test_child_process_prewarms_lru(self, tmp_path):
        code = RotatedSurfaceCode(3)
        histories, finals = _random_shots(code, np.random.default_rng(3), 30, 4)
        parent = SurfaceCodeDecoder(
            code, num_rounds=4, artifact_store=get_artifact_store(tmp_path)
        )
        expected = parent.decode_batch(histories, finals)
        parent.save_artifacts()

        child = (
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.codes.rotated_surface import RotatedSurfaceCode\n"
            "from repro.decoder.artifacts import get_artifact_store\n"
            "from repro.decoder.decoder import SurfaceCodeDecoder\n"
            "code = RotatedSurfaceCode(3)\n"
            "decoder = SurfaceCodeDecoder(\n"
            "    code, num_rounds=4, artifact_store=get_artifact_store(sys.argv[1])\n"
            ")\n"
            "rng = np.random.default_rng(3)\n"
            "histories = (rng.random((30, 4, code.num_stabilizers)) < 0.04)"
            ".astype(np.uint8)\n"
            "finals = (rng.random((30, code.num_data_qubits)) < 0.04)"
            ".astype(np.uint8)\n"
            "corrections = decoder.decode_batch(histories, finals)\n"
            "print(json.dumps([decoder.stats.as_dict(), corrections.tolist()]))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path)],
            env=_child_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        stats, corrections = json.loads(output.stdout)
        assert stats["lru_prewarmed"] == len(parent._correction_cache) > 0
        # Every non-empty syndrome hits the pre-warmed LRU, so the child
        # never matches and never even builds the space-time table.
        assert stats["matched"] == 0
        assert stats["frame_table_builds"] == 0
        assert corrections == expected.tolist()


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
        """The store no longer splits the registry: a bare and a stored
        decoder of one shape share one graph and one table build."""
        code = RotatedSurfaceCode(3)
        bare = SurfaceCodeDecoder(code, num_rounds=4)
        stored = SurfaceCodeDecoder(
            code, num_rounds=4, artifact_store=get_artifact_store(tmp_path)
        )
        assert bare.graph is stored.graph

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
        assert names and all(".lru-" in name for name in names)

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

    def test_artifact_dir_excluded_from_job_identity(self, tmp_path):
        """Every ``SweepJob`` field is either identity or perf-only.

        Changing an identity field moves ``cache_key()``; changing a
        perf-only field (the artifact directory among them) leaves it
        alone.  A new field fails here until it is classified.
        """
        routed = compare_policies_plan(
            distances=[3], policies=["eraser"], shots=10, cycles=2, seed=3,
            decoder_artifact_dir=str(tmp_path),
        ).jobs[0]
        assert routed.decoder_artifact_dir == str(tmp_path)
        base = dataclasses.replace(routed, decoder_artifact_dir=None)
        names = {f.name for f in dataclasses.fields(SweepJob)}
        assert names == set(IDENTITY_CHANGES) | set(PERF_ONLY_CHANGES)
        assert len(IDENTITY_CHANGES) == 18
        assert not names & {"decoder_dp_threshold", "decoder_cache_size"}  # retired
        for name, value in IDENTITY_CHANGES.items():
            assert getattr(base, name) != value, name
            assert dataclasses.replace(base, **{name: value}).cache_key() != base.cache_key(), name
        for name, value in PERF_ONLY_CHANGES.items():
            assert getattr(base, name) != value, name
            assert dataclasses.replace(base, **{name: value}).cache_key() == base.cache_key(), name


#: A changed value for every ``SweepJob`` field that joins the cache identity.
IDENTITY_CHANGES = {
    "distance": 5,
    "policy": "always-lrc",
    "shots": 11,
    "rounds": 7,
    "p": 2e-3,
    "code_family": "repetition",
    "noise_profile": NoiseProfile.biased(10.0).canonical_json(),
    "leakage_enabled": False,
    "transport_model": "exchange",
    "protocol": "dqlr",
    "decode": False,
    "decoder_method": "mwpm",
    "engine": "scalar",
    "batch_size": 64,
    "policy_kwargs": (("num_backups", 2),),
    "seed_entropy": 1,
    "spawn_key": (9,),
    "chunk_shots": 3,
}

#: A changed value for every perf-only ``SweepJob`` field.
PERF_ONLY_CHANGES = {
    "decoder_artifact_dir": "elsewhere",
    "target_ci_halfwidth": 0.1,
    "target_rel_halfwidth": 0.5,
    "adaptive_min_chunks": 4,
}


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
