"""Tests for the content-addressed result store."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments.jobs import SweepPlan
from repro.experiments.metrics import SpeculationCounts
from repro.experiments.results import MemoryExperimentResult
from repro.experiments.store import (
    ResultStore,
    canonical_config_json,
    config_hash,
)


def make_result(**overrides):
    fields = dict(
        policy="eraser",
        distance=3,
        rounds=6,
        physical_error_rate=1e-3,
        shots=40,
        logical_errors=2,
        lpr_total=np.linspace(0.0, 2e-3, 6),
        lpr_data=np.linspace(0.0, 1e-3, 6),
        lpr_parity=np.linspace(0.0, 5e-4, 6),
        lrcs_per_round=0.25,
        speculation=SpeculationCounts(3, 7, 200, 5),
        metadata={"protocol": "swap", "engine": "packed", "leakage_enabled": True},
    )
    fields.update(overrides)
    return MemoryExperimentResult(**fields)


SAMPLE_CONFIG = {
    "distance": 3,
    "policy": "eraser",
    "shots": 40,
    "rounds": 6,
    "p": 1e-3,
    "seed_entropy": 12345,
    "spawn_key": [0],
}


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        shuffled = dict(reversed(list(SAMPLE_CONFIG.items())))
        assert config_hash(SAMPLE_CONFIG) == config_hash(shuffled)

    def test_value_changes_change_the_hash(self):
        changed = dict(SAMPLE_CONFIG, shots=41)
        assert config_hash(SAMPLE_CONFIG) != config_hash(changed)

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_config_json({"b": 1, "a": 2})
        assert text == '{"a":2,"b":1}'

    def test_hash_stable_across_processes(self):
        """The content address must not depend on process state (hash seed)."""
        config_json = canonical_config_json(SAMPLE_CONFIG)
        script = (
            "import json,sys\n"
            "from repro.experiments.store import config_hash\n"
            "print(config_hash(json.loads(sys.argv[1])))\n"
        )
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        for hashseed in ("0", "4242"):
            out = subprocess.run(
                [sys.executable, "-c", script, config_json],
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONPATH": str(repo_root / "src"),
                    "PYTHONHASHSEED": hashseed,
                },
                cwd=str(repo_root),
                check=True,
            )
            assert out.stdout.strip() == config_hash(SAMPLE_CONFIG)

    def test_job_cache_key_is_a_config_hash(self):
        plan = SweepPlan.build(
            [dict(distance=3, policy="eraser", shots=5, cycles=1)], seed=9
        )
        job = plan.jobs[0]
        assert job.cache_key() == config_hash(job.config_dict())


class TestRoundTrip:
    def test_save_load_equality(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result()
        store.save("abc123", result, config=SAMPLE_CONFIG)
        loaded = store.load("abc123")
        assert loaded is not None
        assert loaded.statistically_equal(result)
        assert loaded.metadata == result.metadata

    def test_arrays_bit_exact(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result(lpr_total=np.array([0.1, 1e-300, 0.3]),
                             lpr_data=np.zeros(3), lpr_parity=np.zeros(3), rounds=3)
        store.save("k", result)
        loaded = store.load("k")
        np.testing.assert_array_equal(loaded.lpr_total, result.lpr_total)

    def test_contains_and_len(self, tmp_path):
        store = ResultStore(tmp_path)
        assert "missing" not in store
        store.save("k1", make_result())
        store.save("k2", make_result())
        assert "k1" in store
        assert len(store) == 2
        assert sorted(store.keys()) == ["k1", "k2"]

    def test_remove(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("k", make_result())
        store.remove("k")
        assert store.load("k") is None
        store.remove("k")  # idempotent

    def test_empty_lpr_arrays_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        empty = np.zeros(0)
        result = make_result(lpr_total=empty, lpr_data=empty, lpr_parity=empty, rounds=0)
        store.save("k", result)
        loaded = store.load("k")
        assert loaded.statistically_equal(result)
        assert loaded.lpr_total.dtype == np.float64 and loaded.lpr_total.shape == (0,)

    def test_entry_is_one_json_file(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("k", make_result(), config=SAMPLE_CONFIG)
        assert [p.name for p in tmp_path.iterdir()] == ["k.json"]
        payload = json.loads(store.json_path("k").read_text())
        assert sorted(payload) == ["config", "format", "key", "result"]
        assert payload["key"] == "k"

    def test_saved_json_records_config(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("k", make_result(), config=SAMPLE_CONFIG)
        payload = json.loads(store.json_path("k").read_text())
        assert payload["config"] == SAMPLE_CONFIG


def _write_format_1_entry(store, key):
    """An entry in the old two-file layout: scalars in JSON, arrays in .npz."""
    scalars, arrays = make_result().to_state()
    np.savez_compressed(store.json_path(key).with_suffix(".npz"), **arrays)
    store.json_path(key).write_text(
        json.dumps({"format": 1, "key": key, "config": None, "result": scalars})
    )


class TestPartialAndCorruptEntries:
    def test_missing_entry_is_a_miss(self, tmp_path):
        assert ResultStore(tmp_path).load("nothing") is None

    def test_torn_json_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("k", make_result())
        store.json_path("k").write_text('{"format": 1, "resul')
        assert store.load("k") is None

    def test_json_without_arrays_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("k", make_result())
        payload = json.loads(store.json_path("k").read_text())
        del payload["result"]["arrays"]
        store.json_path("k").write_text(json.dumps(payload))
        assert store.load("k") is None

    def test_garbage_arrays_are_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("k", make_result())
        payload = json.loads(store.json_path("k").read_text())
        garbage_values = [
            "not a list", 0.5, [[0.1], [0.2, 0.3]], [[0.1, 0.2]], ["x", "y"], {"a": 1}, None
        ]
        for garbage in garbage_values:
            payload["result"]["arrays"]["lpr_total"] = garbage
            store.json_path("k").write_text(json.dumps(payload))
            assert store.load("k") is None, garbage

    def test_non_object_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.json_path("k").write_text("[1, 2, 3]")
        assert store.load("k") is None

    def test_entry_under_another_key_is_a_miss(self, tmp_path):
        """Regression: an entry copied or renamed to another hash is not served."""
        store = ResultStore(tmp_path)
        store.save("k", make_result())
        store.json_path("other").write_bytes(store.json_path("k").read_bytes())
        assert store.load("other") is None
        store.json_path("k").rename(store.json_path("moved"))
        assert store.load("moved") is None
        assert store.load("k") is None

    def test_format_version_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("k", make_result())
        payload = json.loads(store.json_path("k").read_text())
        payload["format"] = 999
        store.json_path("k").write_text(json.dumps(payload))
        assert store.load("k") is None

    def test_keys_and_len_list_only_entries_load_serves(self, tmp_path):
        """Regression: a format-1 entry and an entry filed under another key
        read as misses, so they are not listed or counted either."""
        store = ResultStore(tmp_path)
        store.save("good", make_result())
        _write_format_1_entry(store, "old")
        store.json_path("other").write_bytes(store.json_path("good").read_bytes())
        assert list(store.keys()) == ["good"]
        assert len(store) == 1

    def test_rewrite_deletes_format_1_arrays(self, tmp_path):
        store = ResultStore(tmp_path)
        _write_format_1_entry(store, "k")
        store.save("k", make_result())
        assert store.load("k") is not None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k.json"]

    def test_remove_deletes_format_1_arrays(self, tmp_path):
        store = ResultStore(tmp_path)
        _write_format_1_entry(store, "k")
        store.remove("k")
        assert list(tmp_path.iterdir()) == []

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("k", make_result())
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []
