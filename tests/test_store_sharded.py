"""Sharded result store: layout, migration, concurrency, and durability.

Satellites of the sweep-service PR.  The sharded layout is what lets the
service's worker pool hammer one cache without contending on a single
directory; these tests prove:

* keys partition deterministically into ``shard-XXX/`` directories and a
  ``.store-meta.json`` marker records the shard count;
* a flat store migrates into shards with every entry preserved bit-for-bit,
  and reads stay correct before and after each entry's one-rename move
  (flat fallback);
* N concurrent writer processes with overlapping keys never surface a torn
  entry as data (torn reads as miss is the store's crash contract);
* the fsync-before-rename ordering bugfix: an entry is published by one
  rename, preceded by the data fsync and followed by the directory fsync,
  and a crash injected between the data write and the rename must leave the
  store without the entry rather than with a committed-but-empty file.
"""

import json
import multiprocessing
import os
import pathlib
import sys

import numpy as np
import pytest

from repro.experiments.metrics import SpeculationCounts
from repro.experiments.results import MemoryExperimentResult
from repro.experiments.store import (
    DEFAULT_SERVICE_SHARDS,
    STORE_META_FILE,
    InMemoryResultStore,
    ResultStore,
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


def fake_key(index: int) -> str:
    return f"{index:08x}" + "0" * 56


class TestShardedLayout:
    def test_entries_land_in_shard_directories(self, tmp_path):
        store = ResultStore(tmp_path, shards=4)
        for index in range(8):
            store.save(fake_key(index), make_result(shots=40 + index))
        for index in range(8):
            expected_dir = tmp_path / f"shard-{index % 4:03d}"
            assert (expected_dir / f"{fake_key(index)}.json").exists()
        assert sorted(store.keys()) == sorted(fake_key(i) for i in range(8))

    def test_meta_marker_recorded_and_adopted(self, tmp_path):
        ResultStore(tmp_path, shards=4)
        meta = json.loads((tmp_path / STORE_META_FILE).read_text())
        assert meta["shards"] == 4
        # Reopening without an explicit count adopts the recorded one.
        assert ResultStore(tmp_path).shards == 4

    def test_conflicting_shard_count_rejected(self, tmp_path):
        ResultStore(tmp_path, shards=4)
        with pytest.raises(ValueError, match="shard"):
            ResultStore(tmp_path, shards=8)

    def test_invalid_shard_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, shards=0)

    def test_flat_store_records_no_meta(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.shards == 1
        assert not (tmp_path / STORE_META_FILE).exists()

    def test_meta_file_never_reported_as_key(self, tmp_path):
        store = ResultStore(tmp_path, shards=4)
        store.save(fake_key(1), make_result())
        assert list(store.keys()) == [fake_key(1)]

    def test_default_service_shard_count_sane(self):
        assert DEFAULT_SERVICE_SHARDS > 1

    def test_sharded_round_trip_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path, shards=4)
        result = make_result()
        store.save(fake_key(3), result)
        loaded = ResultStore(tmp_path).load(fake_key(3))
        assert loaded is not None
        assert loaded.statistically_equal(result)


class TestMigration:
    def test_flat_entries_readable_through_sharded_store(self, tmp_path):
        flat = ResultStore(tmp_path / "cache")
        result = make_result()
        flat.save(fake_key(5), result)
        sharded = ResultStore(tmp_path / "cache", shards=4)
        loaded = sharded.load(fake_key(5))
        assert loaded is not None and loaded.statistically_equal(result)
        assert list(sharded.keys()) == [fake_key(5)]

    def test_migration_preserves_every_entry(self, tmp_path):
        root = tmp_path / "cache"
        flat = ResultStore(root)
        originals = {}
        for index in range(10):
            key = fake_key(index)
            originals[key] = make_result(shots=50 + index)
            flat.save(key, originals[key])
        sharded = ResultStore(root, shards=4)
        moved = sharded.migrate_flat_entries()
        assert moved == 10
        assert sorted(sharded.keys()) == sorted(originals)
        for key, original in originals.items():
            assert not (root / f"{key}.json").exists()  # actually moved
            loaded = sharded.load(key)
            assert loaded is not None and loaded.statistically_equal(original)

    def test_migration_noop_for_flat_store(self, tmp_path):
        flat = ResultStore(tmp_path)
        flat.save(fake_key(1), make_result())
        assert flat.migrate_flat_entries() == 0
        assert flat.load(fake_key(1)) is not None

    def test_migration_idempotent(self, tmp_path):
        root = tmp_path / "cache"
        ResultStore(root).save(fake_key(1), make_result())
        sharded = ResultStore(root, shards=4)
        assert sharded.migrate_flat_entries() == 1
        assert sharded.migrate_flat_entries() == 0

    def test_remove_covers_both_layouts(self, tmp_path):
        root = tmp_path / "cache"
        ResultStore(root).save(fake_key(2), make_result())
        sharded = ResultStore(root, shards=4)
        sharded.save(fake_key(3), make_result())
        sharded.remove(fake_key(2))
        sharded.remove(fake_key(3))
        assert list(sharded.keys()) == []

    def test_rewrite_after_migration_deletes_flat_format_1_arrays(self, tmp_path):
        """A format-1 entry's ``.npz`` stays in the root when its JSON
        migrates into a shard; the recompute that rewrites it deletes it."""
        root = tmp_path / "cache"
        root.mkdir()
        key = fake_key(4)
        scalars, arrays = make_result().to_state()
        np.savez_compressed(root / f"{key}.npz", **arrays)
        (root / f"{key}.json").write_text(
            json.dumps({"format": 1, "key": key, "config": None, "result": scalars})
        )
        sharded = ResultStore(root, shards=4)
        assert sharded.migrate_flat_entries() == 1
        assert sharded.load(key) is None
        sharded.save(key, make_result())
        assert list(root.rglob("*.npz")) == []


class TestRecords:
    """Keyed JSON records live in ``records/``, apart from the entries."""

    PAYLOAD = {"labels": ["initial"], "series": [[1.0, 0.1, 1e-300]]}

    @pytest.mark.parametrize("shards", [1, 4])
    def test_records_are_not_entries(self, tmp_path, shards):
        store = ResultStore(tmp_path, shards=shards)
        store.save(fake_key(1), make_result())
        store.save_record(fake_key(2), self.PAYLOAD)
        assert list(store.keys()) == [fake_key(1)]
        assert len(store) == 1
        assert store.migrate_flat_entries() == 0
        assert store.load_record(fake_key(2)) == self.PAYLOAD

    def test_migration_leaves_records_in_place(self, tmp_path):
        root = tmp_path / "cache"
        flat = ResultStore(root)
        flat.save(fake_key(1), make_result())
        flat.save_record(fake_key(2), self.PAYLOAD)
        record = flat.record_path(fake_key(2))

        sharded = ResultStore(root, shards=4)
        assert sharded.migrate_flat_entries() == 1
        assert list(sharded.keys()) == [fake_key(1)]
        assert len(sharded) == 1
        assert sharded.record_path(fake_key(2)) == record
        assert sharded.load_record(fake_key(2)) == self.PAYLOAD

    def test_missing_record_is_a_miss(self, tmp_path):
        assert ResultStore(tmp_path).load_record(fake_key(3)) is None
        assert InMemoryResultStore().load_record(fake_key(3)) is None

    def test_in_memory_round_trip(self):
        store = InMemoryResultStore()
        store.save_record(fake_key(2), self.PAYLOAD)
        assert store.load_record(fake_key(2)) == self.PAYLOAD
        assert len(store) == 0


class TestTornEntries:
    def test_truncated_json_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path, shards=4)
        key = fake_key(7)
        store.save(key, make_result())
        store.json_path(key).write_text("{\"format\":", encoding="utf-8")
        assert store.load(key) is None

    def _rewrite_arrays(self, store, key, arrays):
        payload = json.loads(store.json_path(key).read_text(encoding="utf-8"))
        if arrays is None:
            del payload["result"]["arrays"]
        else:
            payload["result"]["arrays"] = arrays
        store.json_path(key).write_text(json.dumps(payload), encoding="utf-8")

    def test_garbage_arrays_read_as_miss(self, tmp_path):
        store = ResultStore(tmp_path, shards=4)
        key = fake_key(7)
        store.save(key, make_result())
        self._rewrite_arrays(store, key, {"lpr_total": "\x00garbage"})
        assert store.load(key) is None

    def test_missing_arrays_read_as_miss(self, tmp_path):
        store = ResultStore(tmp_path, shards=4)
        key = fake_key(7)
        store.save(key, make_result())
        self._rewrite_arrays(store, key, None)
        assert store.load(key) is None


class TestDurability:
    """Regression: data must be fsynced before the rename publishes it."""

    def test_fsync_ordered_before_replace(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            "repro.experiments.store.os.fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            "repro.experiments.store.os.replace",
            lambda a, b: (events.append("replace"), real_replace(a, b))[1],
        )
        ResultStore(tmp_path).save(fake_key(1), make_result())
        # One entry file: its data fsync, the one rename, the directory fsync.
        assert events == ["fsync", "replace", "fsync"]
        assert [p.name for p in tmp_path.iterdir()] == [f"{fake_key(1)}.json"]

    def test_crash_between_write_and_rename_leaves_no_entry(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        key = fake_key(2)

        def exploding_replace(src, dst):
            raise OSError("injected crash between write and rename")

        monkeypatch.setattr("repro.experiments.store.os.replace", exploding_replace)
        with pytest.raises(OSError, match="injected crash"):
            store.save(key, make_result())
        monkeypatch.undo()
        # Nothing was published, not even half an entry, and no temp litter
        # is left behind to be mistaken for one.
        assert store.load(key) is None
        assert list(store.keys()) == []
        assert list(tmp_path.iterdir()) == []
        # The interrupted save can simply be repeated.
        store.save(key, make_result())
        assert store.load(key) is not None


def _stress_writer(root: str, worker: int, keys: int) -> int:
    """Subprocess body: repeatedly save overlapping keys into one store."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from repro.experiments.store import ResultStore as Store

    store = Store(root)
    wrote = 0
    for round_index in range(3):
        for index in range(keys):
            key = f"{index:08x}" + "0" * 56
            store.save(
                key,
                make_result(shots=100 + index, logical_errors=index % 5),
            )
            wrote += 1
    return wrote


class TestConcurrency:
    def test_concurrent_writers_never_surface_torn_entries(self, tmp_path):
        root = str(tmp_path / "cache")
        keys = 6
        ResultStore(root, shards=4)  # establish meta before racing
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            async_results = [
                pool.apply_async(_stress_writer, (root, worker, keys))
                for worker in range(4)
            ]
            # Read concurrently with the writers: every load must be either
            # a complete, well-formed entry or a clean miss — never garbage.
            reader = ResultStore(root)
            observed = 0
            while any(not r.ready() for r in async_results):
                for index in range(keys):
                    loaded = reader.load(f"{index:08x}" + "0" * 56)
                    if loaded is not None:
                        assert loaded.shots == 100 + index
                        observed += 1
            counts = [r.get() for r in async_results]
        assert all(count == 3 * keys for count in counts)
        # After the dust settles every key is present and well-formed.
        for index in range(keys):
            final = reader.load(f"{index:08x}" + "0" * 56)
            assert final is not None and final.shots == 100 + index

    def test_migration_races_with_readers(self, tmp_path):
        root = tmp_path / "cache"
        flat = ResultStore(root)
        for index in range(8):
            flat.save(fake_key(index), make_result(shots=10 + index))
        sharded = ResultStore(root, shards=4)
        reader = ResultStore(root)
        # Interleave migration and reads key by key: the flat fallback keeps
        # every key readable before and after each entry's single rename.
        for path in sorted(pathlib.Path(root).glob("*.json")):
            if not ResultStore._is_entry_key(path.stem):
                continue
            key = path.stem
            sharded.shard_dir(key).mkdir(parents=True, exist_ok=True)
            os.replace(path, sharded.json_path(key))
            for index in range(8):
                assert reader.load(fake_key(index)) is not None
        assert sharded.migrate_flat_entries() == 0
        flat_left = pathlib.Path(root).glob("*.json")
        assert not [p for p in flat_left if ResultStore._is_entry_key(p.stem)]
        for index in range(8):
            loaded = reader.load(fake_key(index))
            assert loaded is not None and loaded.shots == 10 + index
