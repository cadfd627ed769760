"""CacheStore resilience: corruption, version skew, batching, maintenance.

A damaged cache must never crash a study or serve wrong data — every
bad pack is detected, logged through the Recorder, deleted, and the
values transparently recomputed.
"""

from __future__ import annotations

import errno
import logging
import os
import pickle
import shutil
from pathlib import Path

import pytest

from repro.cache.result_cache import ResultCache
from repro.cache.schema import CACHE_SCHEMA_VERSION
from repro.cache.store import CacheEntryStatus, CacheStore, pack_bytes
from repro.obs.recorder import Recorder, recording


@pytest.fixture
def root(tmp_path):
    return tmp_path / "cache"


def _packs(root: Path, namespace: str) -> list[Path]:
    return sorted((root / namespace).glob("*.pack"))


def _only_pack(root: Path, namespace: str) -> Path:
    (pack,) = _packs(root, namespace)
    return pack


def _envelope(key_hash, value="value", *, schema=CACHE_SCHEMA_VERSION,
              namespace="schedule"):
    return pickle.dumps(
        {"schema": schema, "namespace": namespace, "key": key_hash,
         "value": value}
    )


def _pack(schema, namespace, blobs) -> bytes:
    return pack_bytes(schema, namespace, blobs)[0]


KEY = "ab" + "0" * 62  # hash-shaped
OTHER = "cd" + "1" * 62


def _fail_replace_in(root, monkeypatch):
    """Make ``os.replace`` into ``root`` fail as a full disk does."""
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).startswith(str(root)):
            raise OSError(errno.ENOSPC, "No space left on device", str(dst))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)


class TestRoundTrip:
    def test_put_get(self, root):
        store = CacheStore(root)
        store.put("schedule", KEY, {"makespan": 12.5})
        assert store.get("schedule", KEY) == (True, {"makespan": 12.5})

    def test_cached_none_is_a_hit(self, root):
        store = CacheStore(root)
        store.put("schedule", KEY, None)
        assert store.get("schedule", KEY) == (True, None)

    def test_miss(self, root):
        assert CacheStore(root).get("schedule", KEY) == (False, None)

    def test_layout_is_flat_per_layer(self, root):
        store = CacheStore(root)
        nbytes = store.put("schedule", KEY, "value")
        path = root / "schedule" / f"{os.getpid()}-1.pack"
        # A one-entry pack: the envelope, its index and the footer.
        assert path.stat().st_size > nbytes > 0
        # Nothing but the published pack: no fan-out dir, no temp file.
        assert sorted(root.rglob("*")) == [root / "schedule", path]

    def test_layer_directory_is_created_once(self, root, monkeypatch):
        calls = []
        real_makedirs = os.makedirs

        def makedirs(name, *args, **kwargs):
            calls.append(Path(name))
            return real_makedirs(name, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", makedirs)
        root.mkdir()
        store = CacheStore(root)
        for namespace in ("schedule", "simulation"):
            for i in range(4):
                store.put(namespace, f"{i:064x}", i)
        assert calls == [root / "schedule", root / "simulation"]

    def test_every_lookup_reads_the_disk(self, root):
        # Only the index is held in memory: once the pack is gone, so
        # is the entry.
        store = CacheStore(root)
        store.put("schedule", KEY, "value")
        assert store.contains("schedule", KEY)
        shutil.rmtree(root)
        assert store.get("schedule", KEY) == (False, None)
        assert store.peek("schedule", KEY) == (False, None)
        assert not store.contains("schedule", KEY)

    def test_put_snapshots_the_value(self, root):
        store = CacheStore(root)
        value = {"makespan": 1.0}
        with store.batch():
            store.put("schedule", KEY, value)
            value["makespan"] = 2.0  # the caller mutates after the put
            assert store.get("schedule", KEY) == (True, {"makespan": 1.0})
        assert store.get("schedule", KEY) == (True, {"makespan": 1.0})

    def test_put_returns_the_envelope_size(self, root):
        store = CacheStore(root)
        with store.batch():
            buffered = store.put("schedule", KEY, "value")
        assert buffered == store.put("schedule", OTHER, "value") > 0


class TestBatches:
    def test_batch_publishes_one_pack_per_layer_on_exit(self, root):
        store = CacheStore(root)
        with store.batch():
            for i in range(5):
                store.put("schedule", f"{i:064x}", i)
                store.put("simulation", f"{i:064x}", -i)
            assert not root.exists()  # nothing published yet
        assert len(_packs(root, "schedule")) == 1
        assert len(_packs(root, "simulation")) == 1
        reader = CacheStore(root)
        for i in range(5):
            assert reader.get("schedule", f"{i:064x}") == (True, i)
            assert reader.get("simulation", f"{i:064x}") == (True, -i)

    def test_pending_entries_are_visible_to_every_read(self, root):
        store = CacheStore(root)
        recorder = Recorder.to_memory()
        with recording(recorder), store.batch():
            store.put("schedule", KEY, "value")
            assert store.contains("schedule", KEY)
            assert store.peek("schedule", KEY) == (True, "value")
            assert store.get("schedule", KEY) == (True, "value")
            assert not CacheStore(root).contains("schedule", KEY)
        counters = recorder.metrics()["counters"]
        assert counters["cache.bytes_read"] > 0
        assert counters["cache.bytes_written"] == counters["cache.bytes_read"]

    def test_nested_batches_publish_once(self, root):
        store = CacheStore(root)
        with store.batch():
            store.put("schedule", KEY, 1)
            with store.batch():
                store.put("schedule", OTHER, 2)
            assert not root.exists()
        assert len(_packs(root, "schedule")) == 1

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_batch_publishes_when_interrupted(self, root, error):
        store = CacheStore(root)
        with pytest.raises(error):
            with store.batch():
                store.put("schedule", KEY, "done before the failure")
                raise error()
        assert CacheStore(root).get("schedule", KEY) == (
            True, "done before the failure",
        )

    def test_outside_a_batch_each_put_publishes(self, root):
        store = CacheStore(root)
        store.put("schedule", KEY, 1)
        store.put("schedule", OTHER, 2)
        assert len(_packs(root, "schedule")) == 2

    def test_flush_publishes_inside_a_batch(self, root):
        store = CacheStore(root)
        with store.batch():
            store.put("schedule", KEY, 1)
            assert store.flush() == 1
            assert CacheStore(root).get("schedule", KEY) == (True, 1)
            store.put("schedule", OTHER, 2)
        assert len(_packs(root, "schedule")) == 2

    def test_reset_pending_publishes_nothing(self, root):
        store = CacheStore(root)
        with store.batch():
            store.put("schedule", KEY, 1)
            store.reset_pending()
            assert store.get("schedule", KEY) == (False, None)
            # The batch is left too: the next put publishes at once.
            store.put("schedule", OTHER, 2)
            assert CacheStore(root).get("schedule", OTHER) == (True, 2)
        assert len(_packs(root, "schedule")) == 1

    def test_packs_of_other_writers_are_found_on_a_miss(self, root):
        reader = CacheStore(root)
        reader.put("schedule", KEY, 1)  # the reader has listed the layer
        assert reader.get("schedule", OTHER) == (False, None)
        CacheStore(root).put("schedule", OTHER, 2)  # another writer
        assert reader.get("schedule", OTHER) == (True, 2)

    def test_a_name_left_by_an_earlier_process_is_not_replaced(self, root):
        # pids are reused: an earlier process with this pid may have
        # left a pack under the name this store would pick first.
        CacheStore(root).put("schedule", KEY, "earlier run")
        fresh = CacheStore(root)
        fresh.put("schedule", OTHER, "this run")
        assert len(_packs(root, "schedule")) == 2
        reader = CacheStore(root)
        assert reader.get("schedule", KEY) == (True, "earlier run")
        assert reader.get("schedule", OTHER) == (True, "this run")


class TestWriteFailures:
    """A failed write is counted and skipped, never fatal."""

    def _put_failing(self, store, caplog):
        recorder = Recorder.to_memory()
        with recording(recorder), caplog.at_level(
            logging.WARNING, logger="repro.cache.store"
        ):
            written = [store.put("schedule", f"{i:064x}", i) for i in range(3)]
        assert written == [0, 0, 0]
        counters = recorder.metrics()["counters"]
        assert counters["cache.write_errors"] == 3
        assert "cache.bytes_written" not in counters
        # One warning per store, naming the directory.
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert str(store.root) in warnings[0].getMessage()

    def test_full_disk(self, root, monkeypatch, caplog):
        _fail_replace_in(root, monkeypatch)
        store = CacheStore(root)
        self._put_failing(store, caplog)
        # The temporary files were cleaned up, nothing was published.
        assert list((root / "schedule").iterdir()) == []
        assert store.get("schedule", f"{0:064x}") == (False, None)

    def test_failed_batch_counts_every_lost_entry(
        self, root, monkeypatch, caplog
    ):
        _fail_replace_in(root, monkeypatch)
        store = CacheStore(root)
        recorder = Recorder.to_memory()
        with recording(recorder), caplog.at_level(
            logging.WARNING, logger="repro.cache.store"
        ):
            with store.batch():
                for i in range(4):
                    store.put("schedule", f"{i:064x}", i)
                store.put("simulation", KEY, "trace")
        counters = recorder.metrics()["counters"]
        assert counters["cache.write_errors"] == 5
        assert "cache.bytes_written" not in counters
        assert len(caplog.records) == 1
        assert store.get("schedule", f"{0:064x}") == (False, None)

    @pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0,
        reason="permission bits do not bind the superuser",
    )
    def test_read_only_directory(self, root, caplog):
        root.mkdir()
        root.chmod(0o555)
        try:
            self._put_failing(CacheStore(root), caplog)
        finally:
            root.chmod(0o755)

    def test_unusable_root(self, tmp_path, caplog):
        # A regular file where the cache directory should be.
        root = tmp_path / "cache"
        root.write_bytes(b"not a directory")
        self._put_failing(CacheStore(root), caplog)

    def test_failed_write_falls_back_to_computing(self, root, monkeypatch):
        _fail_replace_in(root, monkeypatch)
        cache = ResultCache(root)
        assert cache.get_or_compute("schedule", {"k": 1}, lambda: 41) == 41
        assert cache.get_or_compute("schedule", {"k": 1}, lambda: 42) == 42


def _flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x40
    path.write_bytes(bytes(data))


class TestCorruptionAndSkew:
    def _assert_discarded(self, root, status, mutate):
        """Write an entry, damage its pack with ``mutate``, then re-read."""
        writer = CacheStore(root)
        writer.put("schedule", KEY, "good value")
        pack = _only_pack(root, "schedule")
        mutate(pack)

        recorder = Recorder.to_memory()
        reader = CacheStore(root)
        with recording(recorder):
            # A side-effect-free probe neither counts nor deletes.
            assert reader.peek("schedule", KEY) == (False, None)
            assert pack.exists()
            found, value = reader.get("schedule", KEY)
        assert (found, value) == (False, None)
        # ... detected and counted ...
        counters = recorder.metrics()["counters"]
        assert counters[f"cache.discarded.{status}"] == 1
        # ... logged through the Recorder ...
        events = [
            r for r in recorder.sink.records if r.get("name") == "cache.discard"
        ]
        assert len(events) == 1 and events[0]["reason"] == status
        # ... and deleted, so the next read is a clean miss.
        assert not pack.exists()
        assert reader.get("schedule", KEY) == (False, None)

    def test_truncated_entry_is_discarded(self, root):
        self._assert_discarded(
            root,
            CacheEntryStatus.CORRUPT,
            lambda path: path.write_bytes(path.read_bytes()[:-10]),
        )

    def test_bit_flipped_entry_is_discarded(self, root):
        # Byte 20 lies inside the pickled envelope, before the index.
        self._assert_discarded(
            root, CacheEntryStatus.CORRUPT, lambda path: _flip_byte(path, 20)
        )

    def test_bit_flipped_index_is_discarded(self, root):
        self._assert_discarded(
            root, CacheEntryStatus.CORRUPT, lambda path: _flip_byte(path, -40)
        )

    def test_garbage_entry_is_discarded(self, root):
        self._assert_discarded(
            root,
            CacheEntryStatus.CORRUPT,
            lambda path: path.write_bytes(b"not a pickle at all"),
        )

    def test_non_envelope_pickle_is_discarded(self, root):
        self._assert_discarded(
            root,
            CacheEntryStatus.CORRUPT,
            lambda path: path.write_bytes(
                _pack(
                    CACHE_SCHEMA_VERSION, "schedule",
                    {KEY: pickle.dumps([1, 2, 3])},
                )
            ),
        )

    def test_stale_schema_entry_is_discarded(self, root):
        def rewrite_with_old_schema(path):
            path.write_bytes(
                _pack(
                    CACHE_SCHEMA_VERSION, "schedule",
                    {KEY: _envelope(KEY, schema="repro-cache-0")},
                )
            )

        self._assert_discarded(
            root, CacheEntryStatus.STALE, rewrite_with_old_schema
        )

    def test_stale_schema_pack_is_discarded(self, root):
        def rewrite_with_old_schema(path):
            path.write_bytes(
                _pack(
                    "repro-cache-0", "schedule",
                    {KEY: _envelope(KEY, schema="repro-cache-0")},
                )
            )

        self._assert_discarded(
            root, CacheEntryStatus.STALE, rewrite_with_old_schema
        )

    def test_misplaced_entry_is_discarded(self, root):
        def misfile(path):
            # A valid envelope for a *different* key under this key:
            # misindexed or hash-collided entries can never be trusted.
            path.write_bytes(
                _pack(
                    CACHE_SCHEMA_VERSION, "schedule",
                    {KEY: _envelope(OTHER)},
                )
            )

        self._assert_discarded(root, CacheEntryStatus.CORRUPT, misfile)

    def test_forged_key_in_an_otherwise_valid_pack_is_rejected(self, root):
        # Every checksum holds and the neighbours are good entries; the
        # one envelope whose key differs from its index key still
        # condemns the pack.
        (root / "schedule").mkdir(parents=True)
        keys = [f"{i:064x}" for i in range(3)]
        blobs = {key: _envelope(key, value=i) for i, key in enumerate(keys)}
        blobs[keys[1]] = _envelope(OTHER, value="forged")
        pack = root / "schedule" / "1-1.pack"
        pack.write_bytes(_pack(CACHE_SCHEMA_VERSION, "schedule", blobs))

        store = CacheStore(root)
        assert store.peek("schedule", keys[0]) == (True, 0)
        recorder = Recorder.to_memory()
        with recording(recorder):
            assert store.get("schedule", keys[1]) == (False, None)
            assert store.get("schedule", keys[0]) == (False, None)
        counters = recorder.metrics()["counters"]
        assert counters["cache.discarded.corrupt"] == 1
        assert not pack.exists()
        assert store.info().entries == 0

    def test_misplaced_pack_is_discarded(self, root):
        def move_from_another_layer(path):
            path.write_bytes(
                _pack(
                    CACHE_SCHEMA_VERSION, "simulation",
                    {KEY: _envelope(KEY, namespace="simulation")},
                )
            )

        self._assert_discarded(
            root, CacheEntryStatus.CORRUPT, move_from_another_layer
        )

    def test_damaged_entry_is_transparently_recomputed(self, root):
        cache = ResultCache(root)
        key = {"dag": "diamond", "algorithm": "hcpa"}
        assert cache.get_or_compute("schedule", key, lambda: 41) == 41
        _only_pack(root, "schedule").write_bytes(b"\x00 bit rot \x00")

        recorder = Recorder.to_memory()
        fresh = ResultCache(root)
        with recording(recorder):
            value = fresh.get_or_compute("schedule", key, lambda: 42)
        assert value == 42  # recomputed, never crashed
        counters = recorder.metrics()["counters"]
        assert counters["cache.misses"] == 1
        assert counters["cache.discarded.corrupt"] == 1
        # The recomputed value was re-persisted.
        assert ResultCache(root).get_or_compute(
            "schedule", key, lambda: 43
        ) == 42


class TestMaintenance:
    def _populate(self, root):
        store = CacheStore(root)
        with store.batch():
            store.put("schedule", KEY, "a")
            store.put("simulation", KEY, "b")
            store.put("simulation", OTHER, "c")
        old = CacheStore(root, schema="repro-cache-0")
        old.put("schedule", OTHER, "stale")
        (root / "simulation" / "9-9.pack").write_bytes(b"garbage")
        return store

    def test_info_tallies_by_status_and_namespace(self, root):
        info = self._populate(root).info()
        assert info.schema == CACHE_SCHEMA_VERSION
        assert info.entries == 3
        assert info.stale_entries == 1
        assert info.corrupt_entries == 1
        assert info.bytes > 0
        assert info.namespaces["schedule"]["entries"] == 1
        assert info.namespaces["simulation"]["entries"] == 2
        assert set(info.to_dict()) >= {"root", "entries", "namespaces"}

    def test_prune_removes_only_bad_entries(self, root):
        store = self._populate(root)
        assert store.prune() == 2
        info = store.info()
        assert info.entries == 3
        assert info.stale_entries == 0 and info.corrupt_entries == 0
        assert len(list(root.rglob("*.pack"))) == 2

    def test_clear_removes_everything(self, root):
        store = self._populate(root)
        assert store.clear() == 5
        assert not root.exists()
        assert store.info().entries == 0
        assert store.get("schedule", KEY) == (False, None)

    def _legacy_entries(self, root):
        """One flat ``<layer>/<hash>.pkl`` entry and one in the fanned-out
        ``<layer>/<hash[:2]>/<hash>.pkl`` layout, both carrying the
        current schema."""
        paths = []
        for rel in ("cd" + "3" * 62 + ".pkl", "cd/" + "cd" + "4" * 62 + ".pkl"):
            path = root / "schedule" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(_envelope(path.stem, "old layout"))
            paths.append(path)
        return paths

    def test_legacy_layout_entries_are_stale(self, root):
        store = self._populate(root)
        legacy = self._legacy_entries(root)
        info = store.info()
        assert info.entries == 3
        assert info.stale_entries == 3
        for path in legacy:
            assert store.get("schedule", path.stem) == (False, None)
            assert path.exists()  # reads never reach the old layouts

    def test_prune_removes_legacy_layout_entries(self, root):
        store = self._populate(root)
        flat, fanned = self._legacy_entries(root)
        assert store.prune() == 4
        assert not flat.exists() and not fanned.exists()
        assert not fanned.parent.exists()  # the emptied fan-out dir
        info = store.info()
        assert info.entries == 3 and info.stale_entries == 0

    def test_prune_removes_temporary_files_of_killed_writers(self, root):
        store = self._populate(root)
        leftover = root / "schedule" / ".123.pack.tmp"
        leftover.write_bytes(b"half a pack")
        assert store.info().stale_entries == 2
        store.prune()
        assert not leftover.exists()

    def test_clear_counts_legacy_layout_entries(self, root):
        store = self._populate(root)
        self._legacy_entries(root)
        assert store.clear() == 7
        assert not root.exists()
