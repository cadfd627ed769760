"""CacheStore resilience: corruption, version skew, atomicity, maintenance.

A damaged cache must never crash a study or serve wrong data — every
bad entry is detected, logged through the Recorder, deleted, and the
value transparently recomputed.
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
from repro.cache.store import CacheEntryStatus, CacheStore
from repro.obs.recorder import Recorder, recording


@pytest.fixture
def root(tmp_path):
    return tmp_path / "cache"


def _entry_file(store: CacheStore, namespace: str, key_hash: str) -> Path:
    return Path(store._entry_path(namespace, key_hash))


KEY = "ab" + "0" * 62  # hash-shaped


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
        path = root / "schedule" / f"{KEY}.pkl"
        assert _entry_file(store, "schedule", KEY) == path
        assert path.stat().st_size == nbytes > 0
        # Nothing but the published entry: no fan-out dir, no temp file.
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
        # No in-memory tier: once the file is gone, so is the entry.
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
        store.put("schedule", KEY, value)
        value["makespan"] = 2.0  # the caller mutates after the put
        assert store.get("schedule", KEY) == (True, {"makespan": 1.0})


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


class TestCorruptionAndSkew:
    def _assert_discarded(self, root, status, mutate):
        """Write an entry, damage it with ``mutate``, then re-read."""
        writer = CacheStore(root)
        writer.put("schedule", KEY, "good value")
        mutate(_entry_file(writer, "schedule", KEY))

        recorder = Recorder.to_memory()
        reader = CacheStore(root)
        with recording(recorder):
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
        assert not _entry_file(reader, "schedule", KEY).exists()

    def test_truncated_entry_is_discarded(self, root):
        self._assert_discarded(
            root,
            CacheEntryStatus.CORRUPT,
            lambda path: path.write_bytes(path.read_bytes()[: 10]),
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
            lambda path: path.write_bytes(pickle.dumps([1, 2, 3])),
        )

    def test_stale_schema_entry_is_discarded(self, root):
        def rewrite_with_old_schema(path):
            envelope = pickle.loads(path.read_bytes())
            envelope["schema"] = "repro-cache-0"
            path.write_bytes(pickle.dumps(envelope))

        self._assert_discarded(
            root, CacheEntryStatus.STALE, rewrite_with_old_schema
        )

    def test_misplaced_entry_is_discarded(self, root):
        def misfile(path):
            # A valid envelope for a *different* key under this name:
            # renamed or hash-collided files can never be trusted.
            envelope = pickle.loads(path.read_bytes())
            envelope["key"] = "cd" + "1" * 62
            path.write_bytes(pickle.dumps(envelope))

        self._assert_discarded(root, CacheEntryStatus.CORRUPT, misfile)

    def test_damaged_entry_is_transparently_recomputed(self, root):
        cache = ResultCache(root)
        key = {"dag": "diamond", "algorithm": "hcpa"}
        assert cache.get_or_compute("schedule", key, lambda: 41) == 41
        _entry_file(cache.store, "schedule", cache.key_hash(key)).write_bytes(
            b"\x00 bit rot \x00"
        )

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
        store.put("schedule", KEY, "a")
        store.put("simulation", KEY, "b")
        old = CacheStore(root, schema="repro-cache-0")
        old.put("schedule", "cd" + "1" * 62, "stale")
        bad = _entry_file(store, "simulation", "ef" + "2" * 62)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(b"garbage")
        return store

    def test_info_tallies_by_status_and_namespace(self, root):
        info = self._populate(root).info()
        assert info.schema == CACHE_SCHEMA_VERSION
        assert info.entries == 2
        assert info.stale_entries == 1
        assert info.corrupt_entries == 1
        assert info.bytes > 0
        assert info.namespaces["schedule"]["entries"] == 1
        assert info.namespaces["simulation"]["entries"] == 1
        assert set(info.to_dict()) >= {"root", "entries", "namespaces"}

    def test_prune_removes_only_bad_entries(self, root):
        store = self._populate(root)
        assert store.prune() == 2
        info = store.info()
        assert info.entries == 2
        assert info.stale_entries == 0 and info.corrupt_entries == 0

    def test_clear_removes_everything(self, root):
        store = self._populate(root)
        assert store.clear() == 4
        assert not root.exists()
        assert store.info().entries == 0

    def _legacy_entry(self, root):
        """One entry in the older ``<layer>/<hash[:2]>/<hash>.pkl``
        layout, even carrying the current schema."""
        legacy = root / "schedule" / "cd" / ("cd" + "3" * 62 + ".pkl")
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(
            pickle.dumps(
                {
                    "schema": CACHE_SCHEMA_VERSION,
                    "namespace": "schedule",
                    "key": legacy.stem,
                    "value": "old layout",
                }
            )
        )
        return legacy

    def test_legacy_layout_entries_are_stale(self, root):
        store = self._populate(root)
        legacy = self._legacy_entry(root)
        info = store.info()
        assert info.entries == 2
        assert info.stale_entries == 2
        assert store.get("schedule", legacy.stem) == (False, None)
        assert legacy.exists()  # reads never reach the old layout

    def test_prune_removes_legacy_layout_entries(self, root):
        store = self._populate(root)
        legacy = self._legacy_entry(root)
        assert store.prune() == 3
        assert not legacy.exists()
        assert not legacy.parent.exists()  # the emptied fan-out dir
        info = store.info()
        assert info.entries == 2 and info.stale_entries == 0

    def test_clear_counts_legacy_layout_entries(self, root):
        store = self._populate(root)
        self._legacy_entry(root)
        assert store.clear() == 5
        assert not root.exists()
