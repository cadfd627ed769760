"""Content-addressed on-disk entry store.

Layout: ``<root>/<namespace>/<hash>.pkl`` — one file per entry, flat
under its layer directory.  Each file holds a pickled envelope
``{"schema", "namespace", "key", "value"}``; the embedded schema
version and key hash are verified on every read, so a stale
(old-schema) or corrupted (truncated, bit-flipped, misplaced) entry is
*detected, counted, deleted and reported as a miss* — it can never
crash a study or smuggle wrong data into one.  Entries in the older
fanned-out layout (``<namespace>/<hash[:2]>/<hash>.pkl``) are never
read; ``info``/``prune``/``clear`` still find them and treat them as
stale.

Writes are atomic: the envelope is pickled synchronously (so the value
is snapshotted before the caller can mutate it), written to a unique
temporary file in the layer directory and published with
:func:`os.replace`.  Concurrent writers (the study runner's fork pool)
can therefore race on the same entry safely — both compute the same
value, the last rename wins, and no reader ever observes a half-written
file.  Each layer directory is created once per store, not per write.

A cache is an optimisation, so a write that fails (full disk,
read-only directory) is not fatal: :meth:`CacheStore.put` counts it as
``cache.write_errors``, logs one warning per store naming the
directory, and the caller carries on with the value it computed.

There is no in-memory tier: a study reads each entry at most once per
process (measured: 0 memory hits in 974 lookups over cold, warm and
pooled-warm full studies), so every lookup goes to disk.
"""

from __future__ import annotations

import logging
import os
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.cache.schema import CACHE_SCHEMA_VERSION
from repro.obs.recorder import get_recorder

__all__ = ["CacheEntryStatus", "CacheStoreInfo", "CacheStore"]

_SUFFIX = ".pkl"
#: Pickle protocol pinned for portability across the supported Pythons.
_PICKLE_PROTOCOL = 4

_log = logging.getLogger(__name__)


class CacheEntryStatus:
    """Read outcomes (internal, used for counters and tests)."""

    HIT = "hit"
    MISS = "miss"
    STALE = "stale"
    CORRUPT = "corrupt"


@dataclass
class CacheStoreInfo:
    """Aggregate statistics of one store scan."""

    root: str
    schema: str
    entries: int = 0
    bytes: int = 0
    stale_entries: int = 0
    corrupt_entries: int = 0
    namespaces: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "schema": self.schema,
            "entries": self.entries,
            "bytes": self.bytes,
            "stale_entries": self.stale_entries,
            "corrupt_entries": self.corrupt_entries,
            "namespaces": dict(self.namespaces),
        }


class CacheStore:
    """File-per-entry store, safe under concurrent forked writers."""

    def __init__(
        self, root: str | Path, *, schema: str = CACHE_SCHEMA_VERSION
    ) -> None:
        self.root = Path(root)
        self._root = os.fspath(self.root)
        self.schema = schema
        self._tmp_counter = 0
        #: Layer directories this store has already created.
        self._layer_dirs: set[str] = set()
        self._warned_write_error = False

    # -- paths ---------------------------------------------------------
    # Plain strings, not Path objects: a cached study builds thousands
    # of entry paths, and pathlib's per-path parsing showed in its
    # profile.
    def _entry_path(self, namespace: str, key_hash: str) -> str:
        return os.path.join(self._root, namespace, key_hash + _SUFFIX)

    # -- read ----------------------------------------------------------
    def get(self, namespace: str, key_hash: str) -> tuple[bool, Any]:
        """Look up an entry; returns ``(found, value)``.

        A stale-schema or corrupt file counts as a miss: it is deleted,
        a ``cache.discard`` event is recorded, and the caller recomputes.
        """
        path = self._entry_path(namespace, key_hash)
        value, status, nbytes = self._read_entry(path, namespace, key_hash)
        if status == CacheEntryStatus.HIT:
            obs = get_recorder()
            if obs.enabled:
                obs.count("cache.bytes_read", nbytes)
            return True, value
        if status in (CacheEntryStatus.STALE, CacheEntryStatus.CORRUPT):
            self._discard(path, namespace, status)
        return False, None

    def peek(self, namespace: str, key_hash: str) -> tuple[bool, Any]:
        """Side-effect-free lookup; returns ``(found, value)``.

        Unlike :meth:`get`, a peek changes nothing the counted path
        owns: a hit is not counted (``cache.bytes_read``), and stale or
        corrupt files are left in place — the counted read that
        follows still discards and counts them.  The study planner's
        batched cache front-end probes with this, so probing leaves
        every counter exactly as if the probe had never happened.
        """
        path = self._entry_path(namespace, key_hash)
        value, status, _nbytes = self._read_entry(path, namespace, key_hash)
        if status == CacheEntryStatus.HIT:
            return True, value
        return False, None

    def contains(self, namespace: str, key_hash: str) -> bool:
        """Cheap existence hint: whether an entry file is on disk.

        Purely advisory — the file is not read or validated, so a stale
        or corrupt entry answers True and the counted read that follows
        discovers the truth.  Callers must treat a wrong hint as "fall
        back to the normal path", never as data.
        """
        return os.path.exists(self._entry_path(namespace, key_hash))

    def _read_entry(
        self, path: str | Path, namespace: str, key_hash: str
    ) -> tuple[Any, str, int]:
        try:
            with open(path, "rb") as f:
                blob = f.read()
        except OSError:
            return None, CacheEntryStatus.MISS, 0
        try:
            envelope = pickle.loads(blob)
        except Exception:
            # Truncated writes, bit rot, or non-pickle garbage.
            return None, CacheEntryStatus.CORRUPT, 0
        if not isinstance(envelope, dict) or "value" not in envelope:
            return None, CacheEntryStatus.CORRUPT, 0
        if envelope.get("schema") != self.schema:
            return None, CacheEntryStatus.STALE, 0
        if (
            envelope.get("namespace") != namespace
            or envelope.get("key") != key_hash
        ):
            # A file placed under the wrong name can never be trusted.
            return None, CacheEntryStatus.CORRUPT, 0
        return envelope["value"], CacheEntryStatus.HIT, len(blob)

    def _discard(
        self, path: str | Path, namespace: str, status: str
    ) -> None:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - already gone or unwritable
            pass
        obs = get_recorder()
        if obs.enabled:
            obs.count(f"cache.discarded.{status}")
            obs.event(
                "cache.discard",
                namespace=namespace,
                path=str(path),
                reason=status,
            )

    # -- write ---------------------------------------------------------
    def put(self, namespace: str, key_hash: str, value: Any) -> int:
        """Atomically persist an entry; returns the bytes written.

        Returns 0 when the write fails with an :class:`OSError` (see
        the module doc): the entry is simply not persisted.
        """
        envelope = {
            "schema": self.schema,
            "namespace": namespace,
            "key": key_hash,
            "value": value,
        }
        blob = pickle.dumps(envelope, protocol=_PICKLE_PROTOCOL)
        layer_dir = os.path.join(self._root, namespace)
        path = os.path.join(layer_dir, key_hash + _SUFFIX)
        self._tmp_counter += 1
        tmp = os.path.join(
            layer_dir, f".{key_hash}.{os.getpid()}.{self._tmp_counter}.tmp"
        )
        try:
            if namespace not in self._layer_dirs:
                os.makedirs(layer_dir, exist_ok=True)
                self._layer_dirs.add(namespace)
            with open(tmp, "xb") as f:
                f.write(blob)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            self._write_failed(exc)
            return 0
        obs = get_recorder()
        if obs.enabled:
            obs.count("cache.bytes_written", len(blob))
        return len(blob)

    def _write_failed(self, exc: OSError) -> None:
        obs = get_recorder()
        if obs.enabled:
            obs.count("cache.write_errors")
        if not self._warned_write_error:
            self._warned_write_error = True
            _log.warning(
                "cannot write to the result cache at %s (%s); "
                "results are computed but not persisted",
                self.root,
                exc,
            )

    # -- maintenance ---------------------------------------------------
    def _iter_entry_paths(self):
        """Yield ``(namespace, path, legacy)`` for every entry file.

        ``legacy`` marks entries in the older fanned-out layout
        (``<namespace>/<hash[:2]>/<hash>.pkl``), which reads never
        reach.
        """
        if not self.root.is_dir():
            return
        for namespace_dir in sorted(self.root.iterdir()):
            if not namespace_dir.is_dir():
                continue
            for path in sorted(namespace_dir.glob(f"*{_SUFFIX}")):
                yield namespace_dir.name, path, False
            for path in sorted(namespace_dir.glob(f"*/*{_SUFFIX}")):
                yield namespace_dir.name, path, True

    def _status(self, namespace: str, path: Path, legacy: bool) -> str:
        if legacy:
            return CacheEntryStatus.STALE
        return self._read_entry(path, namespace, path.stem)[1]

    def info(self) -> CacheStoreInfo:
        """Scan the store: entry counts, sizes, stale/corrupt tallies."""
        info = CacheStoreInfo(root=str(self.root), schema=self.schema)
        for namespace, path, legacy in self._iter_entry_paths():
            status = self._status(namespace, path, legacy)
            size = path.stat().st_size
            ns = info.namespaces.setdefault(
                namespace, {"entries": 0, "bytes": 0}
            )
            if status == CacheEntryStatus.HIT:
                info.entries += 1
                info.bytes += size
                ns["entries"] += 1
                ns["bytes"] += size
            elif status == CacheEntryStatus.STALE:
                info.stale_entries += 1
            else:
                info.corrupt_entries += 1
        return info

    def prune(self) -> int:
        """Delete stale-schema, legacy-layout and corrupt entries;
        returns the count."""
        removed = 0
        for namespace, path, legacy in self._iter_entry_paths():
            status = self._status(namespace, path, legacy)
            if status in (CacheEntryStatus.STALE, CacheEntryStatus.CORRUPT):
                self._discard(path, namespace, status)
                removed += 1
                if legacy:
                    try:
                        path.parent.rmdir()  # the fan-out dir, once empty
                    except OSError:
                        pass
        return removed

    def clear(self) -> int:
        """Delete every entry (and the store directory); returns the count."""
        removed = sum(1 for _ in self._iter_entry_paths())
        if self.root.is_dir():
            shutil.rmtree(self.root)
        self._layer_dirs.clear()
        return removed
