"""Content-addressed on-disk entry store, written as pack files.

Layout: ``<root>/<namespace>/<pid>-<n>.pack``.  A pack holds many
entries, each a pickled envelope ``{"schema", "namespace", "key",
"value"}``, followed by an index and a fixed-size footer::

    envelope 0 | envelope 1 | ... | index pickle | footer

The index maps each key hash to ``(offset, length, crc32)`` of its
envelope and names the schema and namespace of the pack.  The footer
holds the index's offset, length and crc32 and a magic tag, and the
file's size must equal ``index offset + index length + footer``, so a
truncated or bit-flipped pack is detected before any entry is served.
Each entry is still verified on every read: its crc32, then the
envelope's schema, namespace and key.  A stale (old-schema) or corrupt
pack is *detected, counted, deleted and reported as a miss* — it can
never crash a study or smuggle wrong data into one.  Any other file in
a layer directory (the older ``<hash>.pkl`` entries, flat or fanned
out into ``<hash[:2]>/`` subdirectories, or a temporary file a killed
writer left behind) is never read; ``info``/``prune``/``clear`` count
it as stale.

Writes: :meth:`CacheStore.put` pickles the envelope at once (so the
value is snapshotted before the caller can mutate it) and appends it to
a per-layer pending buffer, which :meth:`get`, :meth:`peek` and
:meth:`contains` see.  Inside a :meth:`CacheStore.batch` scope the
buffer is published when the outermost scope exits — normally, on an
exception or on ``KeyboardInterrupt`` — as one pack per layer; outside
a batch each ``put`` publishes a one-entry pack at once, so there is
one on-disk format and one read path.  A pack is written to a unique
temporary file in the layer directory and published with
:func:`os.replace`, so no reader ever observes a half-written pack.
Pack names start with the writer's pid, which no other live process
shares, so concurrent writers (the study runner's fork pool) never
collide; a name left by an earlier process with the same pid is
skipped, never replaced.

Reads go through a lazily built per-layer index of every pack's index.
On a miss the store re-lists the layer directory if the directory has
changed since the last listing (or changed so recently that the
listing may have raced a write), so packs published by other processes
— pool workers, concurrent or earlier runs — are found.  A miss is
always safe: the caller recomputes.

A cache is an optimisation, so a publish that fails (full disk,
read-only directory) is not fatal: it counts ``cache.write_errors``
once per entry it lost, logs one warning per store naming the
directory, and the caller carries on with the values it computed.
"""

from __future__ import annotations

import logging
import os
import pickle
import shutil
import struct
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.cache.schema import CACHE_SCHEMA_VERSION
from repro.obs.recorder import get_recorder

__all__ = ["CacheEntryStatus", "CacheStoreInfo", "CacheStore"]

_SUFFIX = ".pack"
#: Pickle protocol pinned for portability across the supported Pythons.
_PICKLE_PROTOCOL = 4
#: index offset, index length, index crc32, magic tag.
_FOOTER = struct.Struct("<QQI8s")
_MAGIC = b"RPACK\x00\x00\x01"
#: A listing made less than this long after the directory's last
#: change may have raced a write within the same filesystem timestamp
#: tick, so the next miss lists again.
_RACY_NS = 50_000_000

_log = logging.getLogger(__name__)

_NONE_PENDING: dict[str, bytes] = {}


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


class _BadPack(Exception):
    """A pack that must not be read: ``status`` is stale or corrupt,
    ``entries`` the number of entries it held (1 when unknown)."""

    def __init__(self, status: str, entries: int = 1) -> None:
        super().__init__(status)
        self.status = status
        self.entries = entries


def pack_bytes(
    schema: str, namespace: str, blobs: dict[str, bytes]
) -> tuple[bytes, dict[str, tuple[int, int, int]]]:
    """Serialise pickled envelopes (key hash -> blob) into one pack.

    Returns the pack and its entry index (key hash -> offset, length,
    crc32).
    """
    index = {}
    offset = 0
    for key_hash, blob in blobs.items():
        index[key_hash] = (offset, len(blob), zlib.crc32(blob))
        offset += len(blob)
    index_blob = pickle.dumps(
        {"schema": schema, "namespace": namespace, "entries": index},
        protocol=_PICKLE_PROTOCOL,
    )
    footer = _FOOTER.pack(
        offset, len(index_blob), zlib.crc32(index_blob), _MAGIC
    )
    return b"".join([*blobs.values(), index_blob, footer]), index


def _read_index(fd: int, namespace: str, schema: str) -> dict:
    """The entry index of an open pack; raises :class:`_BadPack`."""
    size = os.fstat(fd).st_size
    if size < _FOOTER.size:
        raise _BadPack(CacheEntryStatus.CORRUPT)
    offset, length, crc, magic = _FOOTER.unpack(
        os.pread(fd, _FOOTER.size, size - _FOOTER.size)
    )
    if magic != _MAGIC or offset + length + _FOOTER.size != size:
        raise _BadPack(CacheEntryStatus.CORRUPT)
    blob = os.pread(fd, length, offset)
    if zlib.crc32(blob) != crc:
        raise _BadPack(CacheEntryStatus.CORRUPT)
    try:
        index = pickle.loads(blob)
        entries = index["entries"]
        n = len(entries)
    except Exception:
        raise _BadPack(CacheEntryStatus.CORRUPT) from None
    if index.get("schema") != schema:
        raise _BadPack(CacheEntryStatus.STALE, n)
    if index.get("namespace") != namespace:
        raise _BadPack(CacheEntryStatus.CORRUPT, n)
    return entries


class _Layer:
    """What a store knows of one layer directory."""

    __slots__ = ("entries", "packs", "bad", "mtime_ns", "racy")

    def __init__(self) -> None:
        #: key hash -> (pack name, offset, length, crc32)
        self.entries: dict[str, tuple[str, int, int, int]] = {}
        #: pack name -> its key hashes; every pack listed so far.
        self.packs: dict[str, list[str]] = {}
        #: pack name -> status of listed packs not yet discarded.
        self.bad: dict[str, str] = {}
        self.mtime_ns: int | None = None
        self.racy = False


class CacheStore:
    """Pack-file store, safe under concurrent forked writers."""

    def __init__(
        self, root: str | Path, *, schema: str = CACHE_SCHEMA_VERSION
    ) -> None:
        self.root = Path(root)
        self._root = os.fspath(self.root)
        self.schema = schema
        self._layers: dict[str, _Layer] = {}
        #: namespace -> {key hash: pickled envelope} not yet published.
        self._pending: dict[str, dict[str, bytes]] = {}
        self._batch_depth = 0
        self._pack_counter = 0
        #: Layer directories this store has already created.
        self._layer_dirs: set[str] = set()
        self._warned_write_error = False

    # -- read ----------------------------------------------------------
    def get(self, namespace: str, key_hash: str) -> tuple[bool, Any]:
        """Look up an entry; returns ``(found, value)``.

        A stale-schema or corrupt pack counts as a miss: it is deleted,
        a ``cache.discard`` event is recorded, and the caller recomputes.
        """
        status, value, nbytes = self._lookup(namespace, key_hash, True)
        if status == CacheEntryStatus.HIT:
            obs = get_recorder()
            if obs.enabled:
                obs.count("cache.bytes_read", nbytes)
            return True, value
        return False, None

    def peek(self, namespace: str, key_hash: str) -> tuple[bool, Any]:
        """Side-effect-free lookup; returns ``(found, value)``.

        Unlike :meth:`get`, a peek changes nothing the counted path
        owns: a hit is not counted (``cache.bytes_read``), and stale or
        corrupt packs are left in place — the counted read that
        follows still discards and counts them.  The study planner's
        batched cache front-end probes with this, so probing leaves
        every counter exactly as if the probe had never happened.
        """
        status, value, _nbytes = self._lookup(namespace, key_hash, False)
        if status == CacheEntryStatus.HIT:
            return True, value
        return False, None

    def contains(self, namespace: str, key_hash: str) -> bool:
        """Cheap existence hint: whether the entry is pending or indexed.

        Purely advisory — the entry is not read or verified, so a
        corrupt entry answers True and the counted read that follows
        discovers the truth.  Callers must treat a wrong hint as "fall
        back to the normal path", never as data.
        """
        if key_hash in self._pending.get(namespace, ()):
            return True
        layer = self._layer(namespace)
        if key_hash not in layer.entries:
            self._refresh(namespace, layer)
        return key_hash in layer.entries

    def _layer(self, namespace: str) -> _Layer:
        layer = self._layers.get(namespace)
        if layer is None:
            layer = self._layers[namespace] = _Layer()
        return layer

    def _lookup(
        self, namespace: str, key_hash: str, counted: bool
    ) -> tuple[str, Any, int]:
        blob = self._pending.get(namespace, _NONE_PENDING).get(key_hash)
        if blob is not None:
            return CacheEntryStatus.HIT, pickle.loads(blob)["value"], len(blob)
        layer = self._layer(namespace)
        if key_hash not in layer.entries:
            self._refresh(namespace, layer)
        if counted:
            for pack, status in list(layer.bad.items()):
                self._discard(namespace, layer, pack, status)
        where = layer.entries.get(key_hash)
        if where is None:
            return CacheEntryStatus.MISS, None, 0
        pack, offset, length, crc = where
        value, status = self._read_entry(
            os.path.join(self._root, namespace, pack),
            offset, length, crc, namespace, key_hash,
        )
        if status in (CacheEntryStatus.STALE, CacheEntryStatus.CORRUPT):
            if counted:
                self._discard(namespace, layer, pack, status)
        elif status == CacheEntryStatus.MISS:
            # The pack is gone (pruned, cleared): forget its entries.
            self._forget(layer, pack)
        return status, value, length

    def _read_entry(
        self,
        path: str,
        offset: int,
        length: int,
        crc: int,
        namespace: str,
        key_hash: str,
    ) -> tuple[Any, str]:
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return None, CacheEntryStatus.MISS
        try:
            blob = os.pread(fd, length, offset)
        except OSError:
            return None, CacheEntryStatus.CORRUPT
        finally:
            os.close(fd)
        if zlib.crc32(blob) != crc:
            # A truncated or bit-flipped envelope.
            return None, CacheEntryStatus.CORRUPT
        return self._verify(blob, namespace, key_hash)

    def _verify(
        self, blob: bytes, namespace: str, key_hash: str
    ) -> tuple[Any, str]:
        try:
            envelope = pickle.loads(blob)
        except Exception:
            return None, CacheEntryStatus.CORRUPT
        if not isinstance(envelope, dict) or "value" not in envelope:
            return None, CacheEntryStatus.CORRUPT
        if envelope.get("schema") != self.schema:
            return None, CacheEntryStatus.STALE
        if (
            envelope.get("namespace") != namespace
            or envelope.get("key") != key_hash
        ):
            # An envelope indexed under the wrong key can never be
            # trusted.
            return None, CacheEntryStatus.CORRUPT
        return envelope["value"], CacheEntryStatus.HIT

    def _refresh(self, namespace: str, layer: _Layer) -> None:
        """Index the packs published since the layer was last listed."""
        layer_dir = os.path.join(self._root, namespace)
        try:
            mtime_ns = os.stat(layer_dir).st_mtime_ns
        except OSError:
            return
        if mtime_ns == layer.mtime_ns and not layer.racy:
            return
        listed_ns = time.time_ns()
        try:
            names = os.listdir(layer_dir)
        except OSError:
            return
        layer.mtime_ns = mtime_ns
        layer.racy = listed_ns - mtime_ns < _RACY_NS
        for name in names:
            if name.endswith(_SUFFIX) and name not in layer.packs:
                self._index_pack(namespace, layer, name)

    def _index_pack(self, namespace: str, layer: _Layer, name: str) -> None:
        try:
            fd = os.open(os.path.join(self._root, namespace, name), os.O_RDONLY)
        except OSError:
            return  # gone since the listing
        try:
            entries = _read_index(fd, namespace, self.schema)
        except _BadPack as bad:
            layer.packs[name] = []
            layer.bad[name] = bad.status
            return
        except OSError:
            return
        finally:
            os.close(fd)
        self._add_pack(layer, name, entries)

    @staticmethod
    def _add_pack(layer: _Layer, name: str, entries: dict) -> None:
        layer.packs[name] = list(entries)
        for key_hash, (offset, length, crc) in entries.items():
            layer.entries[key_hash] = (name, offset, length, crc)

    @staticmethod
    def _forget(layer: _Layer, pack: str) -> None:
        for key_hash in layer.packs.pop(pack, ()):
            if layer.entries.get(key_hash, (None,))[0] == pack:
                del layer.entries[key_hash]
        layer.bad.pop(pack, None)

    def _discard(
        self, namespace: str, layer: _Layer, pack: str, status: str
    ) -> None:
        path = os.path.join(self._root, namespace, pack)
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - already gone or unwritable
            pass
        self._forget(layer, pack)
        # Keep the name listed, so a directory re-listing that raced
        # the unlink does not index the pack again.
        layer.packs[pack] = []
        obs = get_recorder()
        if obs.enabled:
            obs.count(f"cache.discarded.{status}")
            obs.event(
                "cache.discard", namespace=namespace, path=path, reason=status
            )

    # -- write ---------------------------------------------------------
    def put(self, namespace: str, key_hash: str, value: Any) -> int:
        """Persist an entry; returns the envelope's size in bytes.

        Inside a :meth:`batch` the entry waits in the pending buffer
        until the batch publishes it; outside one it is published at
        once, and 0 is returned when that publish fails (see the
        module doc).
        """
        envelope = {
            "schema": self.schema,
            "namespace": namespace,
            "key": key_hash,
            "value": value,
        }
        blob = pickle.dumps(envelope, protocol=_PICKLE_PROTOCOL)
        pending = self._pending.get(namespace)
        if pending is None:
            pending = self._pending[namespace] = {}
        pending[key_hash] = blob
        if self._batch_depth:
            return len(blob)
        return len(blob) if self.flush() else 0

    @contextmanager
    def batch(self) -> Iterator["CacheStore"]:
        """Buffer every ``put`` of the scope; publish when it exits.

        Scopes nest; the outermost one publishes one pack per layer on
        exit, whether the scope ends normally, by an exception or by
        ``KeyboardInterrupt``.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            # Never below zero: reset_pending may have left this scope.
            self._batch_depth = max(0, self._batch_depth - 1)
            if not self._batch_depth:
                self.flush()

    def flush(self) -> int:
        """Publish every pending entry now; returns the count published."""
        published = 0
        pending, self._pending = self._pending, {}
        for namespace, blobs in pending.items():
            published += self._publish(namespace, blobs)
        return published

    def reset_pending(self) -> None:
        """Drop pending entries and leave every batch, publishing nothing.

        A forked pool worker starts with this, so it never publishes
        entries its parent buffered before the fork.
        """
        self._pending = {}
        self._batch_depth = 0

    def _publish(self, namespace: str, blobs: dict[str, bytes]) -> int:
        data, entries = pack_bytes(self.schema, namespace, blobs)
        layer_dir = os.path.join(self._root, namespace)
        pid = os.getpid()
        tmp = os.path.join(layer_dir, f".{pid}{_SUFFIX}.tmp")
        try:
            if namespace not in self._layer_dirs:
                os.makedirs(layer_dir, exist_ok=True)
                self._layer_dirs.add(namespace)
            while True:
                self._pack_counter += 1
                name = f"{pid}-{self._pack_counter}{_SUFFIX}"
                path = os.path.join(layer_dir, name)
                if not os.path.exists(path):
                    break
            with open(tmp, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            self._write_failed(exc, len(blobs))
            return 0
        # Index our own pack directly: no listing needed to find it.
        self._add_pack(self._layer(namespace), name, entries)
        obs = get_recorder()
        if obs.enabled:
            obs.count(
                "cache.bytes_written", sum(map(len, blobs.values()))
            )
        return len(blobs)

    def _write_failed(self, exc: OSError, lost: int) -> None:
        obs = get_recorder()
        if obs.enabled:
            obs.count("cache.write_errors", lost)
        if not self._warned_write_error:
            self._warned_write_error = True
            _log.warning(
                "cannot write to the result cache at %s (%s); "
                "results are computed but not persisted",
                self.root,
                exc,
            )

    # -- maintenance ---------------------------------------------------
    def _scan(self) -> Iterator[tuple[str, str, str, int, int]]:
        """Yield ``(namespace, path, status, entries, bytes)`` per file.

        Every file under a layer directory is reported: a pack is fully
        verified (index and every entry); any other file is stale.
        """
        if not self.root.is_dir():
            return
        for namespace_dir in sorted(self.root.iterdir()):
            if not namespace_dir.is_dir():
                continue
            namespace = namespace_dir.name
            for dirpath, _dirs, names in sorted(os.walk(namespace_dir)):
                for name in sorted(names):
                    path = os.path.join(dirpath, name)
                    size = os.path.getsize(path)
                    if dirpath == os.fspath(namespace_dir) and name.endswith(
                        _SUFFIX
                    ):
                        status, n = self._check_pack(path, namespace)
                    else:
                        status, n = CacheEntryStatus.STALE, 1
                    yield namespace, path, status, n, size

    def _check_pack(self, path: str, namespace: str) -> tuple[str, int]:
        fd = os.open(path, os.O_RDONLY)
        try:
            entries = _read_index(fd, namespace, self.schema)
            for key_hash, (offset, length, crc) in entries.items():
                blob = os.pread(fd, length, offset)
                status = (
                    self._verify(blob, namespace, key_hash)[1]
                    if zlib.crc32(blob) == crc
                    else CacheEntryStatus.CORRUPT
                )
                if status != CacheEntryStatus.HIT:
                    return status, len(entries)
        except _BadPack as bad:
            return bad.status, bad.entries
        finally:
            os.close(fd)
        return CacheEntryStatus.HIT, len(entries)

    def info(self) -> CacheStoreInfo:
        """Scan the store: entry counts, sizes, stale/corrupt tallies."""
        info = CacheStoreInfo(root=str(self.root), schema=self.schema)
        for namespace, _path, status, n, size in self._scan():
            ns = info.namespaces.setdefault(
                namespace, {"entries": 0, "bytes": 0}
            )
            if status == CacheEntryStatus.HIT:
                info.entries += n
                info.bytes += size
                ns["entries"] += n
                ns["bytes"] += size
            elif status == CacheEntryStatus.STALE:
                info.stale_entries += n
            else:
                info.corrupt_entries += n
        return info

    def prune(self) -> int:
        """Delete stale and corrupt packs and every non-pack file;
        returns the count of entries they held."""
        removed = 0
        for namespace, path, status, n, _size in list(self._scan()):
            if status != CacheEntryStatus.HIT:
                layer_dir = os.path.join(self._root, namespace)
                self._discard(
                    namespace, self._layer(namespace),
                    os.path.relpath(path, layer_dir), status,
                )
                removed += n
        for namespace_dir in self.root.iterdir() if self.root.is_dir() else ():
            for dirpath, _dirs, _names in sorted(
                os.walk(namespace_dir), reverse=True
            ):
                if dirpath != os.fspath(namespace_dir):
                    try:
                        os.rmdir(dirpath)  # an emptied fan-out directory
                    except OSError:
                        pass
        return removed

    def clear(self) -> int:
        """Delete every entry (and the store directory); returns the count."""
        removed = sum(n for *_rest, n, _size in self._scan())
        if self.root.is_dir():
            shutil.rmtree(self.root)
        self._layer_dirs.clear()
        self._layers.clear()
        self._pending = {}
        return removed
