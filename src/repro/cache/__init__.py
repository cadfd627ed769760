"""Content-addressed result cache with incremental study re-execution.

The study methodology is iterative: the same comparison grid is re-run
across simulator variants, matrix sizes and calibration sweeps.  This
package makes re-runs incremental — any grid cell whose inputs are
unchanged is replayed bit-identically from disk instead of recomputed,
and editing one parameter recomputes only the cells it reaches.

Pieces
------
:mod:`repro.cache.keys`
    Canonical hashing: a deterministic type-tagged encoding (dict-order
    and float-formatting insensitive), domain fingerprints for DAGs,
    schedules, suites, cost models and the emulator, and
    :func:`layer_keys`, which builds each cell's schedule, simulation
    and testbed keys from the fingerprints' digests, each hashed once.
:mod:`repro.cache.store`
    Pack-file store (``<layer>/<pid>-<n>.pack``: many entries per file,
    each verified on read, published write-temp-then-rename, fork-pool
    safe) with corruption and version-skew detection.  Entries buffer
    inside a batch scope and publish as one pack per layer when it
    exits; a failed publish is counted and skipped instead of aborting
    the study.
:mod:`repro.cache.result_cache`
    The :class:`ResultCache` facade the pipeline calls, with per-layer
    hit/miss counters through the observability Recorder and the
    :meth:`~ResultCache.batch` scope the study runner writes through.
:data:`CACHE_SCHEMA_VERSION`
    The code-generation fingerprint embedded in every entry; bumping it
    invalidates all previously persisted results.

Usage
-----
>>> from repro.cache import ResultCache
>>> cache = ResultCache(".repro-cache")
>>> cache.get_or_compute("simulation", {"answer": 42}, lambda: "slow")
'slow'
>>> cache.get_or_compute("simulation", {"answer": 42}, lambda: 1 / 0)
'slow'
"""

from repro.cache.keys import (
    CacheKeyError,
    canonical_bytes,
    canonical_hash,
    costs_fingerprint,
    dag_fingerprint,
    emulator_fingerprint,
    layer_keys,
    schedule_fingerprint,
    suite_fingerprint,
)
from repro.cache.result_cache import ResultCache
from repro.cache.schema import CACHE_SCHEMA_VERSION
from repro.cache.store import CacheEntryStatus, CacheStore, CacheStoreInfo

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntryStatus",
    "CacheKeyError",
    "CacheStore",
    "CacheStoreInfo",
    "ResultCache",
    "canonical_bytes",
    "canonical_hash",
    "costs_fingerprint",
    "dag_fingerprint",
    "emulator_fingerprint",
    "layer_keys",
    "schedule_fingerprint",
    "suite_fingerprint",
]
