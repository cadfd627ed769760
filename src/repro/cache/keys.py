"""Canonical, content-addressed cache keys.

The cache's correctness rests on one property: **two computations get
the same key if and only if their semantically meaningful inputs are
equal**.  :func:`canonical_bytes` therefore defines a deterministic,
type-tagged binary encoding of plain Python data:

* dict entries are sorted by their encoded keys, so insertion order
  never matters;
* floats are encoded by their IEEE-754 bits (``struct.pack('>d')``),
  so formatting (``1.5`` vs ``1.50`` vs ``15e-1``) never matters while
  genuinely different values — even ones that print identically —
  always differ;
* every value carries a type tag and every composite a length prefix,
  so distinct structures can never collide by concatenation
  (``["ab"]`` vs ``["a", "b"]``) and distinct types can never collide
  by repr (``1`` vs ``1.0`` vs ``"1"``);
* dataclasses encode as (class name, field dict) and model objects as
  (class name, ``__dict__``), letting the calibrated simulator suites —
  profile tables, regression fits — act as their own fingerprints.

Objects the encoding cannot handle deterministically (open files, RNGs,
arbitrary callables) raise :class:`CacheKeyError` — the cache refuses
to guess rather than risk a wrong hit.

Mutable-state caveat: the generic object rule hashes ``__dict__``, so
classes carrying derived mutable state (memo tables, topo-order caches)
need an explicit fingerprint here instead — :func:`dag_fingerprint` and
:func:`schedule_fingerprint` exist precisely because :class:`TaskGraph`
and :class:`Schedule` are such classes.

Digest keys: the pipeline's layer keys never embed a fingerprint
itself, only its hex digest (see :func:`layer_keys`).  A profile
suite's models encode to ~8 KB, so re-encoding them into every cell's
key dominated a cached study; hashing each fingerprint once and keying
on the digest is equivalent (SHA-256 collisions aside) and cheap.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import struct
from typing import Any

from repro.util.errors import ReproError

__all__ = [
    "CacheKeyError",
    "canonical_bytes",
    "canonical_hash",
    "dag_fingerprint",
    "schedule_fingerprint",
    "suite_fingerprint",
    "emulator_fingerprint",
    "costs_fingerprint",
    "layer_keys",
]


class CacheKeyError(ReproError):
    """An object cannot be canonically encoded into a cache key."""


_pack_f64 = struct.Struct(">d").pack


def _join(tag: bytes, parts: list[bytes]) -> bytes:
    """Unambiguous composite: tag, child count, child lengths, children."""
    n = len(parts)
    header = struct.pack(f">{n + 1}I", n, *map(len, parts))
    return tag + header + b"".join(parts)


def _encode_items(items, stack: tuple[int, ...]) -> list[bytes]:
    """Encode each item; scalars, the bulk of any fingerprint or key,
    inline (same bytes as :func:`_encode`, without a call per item)."""
    out = []
    append = out.append
    for item in items:
        cls = type(item)
        if cls is int:
            append(b"i%d" % item)
        elif cls is float:
            append(b"f" + _pack_f64(item))
        elif cls is str:
            append(b"s" + item.encode("utf-8"))
        else:
            append(_encode(item, stack))
    return out


def _encode(obj: Any, stack: tuple[int, ...]) -> bytes:
    cls = type(obj)
    if cls is int:
        return b"i%d" % obj
    if cls is float:
        return b"f" + _pack_f64(obj)
    if cls is str:
        return b"s" + obj.encode("utf-8")
    if obj is None:
        return b"N"
    if cls is bool:
        return b"T" if obj else b"F"
    if cls is bytes:
        return b"b" + obj
    # Containers: guard against cycles via the identity stack.
    if id(obj) in stack:
        raise CacheKeyError("cannot encode a cyclic structure into a cache key")
    sub = stack + (id(obj),)
    if cls is list or cls is tuple:
        return _join(b"L", _encode_items(obj, sub))
    if cls is dict:
        entries = sorted(
            zip(_encode_items(obj, sub), _encode_items(obj.values(), sub))
        )
        return _join(b"D", [kv for pair in entries for kv in pair])
    if cls in (set, frozenset):
        return _join(b"S", sorted(_encode_items(obj, sub)))
    if isinstance(obj, enum.Enum):
        return _join(
            b"E",
            [cls.__qualname__.encode("utf-8"), _encode(obj.value, sub)],
        )
    # numpy scalars and arrays (profile tables, comm matrices) without a
    # hard numpy dependency at import time.
    item = getattr(obj, "item", None)
    if item is not None and getattr(obj, "shape", None) == ():
        return _encode(obj.item(), sub)
    if hasattr(obj, "shape") and hasattr(obj, "tolist"):
        return _join(
            b"A",
            [
                _encode(list(getattr(obj, "shape")), sub),
                _encode(obj.tolist(), sub),
            ],
        )
    # Protocol hook: objects may define their own semantic fingerprint.
    fp = getattr(obj, "cache_fingerprint", None)
    if callable(fp):
        return _join(
            b"P",
            [cls.__qualname__.encode("utf-8"), _encode(fp(), sub)],
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
        }
        return _join(
            b"C",
            [cls.__qualname__.encode("utf-8"), _encode(fields, sub)],
        )
    state = getattr(obj, "__dict__", None)
    if isinstance(state, dict):
        return _join(
            b"O",
            [cls.__qualname__.encode("utf-8"), _encode(dict(state), sub)],
        )
    raise CacheKeyError(
        f"cannot canonically encode {cls.__module__}.{cls.__qualname__} "
        "into a cache key; give it a cache_fingerprint() method or build "
        "the key from plain data"
    )


def canonical_bytes(obj: Any) -> bytes:
    """Deterministic byte encoding of ``obj`` (see module doc)."""
    return _encode(obj, ())


def canonical_hash(obj: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_bytes`."""
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


# ----------------------------------------------------------------------
# domain fingerprints
# ----------------------------------------------------------------------
def dag_fingerprint(graph) -> dict:
    """Semantic content of a :class:`~repro.dag.graph.TaskGraph`.

    Explicit (rather than the generic object rule) because the graph
    carries derived mutable state (the memoised topological order) that
    must not leak into the key, and because edge insertion order is not
    semantically meaningful.
    """
    tasks = sorted(graph, key=lambda t: t.task_id)
    edges = sorted(graph.edges())
    # By column, like schedule_fingerprint: flat lists of scalars.
    return {
        "name": graph.name,
        "task_ids": [t.task_id for t in tasks],
        "kernels": [t.kernel.name for t in tasks],
        "sizes": [t.n for t in tasks],
        "task_names": [t.name for t in tasks],
        "edge_src": [src for src, _dst in edges],
        "edge_dst": [dst for _src, dst in edges],
    }


def schedule_fingerprint(schedule) -> dict:
    """Semantic content of a :class:`~repro.scheduling.schedule.Schedule`.

    Placements are laid out by column, in task-id order: flat lists of
    scalars encode ~30% faster than one tuple per task, and a study
    hashes one schedule per cell.
    """
    tasks = sorted(schedule.placements)
    placements = [schedule.placements[t] for t in tasks]
    return {
        "algorithm": schedule.algorithm,
        "order": list(schedule.order),
        "tasks": tasks,
        "hosts": [p.hosts for p in placements],
        "est_start": [p.est_start for p in placements],
        "est_finish": [p.est_finish for p in placements],
    }


def suite_fingerprint(suite) -> dict:
    """Semantic content of a calibrated simulator suite.

    The three model objects encode via the generic rules (tables,
    regression fits, platform parameters), so any change to any fitted
    coefficient or measured entry changes the fingerprint.
    """
    return {
        "name": suite.name,
        "task_model": suite.task_model,
        "startup_model": suite.startup_model,
        "redistribution_model": suite.redistribution_model,
    }


def costs_fingerprint(costs) -> dict:
    """Semantic content of a :class:`SchedulingCosts` estimate provider.

    Built from its constituent models — never from the object itself,
    whose memo tables are derived state.
    """
    return {
        "platform": costs.platform,
        "task_model": costs.task_model,
        "startup_model": costs.startup_model,
        "redistribution_model": costs.redistribution_model,
    }


def emulator_fingerprint(emulator) -> dict:
    """Semantic content of the testbed emulator.

    The declared dataclass fields (platform, seed, noise configuration,
    scaling knobs) fully determine every execution — the ground-truth
    generators are themselves derived from the seed — so the fields are
    the fingerprint; the derived generator objects never enter the key.
    """
    return {
        "fields": {
            f.name: getattr(emulator, f.name)
            for f in dataclasses.fields(emulator)
        },
    }


# ----------------------------------------------------------------------
# layer keys
# ----------------------------------------------------------------------
def layer_keys(
    *,
    dag: str,
    algorithm: str | None = None,
    costs: str | None = None,
    simulator: str | None = None,
    emulator: str | None = None,
    schedule: str | None = None,
) -> dict[str, dict]:
    """The schedule, simulation and testbed keys of one grid cell.

    Every argument is the :func:`canonical_hash` digest of the matching
    fingerprint (``algorithm`` excepted, which is the algorithm name):
    ``dag`` of :func:`dag_fingerprint`, ``costs`` of
    :func:`costs_fingerprint`, ``simulator`` of
    :meth:`~repro.simgrid.simulator.ApplicationSimulator.model_fingerprint`,
    ``emulator`` of :func:`emulator_fingerprint` and ``schedule`` of
    :func:`schedule_fingerprint`.  A caller hashes each fingerprint once
    — a study hashes its suites and DAGs once, not per cell — and the
    keys stay small, so hashing a key costs microseconds.

    Returns the keys whose inputs are all given: ``"schedule"`` (needs
    ``algorithm`` and ``costs``), ``"simulation"`` (``simulator`` and
    ``schedule``) and ``"testbed"`` (``emulator`` and ``schedule``).
    This is the only place these keys are built, so a study, its cache
    planner and the standalone :func:`~repro.scheduling.driver.schedule_dag`
    and :meth:`~repro.simgrid.simulator.ApplicationSimulator.run_cached`
    always agree on them.  The simulation and testbed keys both live in
    the cache's ``"simulation"`` layer, told apart by ``"executor"``.
    """
    keys: dict[str, dict] = {}
    if algorithm is not None and costs is not None:
        keys["schedule"] = {"algorithm": algorithm, "dag": dag, "costs": costs}
    if schedule is not None:
        if simulator is not None:
            keys["simulation"] = {
                "executor": "simulator",
                "simulator": simulator,
                "dag": dag,
                "schedule": schedule,
            }
        if emulator is not None:
            keys["testbed"] = {
                "executor": "testbed",
                "emulator": emulator,
                "dag": dag,
                "schedule": schedule,
                "run_label": 0,
            }
    return keys
