"""Pipeline stage benchmark: measurement core and baseline comparison.

The benchmark times the four stages every study run goes through —
DAG generation, scheduling, simulation, testbed execution — plus a
cold/warm full-study pair through the content-addressed result cache
(:mod:`repro.cache`), a second cold study on the array engine backend
(``study_cold_array``; its records are asserted equal to the object
cold run's), a third cold study with the array *scheduler* also
engaged (``study_cold_sched_array``), a timeline-tracing overhead pair
(``obs_overhead_off`` / ``obs_overhead_on``: the same uncached study
with observability disabled vs with a simulated-time timeline
attached), a live-telemetry overhead pair (``obs_live_overhead_off`` /
``obs_live_overhead_on``: the same uncached two-worker study with the
live progress bus of :mod:`repro.obs.live` detached vs attached —
:func:`live_overhead` is their ratio, :func:`assert_live_identity` the
``--assert-live`` bit-identity sweep), a study-throughput quartet (``study_throughput_w1`` /
``_w2`` / ``_w4`` / ``_w4_percell``: the same cold study dispatched
through the chunked executor at one, two and four workers plus
per-cell dispatch at four workers — :func:`study_throughput_speedup`
is the chunked-vs-per-cell ratio, :func:`assert_chunk_identity` the
``--assert-chunk`` bit-identity sweep), using the observability
layer's span timers, and compares the result against the committed
baseline (``BENCH_pipeline.json`` at the repository root).  Each stage
that runs a simulation engine records which backend produced it in the
stage's ``engine`` field; stages that run the allocation phase record
the scheduler backend in a ``sched`` field.

The scheduling stage is an allocation-phase pair: ``scheduling`` runs
the object allocation loop and ``scheduling_array`` the flat-array
core (:mod:`repro.scheduling.arena`) on identical inputs, both with
observability disabled so the pair isolates pure scheduler throughput
(emission cost is the obs-overhead pair's job).  Their ratio is
:func:`sched_speedup`; allocations are asserted equal, and
:func:`assert_sched_identity` (the ``--assert-sched`` flag) sweeps
the bit-identity check across backends on every observable facet.

Noise handling: wall-clock benchmarks on shared machines jitter by tens
of percent, so ``repeat`` runs the whole measurement several times and
keeps the per-stage *minimum* (the run least disturbed by the machine).
The comparison applies a relative ``threshold`` below which differences
are not called regressions; CI runs the comparison as a soft-failing
job for the same reason (see ``docs/performance.md``).
"""

from __future__ import annotations

import json
import os
import platform as py_platform
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro import __version__
from repro.cache import ResultCache
from repro.dag.generator import generate_paper_dags
from repro.experiments.runner import run_study
from repro.obs import Recorder, Timeline, recording
from repro.obs.live import LiveTelemetry
from repro.platform.personalities import bayreuth_cluster
from repro.profiling.calibration import build_analytical_suite
from repro.scheduling.arena import ARRAY_ALLOCATORS, resolve_sched
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.driver import ALGORITHMS as _OBJECT_ALLOCATORS
from repro.scheduling.driver import schedule_dag
from repro.simgrid.arena import resolve_engine
from repro.simgrid.simulator import ApplicationSimulator
from repro.testbed.tgrid import TGridEmulator

__all__ = [
    "DEFAULT_BASELINE",
    "NUM_DAGS",
    "StageComparison",
    "assert_chunk_identity",
    "assert_live_identity",
    "assert_sched_identity",
    "cache_speedup",
    "compare_to_baseline",
    "default_baseline_path",
    "host_metadata",
    "live_overhead",
    "obs_overhead",
    "render_comparison",
    "run_pipeline_bench",
    "sched_speedup",
    "study_cells_per_sec",
    "study_throughput_speedup",
]

#: Study subset: enough work to time meaningfully, small enough for CI
#: (first N of the 54 Table I DAGs, both algorithms).
NUM_DAGS = 12
ALGORITHMS = ("hcpa", "mcpa")

DEFAULT_BASELINE = "BENCH_pipeline.json"

_STAGE_NAMES = (
    "pipeline.dag_generation",
    "pipeline.scheduling",
    "pipeline.scheduling_array",
    "pipeline.simulation",
    "pipeline.testbed_execution",
    "pipeline.study_cold",
    "pipeline.study_cold_array",
    "pipeline.study_cold_sched_array",
    "pipeline.study_throughput_w1",
    "pipeline.study_throughput_w2",
    "pipeline.study_throughput_w4",
    "pipeline.study_throughput_w4_percell",
    "pipeline.cached_rerun",
    "pipeline.obs_overhead_off",
    "pipeline.obs_overhead_on",
    "pipeline.obs_live_overhead_off",
    "pipeline.obs_live_overhead_on",
)

def default_baseline_path() -> Path:
    """The committed baseline at the repository root (checkout layout)."""
    return Path(__file__).resolve().parents[3] / DEFAULT_BASELINE


def _measure(
    num_dags: int, engine: str, sched: str
) -> tuple[dict[str, float], dict[str, int], dict]:
    """One timed pass; returns (stage seconds, stage units, counters)."""
    recorder = Recorder.to_memory()
    with recording(recorder):
        with recorder.span("pipeline.dag_generation"):
            dags = generate_paper_dags(seed=0)[:num_dags]

        platform = bayreuth_cluster(32)
        emulator = TGridEmulator(platform, seed=0)
        suite = build_analytical_suite(platform)

        # Allocation-phase pair: the object allocation loop vs the
        # flat-array core on identical inputs.  Both legs run with
        # observability disabled (the outer spans are bound to the
        # measuring recorder, so timings still land in this pass) and
        # each builds its own cost providers, so both pay the same
        # model-evaluation misses.  Allocations are asserted equal —
        # the backends are bit-identical by construction.
        def _costed() -> list[tuple]:
            return [
                (
                    graph,
                    SchedulingCosts(
                        graph,
                        platform,
                        suite.task_model,
                        startup_model=suite.startup_model,
                        redistribution_model=suite.redistribution_model,
                    ),
                )
                for _params, graph in dags
            ]

        costed = _costed()
        allocs_object = []
        with recorder.span("pipeline.scheduling"):
            with recording(Recorder()):
                for graph, costs in costed:
                    for algorithm in ALGORITHMS:
                        allocs_object.append(
                            _OBJECT_ALLOCATORS[algorithm](
                                graph, costs, sched="object"
                            )
                        )
        allocs_array = []
        with recorder.span("pipeline.scheduling_array"):
            with recording(Recorder()):
                for graph, costs in _costed():
                    for algorithm in ALGORITHMS:
                        allocs_array.append(
                            ARRAY_ALLOCATORS[algorithm](graph, costs)
                        )
        if allocs_array != allocs_object:  # pragma: no cover - arena bug
            raise RuntimeError(
                "array scheduler allocations diverged from the object loop"
            )

        # Full schedules for the downstream simulation/testbed stages,
        # built untimed (the pair above isolates the allocation phase;
        # mapping is shared object code either way) under the measuring
        # recorder so the usual sched.* counters land in the payload.
        schedules = []
        for graph, costs in costed:
            for algorithm in ALGORITHMS:
                schedules.append(
                    (graph, schedule_dag(graph, costs, algorithm))
                )

        simulator = ApplicationSimulator(
            platform,
            suite.task_model,
            startup_model=suite.startup_model,
            redistribution_model=suite.redistribution_model,
            engine=engine,
        )
        with recorder.span("pipeline.simulation"):
            for graph, schedule in schedules:
                simulator.run(graph, schedule)

        with recorder.span("pipeline.testbed_execution"):
            for graph, schedule in schedules:
                emulator.execute(graph, schedule, engine=engine)

        # Full-study cold/warm pair through the result cache: the cold
        # pass populates a fresh cache (compute + persist), the warm
        # pass replays every cell from it.  Their ratio is the headline
        # incremental-re-execution speedup tracked in the baseline.
        cache_root = tempfile.mkdtemp(prefix="repro-bench-cache-")
        try:
            cache = ResultCache(cache_root)
            with recorder.span("pipeline.study_cold"):
                cold = run_study(
                    dags,
                    [suite],
                    emulator,
                    cache=cache,
                    engine=engine,
                    sched=sched,
                )
            with recorder.span("pipeline.cached_rerun"):
                warm = run_study(
                    dags,
                    [suite],
                    emulator,
                    cache=cache,
                    engine=engine,
                    sched=sched,
                )
        finally:
            shutil.rmtree(cache_root, ignore_errors=True)
        if cold.records != warm.records:  # pragma: no cover - cache bug
            raise RuntimeError(
                "cached study re-run diverged from the cold run"
            )

        # The same cold study on the array backend (its own fresh
        # cache, so nothing is replayed).  Backends are bit-identical —
        # asserted on the full record list — so the two cold stages
        # time identical work on the two engines.
        cache_root = tempfile.mkdtemp(prefix="repro-bench-cache-")
        try:
            cache = ResultCache(cache_root)
            with recorder.span("pipeline.study_cold_array"):
                cold_array = run_study(
                    dags,
                    [suite],
                    emulator,
                    cache=cache,
                    engine="array",
                    sched=sched,
                )
        finally:
            shutil.rmtree(cache_root, ignore_errors=True)
        if cold_array.records != cold.records:  # pragma: no cover
            raise RuntimeError(
                "array-engine study diverged from the object-engine study"
            )

        # The cold study once more with both array backends engaged —
        # array simulation engine *and* array scheduler — on its own
        # fresh cache so nothing is replayed.  Asserted bit-identical
        # to the object cold run, so the stage times identical work
        # with the flat-array allocation core in the loop.
        cache_root = tempfile.mkdtemp(prefix="repro-bench-cache-")
        try:
            cache = ResultCache(cache_root)
            with recorder.span("pipeline.study_cold_sched_array"):
                cold_sched = run_study(
                    dags,
                    [suite],
                    emulator,
                    cache=cache,
                    engine="array",
                    sched="array",
                )
        finally:
            shutil.rmtree(cache_root, ignore_errors=True)
        if cold_sched.records != cold.records:  # pragma: no cover
            raise RuntimeError(
                "array-scheduler study diverged from the object-scheduler "
                "study"
            )

        # Study-throughput quartet: the same cold study dispatched
        # through the chunked executor at 1/2/4 workers, plus per-cell
        # (chunk=1) dispatch at 4 workers — the baseline the chunked
        # path is measured against.  Each leg populates its own fresh
        # cache (every cell misses, so every cell flows through the
        # executor) and is asserted record-identical to the cold run.
        # Chunk settings are pinned so an ambient REPRO_CHUNK cannot
        # skew the comparison; worker counts beyond the host's cores
        # clamp to a smaller pool (recorded as runner.workers_clamped
        # in the counters — read them next to the payload's host
        # metadata).
        for stage_name, stage_workers, stage_chunk in (
            ("pipeline.study_throughput_w1", 1, 0),
            ("pipeline.study_throughput_w2", 2, 0),
            ("pipeline.study_throughput_w4", 4, 0),
            ("pipeline.study_throughput_w4_percell", 4, 1),
        ):
            cache_root = tempfile.mkdtemp(prefix="repro-bench-cache-")
            try:
                cache = ResultCache(cache_root)
                with recorder.span(stage_name):
                    through = run_study(
                        dags,
                        [suite],
                        emulator,
                        workers=stage_workers,
                        cache=cache,
                        engine=engine,
                        sched=sched,
                        chunk=stage_chunk,
                    )
            finally:
                shutil.rmtree(cache_root, ignore_errors=True)
            if through.records != cold.records:  # pragma: no cover
                raise RuntimeError(
                    f"{stage_name} study diverged from the cold run"
                )

        # Timeline-tracing overhead pair: the same uncached study with
        # tracing disabled vs with an in-memory timeline attached.
        # Their ratio is the zero-cost-when-disabled check's enabled
        # counterpart — how much the `if tl is not None:` emission adds.
        # Each leg installs its own recorder; the outer span objects
        # are bound to the measuring recorder, so timings still land
        # in this pass's metrics.
        with recorder.span("pipeline.obs_overhead_off"):
            with recording(Recorder()):
                obs_off = run_study(
                    dags, [suite], emulator, engine=engine, sched=sched
                )
        with recorder.span("pipeline.obs_overhead_on"):
            with recording(Recorder(timeline=Timeline())):
                obs_on = run_study(
                    dags, [suite], emulator, engine=engine, sched=sched
                )
        if obs_on.records != obs_off.records:  # pragma: no cover
            raise RuntimeError(
                "timeline-traced study diverged from the untraced study"
            )

        # Live-telemetry overhead pair: the same uncached study through
        # the two-worker chunked executor with the live progress bus
        # detached vs attached (queue, worker heartbeats, parent drain
        # thread all engaged — the full streaming path).  The short
        # heartbeat makes the pair a worst case for emission cost; the
        # 1.10x acceptance bound lives in the rolling-history check.
        with recorder.span("pipeline.obs_live_overhead_off"):
            with recording(Recorder()):
                live_off = run_study(
                    dags,
                    [suite],
                    emulator,
                    workers=2,
                    engine=engine,
                    sched=sched,
                    chunk=0,
                )
        telemetry = LiveTelemetry(heartbeat_s=0.2).start()
        try:
            with recorder.span("pipeline.obs_live_overhead_on"):
                with recording(Recorder()):
                    live_on = run_study(
                        dags,
                        [suite],
                        emulator,
                        workers=2,
                        engine=engine,
                        sched=sched,
                        chunk=0,
                        telemetry=telemetry,
                    )
        finally:
            telemetry.close()
        if live_on.records != live_off.records:  # pragma: no cover
            raise RuntimeError(
                "live-telemetry study diverged from the detached study"
            )

    metrics = recorder.metrics()
    num_cells = len(dags) * len(ALGORITHMS)
    units = {
        "pipeline.dag_generation": num_dags,
        "pipeline.scheduling": len(allocs_object),
        "pipeline.scheduling_array": len(allocs_array),
        "pipeline.simulation": len(schedules),
        "pipeline.testbed_execution": len(schedules),
        "pipeline.study_cold": num_cells,
        "pipeline.study_cold_array": num_cells,
        "pipeline.study_cold_sched_array": num_cells,
        "pipeline.study_throughput_w1": num_cells,
        "pipeline.study_throughput_w2": num_cells,
        "pipeline.study_throughput_w4": num_cells,
        "pipeline.study_throughput_w4_percell": num_cells,
        "pipeline.cached_rerun": num_cells,
        "pipeline.obs_overhead_off": num_cells,
        "pipeline.obs_overhead_on": num_cells,
        "pipeline.obs_live_overhead_off": num_cells,
        "pipeline.obs_live_overhead_on": num_cells,
    }
    seconds = {
        name: metrics["spans"][name]["total_s"] for name in _STAGE_NAMES
    }
    counters = {
        k: v
        for k, v in metrics["counters"].items()
        if k.startswith(
            ("engine.", "sim.", "sched.", "testbed.", "cache.", "runner.")
        )
    }
    return seconds, units, counters


def _stage_engine(name: str, engine: str) -> str | None:
    """Which engine backend produced a stage's numbers (None: neither)."""
    if name in (
        "pipeline.study_cold_array",
        "pipeline.study_cold_sched_array",
    ):
        return "array"
    if name in (
        "pipeline.simulation",
        "pipeline.testbed_execution",
        "pipeline.study_cold",
        "pipeline.study_throughput_w1",
        "pipeline.study_throughput_w2",
        "pipeline.study_throughput_w4",
        "pipeline.study_throughput_w4_percell",
        "pipeline.cached_rerun",
        "pipeline.obs_overhead_off",
        "pipeline.obs_overhead_on",
        "pipeline.obs_live_overhead_off",
        "pipeline.obs_live_overhead_on",
    ):
        return engine
    return None


def _stage_sched(name: str, sched: str) -> str | None:
    """Which scheduler backend ran a stage's allocations (None: neither)."""
    if name in (
        "pipeline.scheduling_array",
        "pipeline.study_cold_sched_array",
    ):
        return "array"
    if name == "pipeline.scheduling":
        return "object"
    if name in (
        "pipeline.study_cold",
        "pipeline.study_cold_array",
        "pipeline.study_throughput_w1",
        "pipeline.study_throughput_w2",
        "pipeline.study_throughput_w4",
        "pipeline.study_throughput_w4_percell",
        "pipeline.cached_rerun",
        "pipeline.obs_overhead_off",
        "pipeline.obs_overhead_on",
        "pipeline.obs_live_overhead_off",
        "pipeline.obs_live_overhead_on",
    ):
        return sched
    return None


def host_metadata() -> dict:
    """The bench host's identity, stamped into every payload.

    Wall-clock stage times are only comparable on similar machines, so
    every payload (and, through it, every history entry) records the
    cpu count, OS, machine architecture and python version that
    produced it — the minimum needed to judge whether two bench
    trajectories ran on comparable hardware — plus the full platform
    string for the reader.
    """
    return {
        "cpus": os.cpu_count(),
        "system": py_platform.system(),
        "machine": py_platform.machine(),
        "platform": py_platform.platform(),
        "python": py_platform.python_version(),
    }


def run_pipeline_bench(
    num_dags: int = NUM_DAGS,
    repeat: int = 1,
    engine: str | None = None,
    sched: str | None = None,
) -> dict:
    """Time each pipeline stage; returns the BENCH payload.

    ``repeat`` > 1 re-runs the measurement and keeps the per-stage
    minimum.  Counters come from the first pass (the pipeline is
    deterministic, so they are identical across passes).  ``engine``
    selects the simulation backend for the simulation/testbed/study
    stages (``None``: honor ``REPRO_ENGINE``, default ``object``); the
    ``study_cold_array`` stage always runs on the array backend so the
    payload carries both sides of the comparison.  ``sched`` likewise
    selects the scheduler backend for the study stages (``None``:
    honor ``REPRO_SCHED``, default ``object``); the scheduling stage
    pair and ``study_cold_sched_array`` always pin their backends so
    the payload carries both sides of that comparison too.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    engine = resolve_engine(engine)
    sched = resolve_sched(sched)
    seconds, units, counters = _measure(num_dags, engine, sched)
    for _ in range(repeat - 1):
        again, _units, _counters = _measure(num_dags, engine, sched)
        for name, value in again.items():
            if value < seconds[name]:
                seconds[name] = value
    stages = {}
    for name in _STAGE_NAMES:
        n = units[name]
        stage = {
            "seconds": round(seconds[name], 6),
            "units": n,
            "seconds_per_unit": round(seconds[name] / n, 6),
        }
        stage_engine = _stage_engine(name, engine)
        if stage_engine is not None:
            stage["engine"] = stage_engine
        stage_sched = _stage_sched(name, sched)
        if stage_sched is not None:
            stage["sched"] = stage_sched
        stages[name.removeprefix("pipeline.")] = stage
    return {
        "bench": "pipeline",
        "version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        "host": host_metadata(),
        "config": {
            "num_dags": num_dags,
            "algorithms": list(ALGORITHMS),
            "num_nodes": 32,
            "simulator": "analytic",
            "repeat": repeat,
            "engine": engine,
            "sched": sched,
        },
        "stages": stages,
        "counters": counters,
    }


def cache_speedup(payload: dict) -> float | None:
    """Cold-vs-warm study ratio of a bench payload (None if absent).

    ``study_cold / cached_rerun`` — how many times faster a warm-cache
    full-study re-run is than the cold run that populated the cache.
    """
    stages = payload.get("stages", {})
    cold = stages.get("study_cold", {}).get("seconds")
    warm = stages.get("cached_rerun", {}).get("seconds")
    if not cold or not warm:
        return None
    return cold / warm


def obs_overhead(payload: dict) -> float | None:
    """Timeline-tracing overhead ratio (None if stages are absent).

    ``obs_overhead_on / obs_overhead_off`` — how much slower the
    uncached study runs with an in-memory timeline attached than with
    observability fully disabled (1.0 means free).
    """
    stages = payload.get("stages", {})
    off = stages.get("obs_overhead_off", {}).get("seconds")
    on = stages.get("obs_overhead_on", {}).get("seconds")
    if not off or not on:
        return None
    return on / off


def live_overhead(payload: dict) -> float | None:
    """Live-telemetry overhead ratio (None if stages are absent).

    ``obs_live_overhead_on / obs_live_overhead_off`` — how much slower
    the uncached two-worker study runs with the live progress bus
    attached (queue, heartbeats, drain thread) than detached (1.0
    means free).
    """
    stages = payload.get("stages", {})
    off = stages.get("obs_live_overhead_off", {}).get("seconds")
    on = stages.get("obs_live_overhead_on", {}).get("seconds")
    if not off or not on:
        return None
    return on / off


def sched_speedup(payload: dict) -> float | None:
    """Object-vs-array scheduler ratio (None if stages are absent).

    ``scheduling / scheduling_array`` — how many times faster the
    flat-array allocation core runs the bench's allocation phase than
    the object loop on identical inputs (> 1 means faster).
    """
    stages = payload.get("stages", {})
    obj = stages.get("scheduling", {}).get("seconds")
    arr = stages.get("scheduling_array", {}).get("seconds")
    if not obj or not arr:
        return None
    return obj / arr


def study_throughput_speedup(payload: dict) -> float | None:
    """Chunked-vs-per-cell dispatch ratio (None if stages are absent).

    ``study_throughput_w4_percell / study_throughput_w4`` — how many
    times more cold-study cells/sec the chunked executor sustains than
    per-cell dispatch at the same four-worker pool (> 1 means chunking
    pays for the dispatch overhead it amortizes).
    """
    stages = payload.get("stages", {})
    percell = stages.get("study_throughput_w4_percell", {}).get("seconds")
    chunked = stages.get("study_throughput_w4", {}).get("seconds")
    if not percell or not chunked:
        return None
    return percell / chunked


def study_cells_per_sec(
    payload: dict, stage: str = "study_throughput_w4"
) -> float | None:
    """End-to-end cold-study throughput of one bench stage, cells/sec.

    The stage's ``units`` field is its grid-cell count, so
    ``units / seconds`` is the figure ``docs/performance.md`` and the
    CI throughput artifact track (None if the stage is absent).
    """
    info = payload.get("stages", {}).get(stage)
    if not info or not info.get("seconds"):
        return None
    return info["units"] / info["seconds"]


def assert_sched_identity(num_dags: int = NUM_DAGS) -> int:
    """Bit-identity sweep between the scheduler backends.

    Runs every CPA-family algorithm over the bench's DAG subset on
    both backends and compares allocations, observability events,
    counters, timeline lines and profiler structure case by case.  Raises
    :class:`RuntimeError` on the first divergence; returns the number
    of cases compared.  Backs the ``--assert-sched`` bench flag.
    """
    from repro.obs import MemorySink, Profiler
    from repro.obs.timeline import timeline_lines

    platform = bayreuth_cluster(32)
    suite = build_analytical_suite(platform)
    dags = generate_paper_dags(seed=0)[:num_dags]
    algorithms = ("cpa",) + ALGORITHMS
    facets = ("allocations", "events", "counters", "timeline", "profile")

    def _costs(graph):
        return SchedulingCosts(
            graph,
            platform,
            suite.task_model,
            startup_model=suite.startup_model,
            redistribution_model=suite.redistribution_model,
        )

    def _run(allocator, graph):
        costs = _costs(graph)
        sink = MemorySink()
        rec = Recorder(sink, timeline=Timeline(), profiler=Profiler())
        with recording(rec):
            alloc = allocator(graph, costs)
        return (
            alloc,
            [r for r in sink.records if r.get("type") == "event"],
            dict(rec.counters),
            timeline_lines(rec.timeline.records),
            rec.profiler.structure(),
        )

    checked = 0
    for _params, graph in dags:
        for algorithm in algorithms:
            obj = _run(
                lambda g, c: _OBJECT_ALLOCATORS[algorithm](
                    g, c, sched="object"
                ),
                graph,
            )
            arr = _run(ARRAY_ALLOCATORS[algorithm], graph)
            for facet, x, y in zip(facets, obj, arr):
                if x != y:
                    raise RuntimeError(
                        f"scheduler backends diverged on {facet} "
                        f"(dag={graph.name}, algorithm={algorithm})"
                    )
            checked += 1
    return checked


def assert_chunk_identity(num_dags: int = NUM_DAGS) -> int:
    """Bit-identity sweep between the chunked executor and serial loop.

    Runs the bench study grid serially, then through the chunked
    executor at four workers with per-cell, small and single-chunk
    sizes, and compares records, observability events, counters,
    timeline lines and profiler structure case by case; a final
    cold/warm cache pair exercises the batched cache front-end the
    same way.  ``runner.workers_clamped`` is excluded (it is the one
    counter allowed to differ across hosts).  Raises
    :class:`RuntimeError` on the first divergence; returns the number
    of configurations compared.  Backs the ``--assert-chunk`` bench
    flag.
    """
    from repro.obs import MemorySink, Profiler
    from repro.obs.timeline import timeline_lines

    platform = bayreuth_cluster(32)
    emulator = TGridEmulator(platform, seed=0)
    suite = build_analytical_suite(platform)
    dags = generate_paper_dags(seed=0)[:num_dags]
    facets = ("records", "events", "counters", "timeline", "profile")

    def _run(workers, chunk=None, cache=None):
        sink = MemorySink()
        rec = Recorder(sink, timeline=Timeline(), profiler=Profiler())
        with recording(rec):
            result = run_study(
                dags,
                [suite],
                emulator,
                workers=workers,
                cache=cache,
                chunk=chunk,
            )
        counters = {
            k: v
            for k, v in rec.metrics()["counters"].items()
            if k != "runner.workers_clamped"
        }
        return (
            result.records,
            [r for r in sink.records if r.get("type") == "event"],
            counters,
            timeline_lines(rec.timeline.records),
            rec.profiler.structure(),
        )

    def _compare(serial_run, chunked_run, label):
        for facet, x, y in zip(facets, serial_run, chunked_run):
            if x != y:
                raise RuntimeError(
                    "chunked executor diverged from the serial loop "
                    f"on {facet} ({label})"
                )

    checked = 0
    serial = _run(1)
    for chunk in (1, 4, 10**9):
        _compare(serial, _run(4, chunk=chunk), f"workers=4, chunk={chunk}")
        checked += 1
    # Cold fills the cache through the pool; warm satisfies every cell
    # from the planner's batched probe and never dispatches.
    serial_root = tempfile.mkdtemp(prefix="repro-chunk-identity-")
    chunked_root = tempfile.mkdtemp(prefix="repro-chunk-identity-")
    try:
        serial_cold = _run(1, cache=ResultCache(serial_root))
        serial_warm = _run(1, cache=ResultCache(serial_root))
        _compare(
            serial_cold,
            _run(4, chunk=4, cache=ResultCache(chunked_root)),
            "cold cache, workers=4, chunk=4",
        )
        checked += 1
        _compare(
            serial_warm,
            _run(4, chunk=4, cache=ResultCache(chunked_root)),
            "warm cache, workers=4, chunk=4",
        )
        checked += 1
    finally:
        shutil.rmtree(serial_root, ignore_errors=True)
        shutil.rmtree(chunked_root, ignore_errors=True)
    return checked


def assert_live_identity(num_dags: int = NUM_DAGS) -> int:
    """Bit-identity sweep with live telemetry attached vs detached.

    Runs the bench study grid with no telemetry, then with a started
    :class:`~repro.obs.live.LiveTelemetry` bus observing — serially
    (parent-local folding) and through the chunked executor at four
    workers (queue + heartbeat path) — and compares records,
    observability events, counters, timeline lines and profiler
    structure case by case (``runner.workers_clamped`` excluded, as in
    :func:`assert_chunk_identity`).  Also checks the telemetry's own
    fold saw every cell.  The channel is strictly observational; any
    divergence is a bug.  Raises :class:`RuntimeError` on the first
    divergence; returns the number of configurations compared.  Backs
    the ``--assert-live`` bench flag.
    """
    from repro.obs import MemorySink, Profiler
    from repro.obs.timeline import timeline_lines

    platform = bayreuth_cluster(32)
    emulator = TGridEmulator(platform, seed=0)
    suite = build_analytical_suite(platform)
    dags = generate_paper_dags(seed=0)[:num_dags]
    facets = ("records", "events", "counters", "timeline", "profile")

    def _run(workers, telemetry=None):
        sink = MemorySink()
        rec = Recorder(sink, timeline=Timeline(), profiler=Profiler())
        with recording(rec):
            result = run_study(
                dags,
                [suite],
                emulator,
                workers=workers,
                telemetry=telemetry,
            )
        counters = {
            k: v
            for k, v in rec.metrics()["counters"].items()
            if k != "runner.workers_clamped"
        }
        return (
            result.records,
            [r for r in sink.records if r.get("type") == "event"],
            counters,
            timeline_lines(rec.timeline.records),
            rec.profiler.structure(),
        )

    num_cells = len(dags) * len(ALGORITHMS)
    checked = 0
    for workers in (1, 4):
        detached = _run(workers)
        telemetry = LiveTelemetry(heartbeat_s=0.2).start()
        try:
            attached = _run(workers, telemetry=telemetry)
        finally:
            telemetry.close()
        for facet, x, y in zip(facets, detached, attached):
            if x != y:
                raise RuntimeError(
                    "live telemetry perturbed the study "
                    f"on {facet} (workers={workers})"
                )
        snap = telemetry.snapshot()
        study = snap["study"]
        if study["total"] != num_cells or study["done"] != num_cells:
            raise RuntimeError(
                "live telemetry lost events: saw "
                f"{study['done']}/{study['total']} cells, expected "
                f"{num_cells}/{num_cells} (workers={workers})"
            )
        checked += 1
    return checked


@dataclass(frozen=True)
class StageComparison:
    """Per-stage verdict of a baseline comparison."""

    stage: str
    baseline_s: float
    current_s: float
    threshold: float

    @property
    def ratio(self) -> float:
        """current / baseline (> 1 means slower than the baseline)."""
        if self.baseline_s <= 0:
            return 1.0
        return self.current_s / self.baseline_s

    @property
    def regressed(self) -> bool:
        return self.ratio > 1.0 + self.threshold


def compare_to_baseline(
    payload: dict, baseline: dict, *, threshold: float = 0.25
) -> list[StageComparison]:
    """Compare a bench payload's stages against a baseline payload.

    Stages absent from the baseline are skipped (new stages cannot
    regress).  ``threshold`` is the relative slowdown tolerated before
    a stage counts as regressed — benchmarks on shared runners are
    noisy, so small ratios mean nothing.
    """
    current_cfg = payload.get("config", {}).get("num_dags")
    baseline_cfg = baseline.get("config", {}).get("num_dags")
    if baseline_cfg is not None and current_cfg != baseline_cfg:
        raise ValueError(
            f"bench config mismatch: measured num_dags={current_cfg} vs "
            f"baseline num_dags={baseline_cfg}; per-stage times are not "
            "comparable (re-run with matching --dags)"
        )
    comparisons = []
    base_stages = baseline.get("stages", {})
    for stage, current in payload["stages"].items():
        base = base_stages.get(stage)
        if base is None:
            continue
        comparisons.append(
            StageComparison(
                stage=stage,
                baseline_s=base["seconds"],
                current_s=current["seconds"],
                threshold=threshold,
            )
        )
    return comparisons


def render_comparison(comparisons: list[StageComparison]) -> str:
    """Human-readable comparison table with a final verdict line."""
    lines = [
        f"  {'stage':<20} {'baseline':>10} {'current':>10} "
        f"{'ratio':>7}  verdict"
    ]
    for c in comparisons:
        verdict = "REGRESSED" if c.regressed else "ok"
        lines.append(
            f"  {c.stage:<20} {c.baseline_s:>9.3f}s {c.current_s:>9.3f}s "
            f"{c.ratio:>6.2f}x  {verdict}"
        )
    worst = max(comparisons, key=lambda c: c.ratio, default=None)
    if worst is None:
        lines.append("  (no comparable stages)")
    elif any(c.regressed for c in comparisons):
        lines.append(
            f"  FAIL: regression beyond {100 * worst.threshold:.0f}% "
            f"(worst: {worst.stage} at {worst.ratio:.2f}x)"
        )
    else:
        lines.append(
            f"  PASS: no stage beyond {100 * worst.threshold:.0f}% of baseline"
        )
    return "\n".join(lines)
