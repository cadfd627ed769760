"""Cached study re-execution must be invisible in the results.

Acceptance property of the result cache: records, traces and makespans
are bit-identical between a cold run (populating the cache), a warm
re-run (replaying from it) and a cache-disabled run — serially and
under a worker pool — while the warm run does no recomputation.
"""

from __future__ import annotations

import errno
import logging
import os

import pytest

from repro.cache import ResultCache, canonical_hash, schedule_fingerprint
from repro.dag.generator import generate_paper_dags
from repro.experiments import runner as runner_mod
from repro.experiments.runner import run_study
from repro.obs.recorder import Recorder, recording
from repro.platform.personalities import bayreuth_cluster
from repro.profiling.calibration import (
    build_analytical_suite,
    build_empirical_suite,
    build_profile_suite,
)
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.driver import schedule_dag
from repro.simgrid.simulator import ApplicationSimulator
from repro.testbed.tgrid import TGridEmulator


@pytest.fixture(scope="module")
def study_inputs():
    platform = bayreuth_cluster(8)
    emulator = TGridEmulator(platform, seed=0)
    suite = build_analytical_suite(platform)
    dags = generate_paper_dags(seed=0)[:3]
    return dags, suite, emulator


@pytest.fixture(scope="module")
def twelve_dag_inputs():
    """12 DAGs under two suites whose models differ, on the paper's
    32-node cluster (a profile table covers exactly the nodes it was
    calibrated on)."""
    platform = bayreuth_cluster()
    emulator = TGridEmulator(platform, seed=0)
    suites = [
        build_analytical_suite(platform),
        build_profile_suite(
            emulator, sizes=(2000, 3000), kernel_trials=1,
            startup_trials=2, redistribution_trials=1,
        ),
    ]
    return generate_paper_dags(seed=0)[:12], suites, emulator


def _run(study_inputs, cache, workers=1):
    dags, suite, emulator = study_inputs
    recorder = Recorder.to_memory()
    with recording(recorder):
        result = run_study(
            dags, [suite], emulator, workers=workers, cache=cache
        )
    return result, recorder.metrics()["counters"]


class TestStudyEquivalence:
    def test_cold_warm_disabled_all_identical(self, study_inputs, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        baseline, _ = _run(study_inputs, cache=None)
        cold, cold_counters = _run(study_inputs, cache=cache)
        warm, warm_counters = _run(study_inputs, cache=cache)

        # RunRecord is a frozen dataclass: == is field-for-field, so
        # this compares every makespan bit-identically.
        assert cold.records == baseline.records
        assert warm.records == baseline.records

        assert cold_counters["cache.misses"] > 0
        assert "cache.hits" not in cold_counters
        assert warm_counters["cache.hits"] == cold_counters["cache.misses"]
        assert "cache.misses" not in warm_counters

    def test_warm_replay_identical_under_worker_pool(
        self, study_inputs, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        baseline, _ = _run(study_inputs, cache=None)
        # Cold under the pool: workers share the store via atomic writes.
        cold, _ = _run(study_inputs, cache=cache, workers=2)
        warm, warm_counters = _run(study_inputs, cache=cache, workers=2)
        assert cold.records == baseline.records
        assert warm.records == baseline.records
        assert warm_counters["cache.hits"] > 0
        assert "cache.misses" not in warm_counters

    def test_per_layer_counters_cover_all_three_phases(
        self, study_inputs, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        _run(study_inputs, cache=cache)
        _, warm_counters = _run(study_inputs, cache=cache)
        dags, _suite, _emulator = study_inputs
        cells = len(dags) * 2  # two algorithms
        assert warm_counters["cache.schedule.hits"] == cells
        # Each cell caches one simulated and one emulated trace.
        assert warm_counters["cache.simulation.hits"] == 2 * cells


class TestPhaseLevelReplay:
    def test_schedule_replay_is_bit_identical(self, study_inputs, tmp_path):
        dags, suite, emulator = study_inputs
        _params, graph = dags[0]
        platform = emulator.platform
        costs = SchedulingCosts(
            graph,
            platform,
            suite.task_model,
            startup_model=suite.startup_model,
            redistribution_model=suite.redistribution_model,
        )
        fresh = schedule_dag(graph, costs, "hcpa")
        cache = ResultCache(tmp_path / "cache")
        cold = schedule_dag(graph, costs, "hcpa", cache=cache)
        warm = schedule_dag(graph, costs, "hcpa", cache=cache)
        for replay in (cold, warm):
            assert canonical_hash(
                schedule_fingerprint(replay)
            ) == canonical_hash(schedule_fingerprint(fresh))
            assert replay.makespan_estimate == fresh.makespan_estimate

    def test_simulation_replay_is_bit_identical(self, study_inputs, tmp_path):
        dags, suite, emulator = study_inputs
        _params, graph = dags[0]
        platform = emulator.platform
        costs = SchedulingCosts(
            graph,
            platform,
            suite.task_model,
            startup_model=suite.startup_model,
            redistribution_model=suite.redistribution_model,
        )
        schedule = schedule_dag(graph, costs, "mcpa")
        simulator = ApplicationSimulator(
            platform,
            suite.task_model,
            startup_model=suite.startup_model,
            redistribution_model=suite.redistribution_model,
        )
        fresh = simulator.run(graph, schedule)
        cache = ResultCache(tmp_path / "cache")
        cold = simulator.run_cached(graph, schedule, cache)
        warm = simulator.run_cached(graph, schedule, cache)
        # SimulationTrace is a dataclass of frozen per-task/per-edge
        # records: == compares the full trace, not just the makespan.
        assert cold == fresh
        assert warm == fresh


class TestCalibrationLayer:
    def test_profile_suite_is_memoised(self, study_inputs, tmp_path):
        _dags, _suite, emulator = study_inputs
        cache = ResultCache(tmp_path / "cache")
        recorder = Recorder.to_memory()
        kwargs = dict(
            sizes=(2000,),
            kernel_trials=1,
            startup_trials=2,
            redistribution_trials=1,
        )
        with recording(recorder):
            cold = build_profile_suite(emulator, cache=cache, **kwargs)
            warm = build_profile_suite(emulator, cache=cache, **kwargs)
        counters = recorder.metrics()["counters"]
        assert counters["cache.calibration.misses"] == 1
        assert counters["cache.calibration.hits"] == 1
        assert dict(warm.task_model.items()) == dict(cold.task_model.items())

    def test_different_measurement_params_miss(self, study_inputs, tmp_path):
        _dags, _suite, emulator = study_inputs
        cache = ResultCache(tmp_path / "cache")
        recorder = Recorder.to_memory()
        with recording(recorder):
            build_profile_suite(
                emulator, cache=cache, sizes=(2000,), kernel_trials=1,
                startup_trials=2, redistribution_trials=1,
            )
            build_profile_suite(
                emulator, cache=cache, sizes=(2000,), kernel_trials=2,
                startup_trials=2, redistribution_trials=1,
            )
        counters = recorder.metrics()["counters"]
        assert counters["cache.calibration.misses"] == 2
        assert "cache.calibration.hits" not in counters

    def test_empirical_suite_is_memoised(self, study_inputs, tmp_path):
        _dags, _suite, emulator = study_inputs
        cache = ResultCache(tmp_path / "cache")
        recorder = Recorder.to_memory()
        kwargs = dict(
            sizes=(2000,),
            kernel_trials=1,
            startup_trials=2,
            redistribution_trials=1,
        )
        with recording(recorder):
            cold = build_empirical_suite(emulator, cache=cache, **kwargs)
            warm = build_empirical_suite(emulator, cache=cache, **kwargs)
        counters = recorder.metrics()["counters"]
        assert counters["cache.calibration.misses"] == 1
        assert counters["cache.calibration.hits"] == 1
        assert warm.startup_model.fit == cold.startup_model.fit


def _spy(monkeypatch, method, log):
    """Record ``(layer, key hash)`` of every call to a ResultCache method."""
    real = getattr(ResultCache, method)

    def spy(self, layer, key, *args):
        log.append((layer, canonical_hash(key)))
        return real(self, layer, key, *args)

    monkeypatch.setattr(ResultCache, method, spy)


class TestDigestKeys:
    def test_planner_keys_equal_the_cell_path_keys(
        self, twelve_dag_inputs, tmp_path, monkeypatch
    ):
        dags, suites, emulator = twelve_dag_inputs
        cache = ResultCache(tmp_path / "cache")
        cell_path: list[tuple[str, str]] = []
        _spy(monkeypatch, "get_or_compute", cell_path)
        run_study(dags, suites, emulator, cache=cache)

        planned: list[tuple[str, str]] = []
        _spy(monkeypatch, "peek", planned)
        _spy(monkeypatch, "contains", planned)
        cells = [
            (suite_idx, dag_idx, algorithm)
            for suite_idx in range(len(suites))
            for dag_idx in range(len(dags))
            for algorithm in ("hcpa", "mcpa")
        ]
        hits = runner_mod._plan_cache_hits(
            cells, runner_mod._StudyDigests(dags, suites, emulator), cache
        )
        assert hits == [True] * len(cells)
        # Per cell, in grid order: the schedule, simulation and testbed
        # keys — the same three keys, probed in the same order.
        assert len(planned) == 3 * len(cells)
        assert planned == cell_path

    def test_study_cache_serves_standalone_calls(
        self, twelve_dag_inputs, tmp_path
    ):
        # The `repro simulate` path: schedule_dag(cache=) and
        # run_cached hash their inputs on the spot, and must find what
        # a study wrote.
        dags, suites, emulator = twelve_dag_inputs
        platform = emulator.platform
        cache = ResultCache(tmp_path / "cache")
        study = run_study(dags, suites, emulator, cache=cache)
        recorder = Recorder.to_memory()
        with recording(recorder):
            for suite in suites:
                for _params, graph in dags:
                    costs = SchedulingCosts(
                        graph,
                        platform,
                        suite.task_model,
                        startup_model=suite.startup_model,
                        redistribution_model=suite.redistribution_model,
                    )
                    schedule = schedule_dag(graph, costs, "mcpa", cache=cache)
                    simulator = ApplicationSimulator(
                        platform,
                        suite.task_model,
                        startup_model=suite.startup_model,
                        redistribution_model=suite.redistribution_model,
                    )
                    trace = simulator.run_cached(graph, schedule, cache)
                    record = study.record(graph.name, "mcpa", suite.name)
                    assert trace.makespan == record.sim_makespan
        counters = recorder.metrics()["counters"]
        pairs = len(suites) * len(dags)
        assert counters["cache.schedule.hits"] == pairs
        assert counters["cache.simulation.hits"] == pairs
        assert "cache.misses" not in counters

    def test_warm_pooled_study_replays_without_a_pool(
        self, twelve_dag_inputs, tmp_path, monkeypatch
    ):
        dags, suites, emulator = twelve_dag_inputs
        baseline = run_study(dags, suites, emulator)
        cache = ResultCache(tmp_path / "cache")
        cold = run_study(dags, suites, emulator, workers=2, cache=cache)

        def _no_pool(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("warm study constructed a process pool")

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", _no_pool)
        recorder = Recorder.to_memory()
        with recording(recorder):
            warm = run_study(dags, suites, emulator, workers=2, cache=cache)
        assert cold.records == baseline.records
        assert warm.records == baseline.records
        counters = recorder.metrics()["counters"]
        assert counters["cache.hits"] == 3 * len(baseline.records)
        assert "cache.misses" not in counters


def _fail_replace_in(root, monkeypatch):
    """Make ``os.replace`` into ``root`` fail as a full disk does; forked
    pool workers inherit the patch."""
    real_replace = os.replace

    def replace(src, dst):
        if str(dst).startswith(str(root)):
            raise OSError(errno.ENOSPC, "No space left on device", str(dst))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def _read_only(root, monkeypatch):
    if hasattr(os, "geteuid") and os.geteuid() == 0:
        pytest.skip("permission bits do not bind the superuser")
    root.mkdir()
    root.chmod(0o555)


class TestCacheWriteFailures:
    """A cache that cannot be written degrades to no cache at all."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "break_cache", [_fail_replace_in, _read_only],
        ids=["full_disk", "read_only"],
    )
    def test_study_completes_with_uncached_records(
        self, study_inputs, tmp_path, monkeypatch, caplog, workers,
        break_cache,
    ):
        baseline, _ = _run(study_inputs, cache=None)
        root = tmp_path / "cache"
        break_cache(root, monkeypatch)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.cache.store"):
                study, counters = _run(
                    study_inputs, cache=ResultCache(root), workers=workers
                )
        finally:
            if root.is_dir():
                root.chmod(0o755)
        assert study.records == baseline.records
        # Every cell's three entries failed to persist, and were counted
        # (in pool workers too).
        assert counters["cache.write_errors"] == 3 * len(baseline.records)
        assert counters["cache.misses"] == 3 * len(baseline.records)
        assert "cache.bytes_written" not in counters
        if workers == 1:
            # Pool workers log from their own processes.
            messages = [r.getMessage() for r in caplog.records]
            assert len(messages) == 1 and str(root) in messages[0]


def _fail_at(monkeypatch, graph_name, algorithm, error):
    """Make scheduling one cell raise ``error``; forked pool workers
    inherit the patch."""
    real = runner_mod.schedule_dag

    def schedule_dag(graph, costs, algo, **kwargs):
        if graph.name == graph_name and algo == algorithm:
            raise error(f"injected failure at {graph_name}/{algorithm}")
        return real(graph, costs, algo, **kwargs)

    monkeypatch.setattr(runner_mod, "schedule_dag", schedule_dag)


class TestFaultInjection:
    """An interrupted study keeps what it finished; a damaged pack
    between studies is discarded and recomputed."""

    @pytest.mark.parametrize(
        "workers, error, rerun_misses",
        [
            # Serial: the row's batch publishes cells 0-1 on the way
            # out; cells 2-5 (three entries each) are recomputed.
            (1, RuntimeError, 3 * 4),
            (1, KeyboardInterrupt, 3 * 4),
            # Pooled, chunks of two: the failing chunk [2, 3] publishes
            # nothing, the chunks before and after it everything.
            (2, RuntimeError, 3 * 2),
        ],
        ids=["serial-raise", "serial-ctrl-c", "pooled-raise"],
    )
    def test_interrupted_study_resumes_from_its_cache(
        self, study_inputs, tmp_path, monkeypatch, workers, error,
        rerun_misses,
    ):
        dags, suite, emulator = study_inputs
        baseline, _ = _run(study_inputs, cache=None)
        cache = ResultCache(tmp_path / "cache")
        with monkeypatch.context() as patch:
            _fail_at(patch, dags[1][1].name, "hcpa", error)
            with pytest.raises(error, match="injected failure"):
                run_study(
                    dags, [suite], emulator, workers=workers, cache=cache,
                    chunk=2,
                )
        recorder = Recorder.to_memory()
        with recording(recorder):
            rerun = run_study(
                dags, [suite], emulator, workers=workers,
                cache=ResultCache(tmp_path / "cache"), chunk=2,
            )
        assert rerun.records == baseline.records
        counters = recorder.metrics()["counters"]
        assert counters["cache.misses"] == rerun_misses
        assert counters["cache.hits"] == 3 * len(baseline.records) - (
            rerun_misses
        )

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[: len(data) // 2],
            lambda data: data[:100] + bytes([data[100] ^ 0x40]) + data[101:],
            lambda data: data[:-30] + bytes([data[-30] ^ 0x40]) + data[-29:],
        ],
        ids=["truncated", "bit-flipped-entry", "bit-flipped-index"],
    )
    @pytest.mark.parametrize("layer", ["schedule", "simulation"])
    def test_damaged_pack_between_studies_is_recomputed(
        self, study_inputs, tmp_path, damage, layer
    ):
        baseline, _ = _run(study_inputs, cache=None)
        root = tmp_path / "cache"
        _run(study_inputs, cache=ResultCache(root))
        (pack,) = (root / layer).glob("*.pack")
        pack.write_bytes(damage(pack.read_bytes()))

        rerun, counters = _run(study_inputs, cache=ResultCache(root))
        assert rerun.records == baseline.records
        assert counters["cache.discarded.corrupt"] == 1
        info = ResultCache(root).info()  # removed, and rewritten whole
        assert info.corrupt_entries == 0
        assert info.entries == 3 * len(baseline.records)
        # Only the damaged layer's entries were recomputed: one
        # schedule, or two traces, per cell.
        per_cell = 1 if layer == "schedule" else 2
        assert counters["cache.misses"] == per_cell * len(baseline.records)


class TestCellErrors:
    def test_record_keyerror_names_the_missing_cell(self, study_inputs):
        dags, suite, emulator = study_inputs
        study, _ = _run(study_inputs, cache=None)
        with pytest.raises(KeyError) as err:
            study.record("no-such-dag", "hcpa", "analytic")
        message = str(err.value)
        assert "dag='no-such-dag'" in message
        assert "algorithm='hcpa'" in message
        assert "simulator='analytic'" in message
        # ... and says what the study does hold.
        assert "analytic" in message

    def test_strict_select_names_the_missing_filters(self, study_inputs):
        study, _ = _run(study_inputs, cache=None)
        assert study.select(simulator="profile") == []
        with pytest.raises(KeyError, match="simulator='profile'"):
            study.select(simulator="profile", strict=True)
