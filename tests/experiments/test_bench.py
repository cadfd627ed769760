"""Tests for the pipeline benchmark core and baseline comparison."""

from __future__ import annotations

import pytest

from repro.experiments.bench import (
    StageComparison,
    cache_speedup,
    compare_to_baseline,
    default_baseline_path,
    render_comparison,
    run_pipeline_bench,
)


def _payload(**stage_seconds):
    return {
        "stages": {
            name: {"seconds": s, "units": 1, "seconds_per_unit": s}
            for name, s in stage_seconds.items()
        }
    }


class TestComparison:
    def test_within_threshold_passes(self):
        comps = compare_to_baseline(
            _payload(scheduling=0.11), _payload(scheduling=0.10),
            threshold=0.25,
        )
        assert len(comps) == 1
        assert not comps[0].regressed
        assert comps[0].ratio == pytest.approx(1.1)

    def test_beyond_threshold_regresses(self):
        comps = compare_to_baseline(
            _payload(scheduling=0.20), _payload(scheduling=0.10),
            threshold=0.25,
        )
        assert comps[0].regressed
        assert "FAIL" in render_comparison(comps)

    def test_speedup_is_not_a_regression(self):
        comps = compare_to_baseline(
            _payload(scheduling=0.04), _payload(scheduling=0.10),
        )
        assert not comps[0].regressed
        assert "PASS" in render_comparison(comps)

    def test_new_stage_is_skipped(self):
        comps = compare_to_baseline(
            _payload(scheduling=0.1, brand_new=9.9),
            _payload(scheduling=0.1),
        )
        assert [c.stage for c in comps] == ["scheduling"]

    def test_stage_only_in_baseline_is_skipped(self):
        # A baseline written before a stage was retired still compares.
        comps = compare_to_baseline(
            _payload(scheduling=0.1),
            _payload(scheduling=0.1, retired_stage=0.01),
        )
        assert [c.stage for c in comps] == ["scheduling"]
        assert "PASS" in render_comparison(comps)

    def test_config_mismatch_is_rejected(self):
        current = _payload(scheduling=0.1)
        current["config"] = {"num_dags": 2}
        baseline = _payload(scheduling=0.1)
        baseline["config"] = {"num_dags": 12}
        with pytest.raises(ValueError, match="num_dags"):
            compare_to_baseline(current, baseline)

    def test_zero_baseline_does_not_divide(self):
        c = StageComparison(
            stage="s", baseline_s=0.0, current_s=1.0, threshold=0.25
        )
        assert c.ratio == 1.0
        assert not c.regressed


class TestBenchRun:
    def test_small_bench_produces_all_stages(self):
        payload = run_pipeline_bench(num_dags=2)
        assert set(payload["stages"]) == {
            "dag_generation",
            "scheduling",
            "scheduling_array",
            "simulation",
            "testbed_execution",
            "study_cold",
            "study_cold_array",
            "study_cold_sched_array",
            "study_throughput_w1",
            "study_throughput_w2",
            "study_throughput_w4",
            "study_throughput_w4_percell",
            "cached_rerun",
            "obs_overhead_off",
            "obs_overhead_on",
            "obs_live_overhead_off",
            "obs_live_overhead_on",
        }
        assert payload["config"]["repeat"] == 1
        assert payload["counters"]["engine.steps"] > 0

    def test_payload_stamps_host_metadata(self):
        from repro.experiments.bench import host_metadata

        payload = run_pipeline_bench(num_dags=1)
        assert payload["host"] == host_metadata()
        assert payload["host"]["cpus"] >= 1
        assert payload["host"]["platform"]
        assert payload["host"]["python"].count(".") == 2

    def test_study_throughput_helpers(self):
        from repro.experiments.bench import (
            study_cells_per_sec,
            study_throughput_speedup,
        )

        payload = run_pipeline_bench(num_dags=2)
        for stage in (
            "study_throughput_w1",
            "study_throughput_w2",
            "study_throughput_w4",
            "study_throughput_w4_percell",
        ):
            info = payload["stages"][stage]
            assert info["units"] == payload["stages"]["study_cold"]["units"]
            assert study_cells_per_sec(payload, stage) > 0
        assert study_throughput_speedup(payload) > 0
        assert study_throughput_speedup({"stages": {}}) is None
        assert study_cells_per_sec({"stages": {}}) is None

    def test_chunk_identity_sweep(self):
        from repro.experiments.bench import assert_chunk_identity

        assert assert_chunk_identity(num_dags=2) == 5

    def test_stages_record_their_engine_backend(self):
        payload = run_pipeline_bench(num_dags=2, engine="array")
        assert payload["config"]["engine"] == "array"
        for name in (
            "simulation", "testbed_execution", "study_cold", "cached_rerun",
            "study_throughput_w4", "study_throughput_w4_percell",
        ):
            assert payload["stages"][name]["engine"] == "array"
        assert payload["stages"]["study_cold_array"]["engine"] == "array"
        # Pure-python stages have no engine to report.
        assert "engine" not in payload["stages"]["scheduling"]

    def test_stages_record_their_sched_backend(self):
        payload = run_pipeline_bench(num_dags=2, sched="array")
        assert payload["config"]["sched"] == "array"
        for name in (
            "study_cold", "cached_rerun", "obs_overhead_off",
            "study_throughput_w4", "study_throughput_w4_percell",
        ):
            assert payload["stages"][name]["sched"] == "array"
        # The allocation-phase pair pins its backends regardless.
        assert payload["stages"]["scheduling"]["sched"] == "object"
        assert payload["stages"]["scheduling_array"]["sched"] == "array"
        assert payload["stages"]["study_cold_sched_array"]["sched"] == "array"
        # Stages with no allocation phase have no backend to report.
        assert "sched" not in payload["stages"]["dag_generation"]
        assert "sched" not in payload["stages"]["testbed_execution"]

    def test_sched_speedup_reads_the_scheduling_pair(self):
        from repro.experiments.bench import sched_speedup

        payload = run_pipeline_bench(num_dags=2)
        ratio = sched_speedup(payload)
        assert ratio is not None and ratio > 0
        assert sched_speedup({"stages": {}}) is None

    def test_cache_speedup_reads_the_cold_warm_pair(self):
        payload = run_pipeline_bench(num_dags=2)
        speedup = cache_speedup(payload)
        assert speedup is not None and speedup > 0
        assert cache_speedup({"stages": {}}) is None
        # The warm re-run replayed every cell from the cache.
        assert payload["counters"]["cache.hits"] > 0

    def test_repeat_keeps_the_minimum(self):
        one = run_pipeline_bench(num_dags=2, repeat=1)
        best = run_pipeline_bench(num_dags=2, repeat=2)
        assert best["config"]["repeat"] == 2
        for stage in one["stages"]:
            assert best["stages"][stage]["seconds"] >= 0.0

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError):
            run_pipeline_bench(num_dags=1, repeat=0)

    def test_default_baseline_points_at_repo_root(self):
        path = default_baseline_path()
        assert path.name == "BENCH_pipeline.json"
        assert path.exists()
