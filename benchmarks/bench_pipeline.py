"""Pipeline stage benchmark: where does the wall-clock time go?

Thin entry point over :mod:`repro.experiments.bench`, which times the
four stages every study run goes through — DAG generation, scheduling
(an object-vs-array allocation-phase pair), simulation, testbed
execution — plus a cold/warm full-study pair through the
content-addressed result cache, cold studies on the array engine and
array scheduler backends, a study-throughput quartet (the cold study
through the chunked executor at 1/2/4 workers plus per-cell dispatch
at 4 workers), a timeline-tracing on/off overhead pair, a
live-telemetry on/off overhead pair (the two-worker study with the
streaming progress bus detached vs attached), and writes the
aggregate to ``BENCH_pipeline.json`` at the repository root.  This
seeds the benchmark trajectory every future performance PR measures
against.

Run directly (``python benchmarks/bench_pipeline.py``) or via pytest
(``pytest benchmarks/bench_pipeline.py``); ``repro bench`` is the same
entry point through the CLI.

Flags::

    --compare           compare against the committed baseline instead
                        of overwriting it; exit 1 on regression
    --threshold FRAC    relative slowdown tolerated per stage (0.25)
    --repeat N          run N passes, keep the per-stage minimum
    --update            rewrite BENCH_pipeline.json (default when no
                        --compare is given)
    --engine NAME       simulation backend for the pipeline stages
                        (object | array; default honors REPRO_ENGINE)
    --sched NAME        scheduler backend for the study stages
                        (object | array; default honors REPRO_SCHED)
    --assert-sched      exit 1 if the object and array scheduler
                        backends diverge on any allocation, event,
                        counter, timeline line or profile structure
    --assert-chunk      exit 1 if the chunked study executor diverges
                        from the serial loop on any record, event,
                        counter, timeline line or profile structure
                        (per-cell, small and single-chunk sizes, plus
                        a cold/warm cache pair)
    --assert-live       exit 1 if attaching the live telemetry bus
                        perturbs any record, event, counter, timeline
                        line or profile structure (serial and 4-worker
                        sweeps), or the bus loses cell events

Rolling per-machine regression tracking
lives in ``repro bench --check``
(:mod:`repro.experiments.bench_history`), not here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # script use without install
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.bench import (  # noqa: E402
    NUM_DAGS,
    assert_chunk_identity,
    assert_live_identity,
    assert_sched_identity,
    cache_speedup,
    compare_to_baseline,
    live_overhead,
    obs_overhead,
    render_comparison,
    run_pipeline_bench,
    sched_speedup,
    study_cells_per_sec,
    study_throughput_speedup,
)

OUTPUT = REPO_ROOT / "BENCH_pipeline.json"


def run_benchmark(num_dags: int = NUM_DAGS) -> dict:
    """Back-compat alias for :func:`run_pipeline_bench`."""
    return run_pipeline_bench(num_dags)


def test_bench_pipeline():
    """Pytest entry: the bench runs and every stage takes positive time."""
    payload = run_pipeline_bench(num_dags=3, engine="object", sched="object")
    assert set(payload["stages"]) == {
        "dag_generation", "scheduling", "scheduling_array",
        "simulation", "testbed_execution",
        "study_cold", "study_cold_array", "study_cold_sched_array",
        "study_throughput_w1", "study_throughput_w2",
        "study_throughput_w4", "study_throughput_w4_percell",
        "cached_rerun", "obs_overhead_off", "obs_overhead_on",
        "obs_live_overhead_off", "obs_live_overhead_on",
    }
    for stage in payload["stages"].values():
        assert stage["seconds"] >= 0.0
        assert stage["units"] > 0
    # Each simulation-bearing stage records which backend produced it.
    assert payload["stages"]["study_cold"]["engine"] == "object"
    assert payload["stages"]["study_cold_array"]["engine"] == "array"
    assert "engine" not in payload["stages"]["dag_generation"]
    assert payload["config"]["engine"] == "object"
    # Allocation-phase stages record the scheduler backend likewise.
    assert payload["stages"]["scheduling"]["sched"] == "object"
    assert payload["stages"]["scheduling_array"]["sched"] == "array"
    assert payload["stages"]["study_cold_sched_array"]["sched"] == "array"
    assert payload["stages"]["study_cold_sched_array"]["engine"] == "array"
    assert "sched" not in payload["stages"]["dag_generation"]
    assert payload["config"]["sched"] == "object"
    assert payload["counters"]["engine.steps"] > 0
    # The warm re-run replayed every cell from the cache.
    assert payload["counters"]["cache.hits"] > 0
    assert cache_speedup(payload) is not None
    assert obs_overhead(payload) is not None
    assert live_overhead(payload) is not None
    # The live pair runs the study stages like every other study stage.
    for name in ("obs_live_overhead_off", "obs_live_overhead_on"):
        assert payload["stages"][name]["engine"] == "object"
        assert payload["stages"][name]["sched"] == "object"
    assert sched_speedup(payload) is not None
    assert study_throughput_speedup(payload) is not None
    assert study_cells_per_sec(payload) is not None
    # Throughput stages pin their worker count and chunk size and
    # record the backends like every other study stage.
    for name in ("study_throughput_w1", "study_throughput_w4_percell"):
        assert payload["stages"][name]["engine"] == "object"
        assert payload["stages"][name]["sched"] == "object"
    # The payload records the host that produced it — wall-clock
    # trajectories are only comparable on similar machines.
    host = payload["host"]
    assert host["cpus"] >= 1
    assert host["platform"] and host["python"]


def _print_stages(payload: dict) -> None:
    total = sum(s["seconds"] for s in payload["stages"].values())
    for name, stage in payload["stages"].items():
        share = 100.0 * stage["seconds"] / total if total else 0.0
        print(
            f"  {name:<24} {stage['seconds']:8.3f} s "
            f"({share:5.1f} %, {1e3 * stage['seconds_per_unit']:8.3f} ms/unit)"
        )
    speedup = cache_speedup(payload)
    if speedup is not None:
        print(f"  warm-cache study re-run: {speedup:.1f}x faster than cold")
    overhead = obs_overhead(payload)
    if overhead is not None:
        print(f"  timeline tracing overhead: {overhead:.2f}x vs disabled")
    live_ratio = live_overhead(payload)
    if live_ratio is not None:
        print(
            f"  live telemetry overhead: {live_ratio:.2f}x vs disabled"
        )
    sched_ratio = sched_speedup(payload)
    if sched_ratio is not None:
        print(
            f"  array scheduler: {sched_ratio:.2f}x vs object "
            "allocation loop"
        )
    throughput = study_cells_per_sec(payload)
    chunk_ratio = study_throughput_speedup(payload)
    if throughput is not None and chunk_ratio is not None:
        print(
            f"  study throughput: {throughput:.1f} cells/s chunked at 4 "
            f"workers ({chunk_ratio:.2f}x vs per-cell dispatch)"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dags", type=int, default=NUM_DAGS)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--compare",
        action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    parser.add_argument("--threshold", type=float, default=0.25)
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline (implied when --compare is absent)",
    )
    parser.add_argument(
        "--engine",
        choices=("object", "array"),
        default=None,
        help="simulation backend for the pipeline stages "
        "(default honors REPRO_ENGINE)",
    )
    parser.add_argument(
        "--sched",
        choices=("object", "array"),
        default=None,
        help="scheduler backend for the study stages "
        "(default honors REPRO_SCHED)",
    )
    parser.add_argument(
        "--assert-sched",
        action="store_true",
        help="exit 1 if the scheduler backends diverge",
    )
    parser.add_argument(
        "--assert-chunk",
        action="store_true",
        help="exit 1 if the chunked study executor diverges from the "
        "serial loop",
    )
    parser.add_argument(
        "--assert-live",
        action="store_true",
        help="exit 1 if attaching the live telemetry bus perturbs the "
        "study or loses cell events",
    )
    args = parser.parse_args(argv)

    payload = run_pipeline_bench(
        num_dags=args.dags,
        repeat=args.repeat,
        engine=args.engine,
        sched=args.sched,
    )

    def check_sched() -> int:
        if not args.assert_sched:
            return 0
        try:
            checked = assert_sched_identity(args.dags)
        except RuntimeError as exc:
            print(f"sched assertion FAILED: {exc}", file=sys.stderr)
            return 1
        print(
            f"sched assertion passed: {checked} cases bit-identical "
            "across backends"
        )
        return 0

    def check_chunk() -> int:
        if not args.assert_chunk:
            return 0
        try:
            checked = assert_chunk_identity(args.dags)
        except RuntimeError as exc:
            print(f"chunk assertion FAILED: {exc}", file=sys.stderr)
            return 1
        print(
            f"chunk assertion passed: {checked} configurations "
            "bit-identical with the serial loop"
        )
        return 0

    def check_live() -> int:
        if not args.assert_live:
            return 0
        try:
            checked = assert_live_identity(args.dags)
        except RuntimeError as exc:
            print(f"live assertion FAILED: {exc}", file=sys.stderr)
            return 1
        print(
            f"live assertion passed: {checked} configurations "
            "bit-identical with telemetry detached"
        )
        return 0

    if args.compare:
        try:
            baseline = json.loads(OUTPUT.read_text(encoding="utf-8"))
        except FileNotFoundError:
            print(f"no baseline at {OUTPUT}; run without --compare first")
            return 2
        try:
            comparisons = compare_to_baseline(
                payload, baseline, threshold=args.threshold
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _print_stages(payload)
        print(render_comparison(comparisons))
        if args.update:
            OUTPUT.write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )
            print(f"wrote {OUTPUT}")
        if any(c.regressed for c in comparisons):
            return 1
        return check_sched() or check_chunk() or check_live()

    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT}")
    _print_stages(payload)
    return check_sched() or check_chunk() or check_live()


if __name__ == "__main__":
    raise SystemExit(main())
