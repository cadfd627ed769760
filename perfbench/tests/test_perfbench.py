"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

The smoke runs start the real benchmark on every workload (about two
minutes in all on a 2-CPU host).
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import digest  # noqa: E402
import run  # noqa: E402
from child import WORKLOADS  # noqa: E402
from ledger import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_names_what_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
        assert declared == table
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.fixture(scope="module")
def smoke() -> dict[tuple[str, int], tuple[dict, dict]]:
    return {}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(smoke, workload, trace):
    detail, result = _result(
        _bench("--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace))
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= digest.GRID_CELLS
    table = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _u, _b in table]
    for name, unit, _better in table:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
    samples = detail["samples"] + ([detail["traced"]] if trace else [])
    assert samples[0]["seed"] == 0
    for sample in samples:
        if sample["seed"] == 0:
            assert sample["wrong_signs"] == {
                sim: list(counts.values())
                for sim, counts in digest.SEED0_WRONG_SIGNS.items()
            }
    assert detail["cell_error_rate"] == 0.0
    assert set(detail["host"]) >= {
        "cpus_available", "workers", "cpu_model", "platform", "python",
        "git_commit",
    }
    if trace:
        layers = result["metrics"]
        rows = sum(value for _name, value in detail["traced"]["ledger"])
        assert rows == pytest.approx(layers["runner.grid_s"]["value"])
        assert layers["scheduling.calls"]["value"] == digest.GRID_CELLS
    smoke[(workload, trace)] = {(s["seed"], s["digest"]) for s in samples}


def test_every_workload_yields_the_same_digest(smoke):
    if len(smoke) < 2 * len(WORKLOADS):
        pytest.skip("needs every smoke run")
    for seed, got in set().union(*smoke.values()):
        entry = digest.load_reference(digest.REFERENCE_PATH, seed)
        assert got == entry["digest"], seed


def test_perturbed_reference_fails_every_cell(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    copy = tmp_path / "perfbench" / "reference.json"
    table = json.loads(copy.read_text())
    flip = str.maketrans("0123456789abcdef", "123456789abcdef0")
    for entry in table["seeds"].values():
        entry["tags"] = entry["tags"].translate(flip)
        entry["digest"] = entry["digest"].translate(flip)
    copy.write_text(json.dumps(table))
    detail, result = _result(
        _bench("--workload", "study_parallel", "--seed", "0", "--seconds",
               "1", "--trace", "0", cwd=tmp_path)
    )
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert detail["cell_error_rate"] == 1.0


def _first(seed: int, n: int) -> list[int]:
    return list(itertools.islice(digest.study_seeds(seed), n))


def test_every_seed_selects_reference_seeds():
    table = json.loads(digest.REFERENCE_PATH.read_text())["seeds"]
    assert _first(0, 1) == [0]
    assert _first(7919, 1) == [7919]
    for seed in (0, 100, 12345, -1, 2**40):
        seeds = _first(seed, 20)
        assert len(set(seeds)) == 20
        assert all(str(s) in table for s in seeds)
    assert not set(_first(30, 20)) & set(_first(31, 20))


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "study_cache_write", "--seed", "0",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_unwrapped_layer_fails_loudly(tmp_path):
    tracer = Tracer(tmp_path)
    with pytest.raises(RuntimeError, match="not wrapped"):
        tracer.metrics(
            import_s=0.1, grid_s=1.0, workers=1,
            expected_calls={"scheduling": digest.GRID_CELLS},
            untraced_grid_s=1.0,
        )


def test_count_mismatches_counts_cells():
    lines = [f"analytic|d{i}|hcpa|0x1p+0|0x1p+1|{i}" for i in range(5)]
    entry = digest.summarize(lines)
    assert digest.count_mismatches(lines, entry) == 0
    changed = list(lines)
    changed[3] = changed[3].replace("0x1p+1", "0x1.8p+1")
    assert digest.count_mismatches(changed, entry) == 1
    assert digest.count_mismatches(lines[:4], entry) == 1
    assert digest.count_mismatches([], entry) == 5
