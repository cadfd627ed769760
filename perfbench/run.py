"""The repository's benchmark: the full Table I study, from process start.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study_cache_write --seed 0 \\
        --seconds 60 --trace 0

Each sample is a fresh interpreter (``perfbench/child.py``) that imports
``repro.cli``, builds the study's inputs from a study seed and runs the
full 324-cell grid (54 DAGs x HCPA/MCPA x three simulators) through the
public API with the program's own observability off.  Samples repeat
until ``--seconds`` have been measured (at least ``MIN_SAMPLES``); each
end-to-end metric is the median over the samples.  ``--seed`` selects
the study seeds the samples step through (``digest.study_seeds``), so a
run's median spans several sets of Table I DAGs.

Workloads (``child.WORKLOADS``):

``study_cache_write``
    The grid, serial, against a fresh empty cache directory: every
    layer of the program runs in it.
``study_parallel``
    The grid, no cache, on a process pool with one worker per available
    CPU (at least two).

Two workloads, not more, so that each run can be long: on a host shared
with other machines the program's speed drifts from one half minute to
the next, and a run's median steadies only over several of them.

Every sample checks its records against ``perfbench/reference.json``
and, for study seed 0, the paper's wrong-sign counts.  ``--trace 1``
adds one sample of the first study seed with the per-layer ledger of
``perfbench/ledger.py`` installed and prints its metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (grid cells) and ``metrics``.
The line before it holds the host stamp and every sample.  All scratch
files live in ``.perfbench-work/`` in the checkout and are removed; the
run fails if it leaves any other file behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import digest  # noqa: E402
from child import WORKLOADS, child_env  # noqa: E402

#: Scratch directory in the checkout, removed at the end of every run.
WORK_DIR = ".perfbench-work"

#: Directories of the checkout that the tree check ignores.
IGNORED_DIRS = {".git", WORK_DIR}

#: A run ends within this many seconds of its start, whatever happens.
DEADLINE_S = 170.0

#: Fewest samples a run medians over.
MIN_SAMPLES = 3

#: (name, unit, better) of the end-to-end metrics (``--trace 0``).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cells_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cell_ok_rate", "ratio", "higher"),
]

#: (name, unit, better) of the per-layer metrics (``--trace 1``).
PER_LAYER = [
    ("import.repro_s", "s", "lower"),
    ("dag.generate_s", "s", "lower"),
    ("profiling.calibrate_s", "s", "lower"),
    ("profiling.suites_built", "count", "lower"),
    ("testbed.measure_calls", "count", "lower"),
    ("testbed.measure_s", "s", "lower"),
    ("scheduling.calls", "count", "lower"),
    ("scheduling.self_s", "s", "lower"),
    ("scheduling.p50_ms", "ms", "lower"),
    ("scheduling.p95_ms", "ms", "lower"),
    ("simgrid.calls", "count", "lower"),
    ("simgrid.self_s", "s", "lower"),
    ("simgrid.p50_ms", "ms", "lower"),
    ("simgrid.p95_ms", "ms", "lower"),
    ("testbed.execute_calls", "count", "lower"),
    ("testbed.execute_self_s", "s", "lower"),
    ("cache.hash_calls", "count", "lower"),
    ("cache.hash_s", "s", "lower"),
    ("cache.fingerprint_s", "s", "lower"),
    ("cache.get_calls", "count", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.put_calls", "count", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.bytes_written", "bytes", "lower"),
    ("runner.grid_s", "s", "lower"),
    ("runner.workers", "count", "higher"),
    ("runner.worker_busy_s", "s", "lower"),
    ("runner.parallel_efficiency", "ratio", "higher"),
    ("runner.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class BenchError(RuntimeError):
    """The benchmark itself could not measure (not a program failure)."""


def _tree(root: Path) -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file of the checkout outside IGNORED_DIRS."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        if Path(dirpath) == root:
            dirnames[:] = [d for d in dirnames if d not in IGNORED_DIRS]
        for name in filenames:
            path = Path(dirpath, name)
            st = path.lstat()
            out[str(path.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    """SHA-256 over the program's sources, for attributing numbers."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_stamp(workers: int) -> dict:
    return {
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_commit": _git_commit(ROOT),
        "src_sha256": _src_digest(ROOT),
    }


class Runner:
    """Starts samples as fresh interpreters before a hard deadline."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = child_env(ROOT, work / "pycache")

    def child(self, spec: dict) -> tuple[float, dict]:
        """Run ``child.py`` on ``spec``; returns (spawn time, its JSON)."""
        argv = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
        t_spawn = time.monotonic()
        out = self._run(argv)
        return t_spawn, json.loads(out.splitlines()[-1])

    def _run(self, argv: list[str]) -> str:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline reached")
        # A session of its own, so a timeout also stops pool workers.
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise BenchError(f"{argv[2:]} exited with {proc.returncode}")
        return out


def measure(args: argparse.Namespace, work: Path, deadline: float) -> tuple:
    runner = Runner(work, deadline)
    runner.child({"mode": "warm"})
    cached, pooled = WORKLOADS[args.workload]
    workers = max(2, len(os.sched_getaffinity(0))) if pooled else 1
    spec = {
        "mode": "run",
        "workload": args.workload,
        "root": str(ROOT),
        "workers": workers,
    }
    seeds = digest.study_seeds(args.seed)

    samples: list[dict] = []
    t_begin = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - t_begin
        if len(samples) >= MIN_SAMPLES and elapsed + longest > args.seconds:
            break
        # Keep room before the deadline for one more sample (two with
        # the traced one); a run that cannot fit its minimum fails.
        room = deadline - time.monotonic() - longest * (1 + args.trace)
        if samples and room < 5.0:
            if len(samples) < MIN_SAMPLES:
                raise BenchError("samples do not fit before the deadline")
            break
        cache_dir = str(work / f"cache-{len(samples)}") if cached else None
        sample_spec = dict(spec, seed=next(seeds), cache_dir=cache_dir)
        t_spawn, out = runner.child(sample_spec)
        longest = max(longest, out["t_done"] - t_spawn)
        out["setup_s"] = out["t_ready"] - t_spawn
        out["wall_s"] = out["t_done"] - t_spawn
        samples.append(out)
        if cached:
            shutil.rmtree(cache_dir, ignore_errors=True)

    traced = None
    if args.trace:
        # Same inputs as the first sample, whose grid time is untraced.
        traced_spec = dict(
            spec,
            seed=samples[0]["seed"],
            cache_dir=str(work / "cache-traced") if cached else None,
            trace=True,
            span_dir=str(work / "spans"),
            untraced_grid_s=samples[0]["grid_s"],
        )
        _, traced = runner.child(traced_spec)
        if "layers" not in traced:
            raise BenchError(f"traced sample failed: {traced['error']}")
    return samples, traced, workers


def summarize(samples: list[dict], traced: dict | None) -> dict:
    """The result line: correctness over every sample, and the metrics."""
    every = samples + ([traced] if traced else [])
    attempted = sum(s["attempted"] for s in every)
    failed = sum(s["failed"] for s in every)
    correct = failed == 0 and all(
        s["error"] is None and s["signs_ok"] for s in every
    )

    def med(key: str) -> float:
        return statistics.median(s[key] for s in samples)

    values = {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        # A sample whose grid raised has no grid time.
        "cells_per_s": statistics.median(
            [s["attempted"] / s["grid_s"] for s in samples if not s["error"]]
            or [0.0]
        ),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("maxrss_kb") / 1024.0,
        "cell_ok_rate": 1.0 - failed / attempted,
    }
    units = END_TO_END
    if traced is not None:
        values = traced["layers"]
        units = PER_LAYER
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _better in units
        },
    }


def render_ledger(workload: str, traced: dict) -> str:
    """The traced grid's rows, which add up to ``runner.grid_s``."""
    layers = traced["layers"]
    grid = layers["runner.grid_s"]
    lines = [
        f"ledger: {workload}, traced grid, "
        f"{layers['runner.workers']} worker(s)"
    ]
    for name, value in traced["ledger"]:
        lines.append(f"  {name:<26} {value:9.4f} s {100 * value / grid:6.1f}%")
    lines.append(f"  {'= runner.grid_s':<26} {grid:9.4f} s")
    lines.append(f"  {'trace.overhead_s':<26} {layers['trace.overhead_s']:9.4f} s")
    return "\n".join(lines)


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    before = _tree(ROOT)
    work = ROOT / WORK_DIR / str(os.getpid())
    work.mkdir(parents=True)
    try:
        samples, traced, workers = measure(args, work, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still uses it
    after = _tree(ROOT)
    changed = sorted(p for p in before.keys() | after.keys()
                     if after.get(p) != before.get(p))
    if changed:
        print(f"the run left files behind: {changed[:10]}", file=sys.stderr)
        return 1
    result = summarize(samples, traced)
    if traced is not None:
        print(render_ledger(args.workload, traced))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        # The pool the program runs, which it clamps to the CPU count.
        "host": host_stamp(min(workers, os.cpu_count() or 1)),
        "cell_error_rate": result["failed"] / result["attempted"],
        "samples": samples,
        "traced": traced,
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
