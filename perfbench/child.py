"""One benchmark sample: a fresh interpreter driving the program's public API.

``run.py`` starts this script once per sample, so no memo, LRU or layout
cache of the program carries over from one sample to the next.  Its one
argument is a JSON spec; it prints one JSON line of measurements.

Modes:

``run``
    Set up a workload (import ``repro.cli``, build the platform, the
    emulator, the 54 Table I DAGs and the three calibrated suites), run
    its full 324-cell grid, check the records against the reference and
    report timestamps on the system monotonic clock, which the parent
    shares.  With ``trace`` on, :mod:`ledger` wraps every layer first.
``warm``
    Only import what a sample imports, filling the bytecode cache.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import digest  # noqa: E402

#: name -> (cached, pooled).  A cached workload runs every sample
#: against a fresh empty cache directory; a pooled one runs the grid on
#: the program's process pool, the others serially.
WORKLOADS = {
    "study_cache_write": (True, False),
    "study_parallel": (False, True),
}


def child_env(root: Path, pycache: Path | None = None) -> dict[str, str]:
    """Environment of a sample: the checkout's sources, default backends.

    With ``pycache``, bytecode of every module is cached there, so samples
    after the first import compiled code as an installed program would;
    without it, no bytecode is written.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if pycache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


#: Grid call counts a traced sample must see per layer.
EXPECTED_CALLS = {
    "scheduling": digest.GRID_CELLS,
    "simgrid": 2 * digest.GRID_CELLS,
    "testbed.execute": digest.GRID_CELLS,
}


def _wrong_signs(records) -> dict[str, dict[int, int]]:
    from repro.experiments.comparison import compare_algorithms
    from repro.experiments.runner import StudyResult

    study = StudyResult(records=list(records))
    return {
        sim: {
            n: compare_algorithms(study, simulator=sim, n=n).num_wrong
            for n in (2000, 3000)
        }
        for sim in digest.SEED0_WRONG_SIGNS
    }


def run(spec: dict) -> dict:
    t_start = time.monotonic()
    root = Path(spec["root"])
    cached, pooled = WORKLOADS[spec["workload"]]
    seed = spec["seed"]

    t0 = time.perf_counter()
    import repro
    import repro.cli  # noqa: F401  (the import a user's command pays)

    import_s = time.perf_counter() - t0
    src = (root / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(f"repro imported from {repro.__file__}, not {src}")
    from repro.experiments.context import StudyContext

    tracer = None
    if spec.get("trace"):
        from ledger import Tracer

        tracer = Tracer(spec["span_dir"])
        tracer.install()

    ctx = StudyContext(
        seed=seed,
        workers=spec["workers"] if pooled else 1,
        # None, never "": an empty string roots a cache at the cwd.
        cache_dir=spec["cache_dir"] if cached else None,
    )
    for inputs in ("platform", "emulator", "dags", "analytic_suite",
                   "profile_suite", "empirical_suite"):
        getattr(ctx, inputs)
    t_ready = time.monotonic()

    error = None
    lines: list[str] = []
    grid_s = float("nan")
    try:
        g0 = time.perf_counter()
        study = ctx.full_study()
        grid_s = time.perf_counter() - g0
        lines = digest.cell_lines(study.records)
        signs = _wrong_signs(study.records)
    except Exception as exc:  # a failing program is a measured outcome
        error = f"{type(exc).__name__}: {exc}"
        signs = None

    entry = digest.load_reference(digest.REFERENCE_PATH, seed)
    if entry is None:
        raise RuntimeError(f"reference has no entry for seed {seed}")
    failed = digest.count_mismatches(lines, entry) if error is None else (
        digest.GRID_CELLS
    )
    signs_ok = seed != 0 or signs == digest.SEED0_WRONG_SIGNS
    t_done = time.monotonic()

    out = {
        "seed": seed,
        "t_start": t_start,
        "t_ready": t_ready,
        "t_done": t_done,
        "import_s": import_s,
        "grid_s": grid_s,
        "attempted": digest.GRID_CELLS,
        "failed": failed,
        "signs_ok": signs_ok,
        "wrong_signs": signs and {s: list(v.values()) for s, v in signs.items()},
        "digest": digest.summarize(lines)["digest"],
        "error": error,
    }
    if tracer is not None and error is None:
        workers = min(ctx.workers, os.cpu_count() or 1)
        out["layers"], out["ledger"] = tracer.metrics(
            import_s=import_s,
            grid_s=grid_s,
            workers=workers,
            expected_calls=EXPECTED_CALLS,
            untraced_grid_s=spec["untraced_grid_s"],
        )
        out["slowest"] = {
            kind: tracer.slowest_cells(kind)
            for kind in ("scheduling", "simgrid")
        }
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["cpu_s"] = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    out["maxrss_kb"] = max(me.ru_maxrss, kids.ru_maxrss)
    return out


def warm(spec: dict) -> dict:
    """Import what samples import, so their bytecode gets cached."""
    import repro.cli  # noqa: F401
    import repro.experiments.comparison  # noqa: F401
    import repro.experiments.context  # noqa: F401
    import ledger  # noqa: F401

    return {}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    handler = {"run": run, "warm": warm}[spec["mode"]]
    result = handler(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
