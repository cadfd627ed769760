"""Bench history store and rolling-baseline regression checks.

``repro bench`` appends each run's stage timings as one JSON line to
``benchmarks/history/bench_history.jsonl`` (committed, so CI inherits
a machine baseline), and ``repro bench --check`` compares a fresh run
against the *rolling baseline* — the per-stage median of the last few
compatible history entries.  A median over a window absorbs the
one-off outliers single-baseline comparisons trip over, while still
tracking genuine drift; the configurable tolerance plays the same role
as the committed-baseline comparison's threshold (see
``docs/performance.md``).

Entries are compatible when they measured the same work on the same
machine: equal ``num_dags``, engine backend, scheduler backend
(entries written before the scheduler switch existed count as
``object``) and host fingerprint (cpus / OS / machine / Python
major.minor, stamped into payloads since the host metadata landed;
a kernel or Python patch update keeps the fingerprint; entries and payloads
both lacking one compare equal, so pre-metadata histories keep
working).  Cross-host comparisons are exactly the false regressions a
rolling baseline exists to avoid — a laptop's medians say nothing
about a CI container.  Incompatible entries are skipped, not errors —
the history file accumulates across configurations and machines.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from statistics import median

from repro import __version__
from repro.experiments.bench import StageComparison

__all__ = [
    "DEFAULT_WINDOW",
    "append_history",
    "check_against_history",
    "default_history_path",
    "history_entry",
    "host_fingerprint",
    "load_history",
    "rolling_baseline",
]

#: Rolling-baseline width: the median of up to this many of the most
#: recent compatible entries.
DEFAULT_WINDOW = 5


def default_history_path() -> Path:
    """The committed history file (checkout layout)."""
    return (
        Path(__file__).resolve().parents[3]
        / "benchmarks"
        / "history"
        / "bench_history.jsonl"
    )


def history_entry(payload: dict) -> dict:
    """Flatten a bench payload into one append-ready history entry."""
    config = payload.get("config", {})
    return {
        "created": payload.get(
            "created", time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime())
        ),
        "version": payload.get("version", __version__),
        "host": payload.get("host"),
        "num_dags": config.get("num_dags"),
        "engine": config.get("engine"),
        "sched": config.get("sched", "object"),
        "repeat": config.get("repeat"),
        "stages": {
            name: stage["seconds"]
            for name, stage in payload.get("stages", {}).items()
        },
    }


def append_history(payload: dict, path: str | Path | None = None) -> dict:
    """Append one bench payload to the history file; returns the entry."""
    path = Path(path) if path is not None else default_history_path()
    entry = history_entry(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(path: str | Path | None = None) -> list[dict]:
    """All history entries, oldest first; [] when the file is absent."""
    path = Path(path) if path is not None else default_history_path()
    if not path.exists():
        return []
    entries = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"bench history {path} line {lineno} is not valid JSON: "
                f"{exc}"
            ) from None
        if not isinstance(entry, dict) or "stages" not in entry:
            raise ValueError(
                f"bench history {path} line {lineno} is not a history "
                "entry (missing 'stages')"
            )
        entries.append(entry)
    return entries


def host_fingerprint(host: object) -> tuple | None:
    """A host-metadata dict reduced to its stable identity.

    The identity is the cpu count, the OS, the machine architecture
    and the Python major.minor: what decides whether stage times are
    comparable, and nothing that changes with a kernel or patch-level
    update.  Stamps name the OS and machine in ``system`` and
    ``machine``; older stamps only carry ``platform.platform()``
    (``Linux-6.18.5-fc-v20-x86_64-with-glibc2.36``), whose first field
    is the OS and whose field before ``-with-`` is the machine.

    ``None`` for entries/payloads without host metadata (written before
    it existed) — two missing fingerprints compare equal, so old
    histories still form baselines for old payloads, while an entry
    from a *different* machine (or from before the metadata existed,
    against a payload that has it) never does.
    """
    if not isinstance(host, dict):
        return None
    fields = str(host.get("platform")).split("-with-")[0].split("-")
    return (
        host.get("cpus"),
        host.get("system", fields[0]),
        host.get("machine", fields[-1]),
        ".".join(str(host.get("python")).split(".")[:2]),
    )


def _compatible(entry: dict, payload: dict) -> bool:
    config = payload.get("config", {})
    return (
        entry.get("num_dags") == config.get("num_dags")
        and entry.get("engine") == config.get("engine")
        and entry.get("sched", "object") == config.get("sched", "object")
        and host_fingerprint(entry.get("host"))
        == host_fingerprint(payload.get("host"))
    )


def rolling_baseline(
    entries: list[dict], payload: dict, *, window: int = DEFAULT_WINDOW
) -> tuple[dict[str, float], int]:
    """Per-stage median over the newest compatible entries.

    Returns ``(baseline seconds per stage, entries used)``; the
    baseline is empty when no entry matches the payload's
    configuration.  Only stages present in *every* used entry get a
    baseline — a stage added mid-history has no stable median yet.
    """
    recent = [e for e in entries if _compatible(e, payload)][-window:]
    if not recent:
        return {}, 0
    stages = set(recent[0]["stages"])
    for entry in recent[1:]:
        stages &= set(entry["stages"])
    baseline = {
        name: median(entry["stages"][name] for entry in recent)
        for name in sorted(stages)
    }
    return baseline, len(recent)


def check_against_history(
    payload: dict,
    entries: list[dict],
    *,
    tolerance: float = 0.10,
    window: int = DEFAULT_WINDOW,
) -> list[StageComparison] | None:
    """Compare a bench payload against the rolling history baseline.

    Returns one :class:`~repro.experiments.bench.StageComparison` per
    stage with a baseline (reusing the committed-baseline machinery,
    so rendering and regression verdicts are shared), or None when the
    history holds no compatible entries — the caller distinguishes
    "no baseline yet" from "nothing regressed".
    """
    baseline, used = rolling_baseline(entries, payload, window=window)
    if not used:
        return None
    comparisons = []
    for name, stage in payload.get("stages", {}).items():
        base_s = baseline.get(name)
        if base_s is None:
            continue
        comparisons.append(
            StageComparison(
                stage=name,
                baseline_s=base_s,
                current_s=stage["seconds"],
                threshold=tolerance,
            )
        )
    return comparisons
