"""Records digest of the study grid, and its reference table.

Every benchmark run digests the 324 records of the full study in grid
order — per cell the simulated and experimental makespans as
``float.hex`` plus the total allocation — and checks them against
``reference.json``.  The reference holds, per seed, a SHA-256 over all
cell lines and a short tag per cell, so a mismatch is counted per cell.
It was computed by the plainest configuration of the program: one
serial process, no cache, the object backends.  The samples of a
benchmark run step through the table's seeds from a start the run's
seed selects (:func:`study_seeds`), so every sample is checked against
a stored reference.

Regenerate (or extend) the table with::

    python3 perfbench/digest.py 0-99 7919

which runs each seed in a fresh interpreter and rewrites
``perfbench/reference.json``; review its diff like code.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterator

__all__ = [
    "GRID_CELLS",
    "REFERENCE_PATH",
    "SEED0_WRONG_SIGNS",
    "cell_lines",
    "count_mismatches",
    "load_reference",
    "study_seeds",
    "summarize",
]

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: 54 DAGs x 2 algorithms x 3 simulators.
GRID_CELLS = 324

#: Hex digits of the per-cell tag.
TAG_HEX = 4

#: Seed-0 wrong-sign comparisons per (simulator, n), as EXPERIMENTS.md
#: reports them for Figs 1, 5 and 7.
SEED0_WRONG_SIGNS = {
    "analytic": {2000: 13, 3000: 7},
    "profile": {2000: 1, 3000: 1},
    "empirical": {2000: 5, 3000: 6},
}


def cell_lines(records) -> list[str]:
    """One canonical line per study record, in grid order."""
    return [
        f"{r.simulator}|{r.dag_label}|{r.algorithm}|"
        f"{r.sim_makespan.hex()}|{r.exp_makespan.hex()}|{r.total_alloc}"
        for r in records
    ]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(lines: list[str]) -> dict:
    """Reference entry of a grid: overall digest plus per-cell tags."""
    return {
        "digest": _sha("\n".join(lines)),
        "tags": "".join(_sha(line)[:TAG_HEX] for line in lines),
    }


def load_reference(path: str | Path, seed: int) -> dict | None:
    """The reference entry of ``seed``, or None when the table lacks it."""
    table = json.loads(Path(path).read_text())
    return table["seeds"].get(str(seed))


#: Table positions between the study seeds of consecutive samples.
#: Coprime to the table's 101 seeds, so runs with consecutive seeds
#: share no study seed in their first 28 samples.
SAMPLE_STEP = 7


def study_seeds(seed: int, path: str | Path = REFERENCE_PATH) -> Iterator[int]:
    """Study seeds of the samples of a benchmark run with ``seed``.

    The first sample studies ``seed`` itself when the reference table
    holds it, else the table's seed at the remainder of ``seed`` modulo
    the table's size; each later sample studies the table's seed
    ``SAMPLE_STEP`` positions on.  A run's median then spans several
    sets of Table I DAGs, not the cost of one.
    """
    seeds = sorted(int(s) for s in json.loads(Path(path).read_text())["seeds"])
    start = seeds.index(seed) if seed in seeds else seed % len(seeds)
    for i in itertools.count():
        yield seeds[(start + i * SAMPLE_STEP) % len(seeds)]


def count_mismatches(lines: list[str], entry: dict) -> int:
    """Cells of ``lines`` that differ from the reference ``entry``.

    Cells missing on either side count as mismatches.  A digest
    mismatch that no per-cell tag shows (a tag collision) counts as one.
    """
    got = summarize(lines)
    tags = entry["tags"]
    expected = len(tags) // TAG_HEX
    mismatched = abs(expected - len(lines))
    for i in range(min(expected, len(lines))):
        j = i * TAG_HEX
        if got["tags"][j : j + TAG_HEX] != tags[j : j + TAG_HEX]:
            mismatched += 1
    if mismatched == 0 and got["digest"] != entry["digest"]:
        mismatched = 1
    return mismatched


def _parse_seeds(args: list[str]) -> list[int]:
    seeds: list[int] = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def reference_entry(seed: int) -> dict:
    """Reference entry of ``seed``: serial, no cache, object backends."""
    from repro.experiments.context import StudyContext

    ctx = StudyContext(seed=seed, engine="object", sched="object")
    return summarize(cell_lines(ctx.full_study().records))


def _reference_entry(seed: int) -> dict:
    """:func:`reference_entry` of ``seed``, in a fresh interpreter."""
    from child import child_env

    root = HERE.parent
    out = subprocess.run(
        [sys.executable, str(HERE / "digest.py"), "--entry", str(seed)],
        env=child_env(root),
        cwd=root, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if argv[:1] == ["--entry"]:
        print(json.dumps(reference_entry(int(argv[1]))))
        return 0
    seeds = _parse_seeds(argv)
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    table = (
        json.loads(REFERENCE_PATH.read_text())
        if REFERENCE_PATH.exists()
        else {"format": 1, "tag_hex": TAG_HEX, "seeds": {}}
    )
    with ThreadPoolExecutor(max_workers=2) as pool:
        for seed, entry in zip(seeds, pool.map(_reference_entry, seeds)):
            table["seeds"][str(seed)] = entry
            print(f"seed {seed}: {entry['digest']}", file=sys.stderr)
    table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda kv: int(kv[0])))
    REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
