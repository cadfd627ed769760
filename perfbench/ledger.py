"""Outside-in per-layer ledger for the benchmark's traced runs.

:class:`Tracer` wraps timing around calls into each layer's public
functions, at every binding a caller can reach them by (a module that did
``from repro.scheduling.driver import schedule_dag`` holds its own
binding), so no file of the program changes.  It is installed in a fresh
benchmark interpreter before the study runs, and therefore before the
study's process pool forks: pool workers inherit the wrappers, keep their
spans in memory and write them out when they exit.

A span's self time is its duration minus the time covered by the spans
it directly encloses.  Spans made inside ``run_study`` (or inside a pool
worker) belong to the grid; they carry the cell they were made for (DAG
label, algorithm, suite), and their self times, plus an explicit
unattributed row, add up to the grid's wall time.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

__all__ = ["Tracer", "LEDGER_ROWS"]

#: Layer -> public module functions, wrapped at every binding.
FUNCTIONS = {
    "dag": [("repro.dag.generator", "generate_paper_dags")],
    "profiling": [
        ("repro.profiling.calibration", name)
        for name in (
            "build_analytical_suite",
            "build_profile_suite",
            "build_empirical_suite",
        )
    ],
    "scheduling": [("repro.scheduling.driver", "schedule_dag")],
    "runner": [("repro.experiments.runner", "run_study")],
    "cache.hash": [("repro.cache.keys", "canonical_hash")],
    "cache.fingerprint": [
        ("repro.cache.keys", name)
        for name in (
            "dag_fingerprint",
            "schedule_fingerprint",
            "suite_fingerprint",
            "costs_fingerprint",
            "emulator_fingerprint",
        )
    ],
}

#: Layer -> public methods, wrapped on their class.  ``None`` as the
#: method name stands for every ``measure_*`` method of the class.
METHODS = {
    "simgrid": [("repro.simgrid.simulator", "ApplicationSimulator", "run")],
    "testbed.execute": [("repro.testbed.tgrid", "TGridEmulator", "execute")],
    "testbed.measure": [("repro.testbed.tgrid", "TGridEmulator", None)],
    "cache.get": [("repro.cache.store", "CacheStore", "get")],
    "cache.put": [("repro.cache.store", "CacheStore", "put")],
}

#: Self-time rows of the grid ledger; with ``runner.unattributed_s``
#: they add up to ``runner.grid_s``.
LEDGER_ROWS = [
    "scheduling.self_s",
    "simgrid.self_s",
    "testbed.execute_self_s",
    "cache.hash_s",
    "cache.fingerprint_s",
    "cache.get_s",
    "cache.put_s",
]


class _Frame:
    __slots__ = ("child_s", "replayed")

    def __init__(self) -> None:
        self.child_s = 0.0
        self.replayed = False


class Tracer:
    """Span collector for one benchmark process and its pool workers.

    ``span_dir`` is where forked pool workers write their spans when
    they exit; :meth:`worker_spans` reads them back.
    """

    def __init__(self, span_dir: str | Path) -> None:
        self.span_dir = Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        #: Finished spans: [kind, t0, t1, self_s, in_grid, cell, value].
        self.spans: list[list] = []
        self._stack: list[_Frame] = []
        self._grid_depth = 0
        self._cell: tuple[str, str, str] | None = None
        self._suite_names: dict[int, str] = {}
        self._pid = os.getpid()
        self._originals: list[tuple[str, object]] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer function; raise if any binding stays bare."""
        for kind, targets in FUNCTIONS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                self._rebind(original, self._wrap(kind, original))
        for kind, targets in METHODS.items():
            for module_name, cls_name, method in targets:
                cls = getattr(sys.modules[module_name], cls_name)
                names = (
                    [method]
                    if method is not None
                    else [m for m in vars(cls) if m.startswith("measure_")]
                )
                if not names:
                    raise RuntimeError(f"{cls_name} has no measure_* methods")
                for name in names:
                    original = vars(cls)[name]
                    setattr(cls, name, self._wrap(kind, original))
                    self._originals.append((f"{cls_name}.{name}", original))
        self._check_installed()

    def _rebind(self, original, wrapper) -> None:
        found = False
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"no binding of {original.__qualname__} found")
        self._originals.append((original.__qualname__, original))

    def _check_installed(self) -> None:
        """Fail loudly if a loaded module still holds an unwrapped binding."""
        originals = {id(fn): name for name, fn in self._originals}
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in vars(module).items():
                if id(value) in originals:
                    raise RuntimeError(
                        f"{name}.{attr} still binds the unwrapped "
                        f"{originals[id(value)]}"
                    )

    # -- recording -------------------------------------------------------
    def _wrap(self, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                tracer._enter_worker()
            if kind == "scheduling":
                tracer._cell = tracer._cell_of(*args, **kwargs)
            if kind == "runner":
                tracer._grid_depth += 1
            frame = _Frame()
            stack = tracer._stack
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if kind == "runner":
                    tracer._grid_depth -= 1
            duration = t1 - t0
            value = None
            if kind == "cache.get":
                value = int(bool(result[0]))
                if value and stack:
                    # A cache hit inside a suite build replays the
                    # calibration instead of building the suite.
                    stack[-1].replayed = True
            elif kind == "cache.put":
                value = int(result)
            elif kind == "profiling":
                value = 0 if frame.replayed else 1
                tracer._suite_names[id(result.task_model)] = result.name
            if stack:
                stack[-1].child_s += duration
            tracer.spans.append(
                [
                    kind, t0, t1, duration - frame.child_s,
                    tracer._grid_depth > 0, tracer._cell, value,
                ]
            )
            return result

        return wrapper

    def _cell_of(self, graph, costs, algorithm, **_options):
        suite = self._suite_names.get(id(costs.task_model), "?")
        return (graph.name, algorithm, suite)

    def _enter_worker(self) -> None:
        """First span in a forked pool worker: start an empty span list
        inside the grid, and write it out when the worker exits."""
        self._pid = os.getpid()
        self.spans = []
        self._stack = []
        self._grid_depth = 1
        multiprocessing.util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        path = self.span_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans))
        os.replace(tmp, path)

    # -- reading ---------------------------------------------------------
    def worker_spans(self) -> list[list[list]]:
        """Spans written by pool workers that have exited, per worker."""
        return [
            json.loads(path.read_text())
            for path in sorted(self.span_dir.glob("spans-*.json"))
        ]

    def metrics(
        self,
        *,
        import_s: float,
        grid_s: float,
        workers: int,
        expected_calls: dict[str, int],
        untraced_grid_s: float,
    ) -> tuple[dict[str, float], list[tuple[str, float]]]:
        """Per-layer metrics of the traced run, and the grid ledger rows.

        Grid self times are summed over every process that ran grid
        cells and divided by ``workers``, so that in a pooled sweep they
        are each layer's share of the grid's wall time; with the
        unattributed remainder they add up to ``grid_s``.  Raises
        ``RuntimeError`` when a layer's grid call count is not the
        expected one.
        """
        local = self.spans
        grid = [s for s in local if s[4]]
        busy_s = _window(grid)
        for spans in self.worker_spans():
            grid.extend(spans)
            busy_s += _window(spans)

        def of(kind: str, in_grid: bool = True) -> list[list]:
            pool = grid if in_grid else local
            return [s for s in pool if s[0] == kind]

        counts = {kind: len(of(kind)) for kind in expected_calls}
        if counts != expected_calls:
            raise RuntimeError(
                f"grid call counts {counts} differ from the expected "
                f"{expected_calls}: a layer is not wrapped where its "
                "caller binds it"
            )

        def self_s(kind: str) -> float:
            return sum(s[3] for s in of(kind)) / workers

        def total_s(kind: str) -> float:
            return sum(s[2] - s[1] for s in of(kind, in_grid=False))

        def pct_ms(kind: str, q: float) -> float:
            values = sorted(s[3] for s in of(kind))
            if not values:
                return 0.0
            return 1000.0 * values[min(len(values) - 1, int(q * len(values)))]

        gets = of("cache.get")
        hits = sum(s[6] for s in gets)
        m: dict[str, float] = {
            "import.repro_s": import_s,
            "dag.generate_s": total_s("dag"),
            "profiling.calibrate_s": total_s("profiling"),
            "profiling.suites_built": sum(
                s[6] for s in of("profiling", in_grid=False)
            ),
            "testbed.measure_calls": len(of("testbed.measure", in_grid=False)),
            "testbed.measure_s": total_s("testbed.measure"),
        }
        for layer in ("scheduling", "simgrid"):
            m[f"{layer}.calls"] = len(of(layer))
            m[f"{layer}.self_s"] = self_s(layer)
            m[f"{layer}.p50_ms"] = pct_ms(layer, 0.50)
            m[f"{layer}.p95_ms"] = pct_ms(layer, 0.95)
        m["testbed.execute_calls"] = len(of("testbed.execute"))
        m["testbed.execute_self_s"] = self_s("testbed.execute")
        m.update(
            {
                "cache.hash_calls": len(of("cache.hash")),
                "cache.hash_s": self_s("cache.hash"),
                "cache.fingerprint_s": self_s("cache.fingerprint"),
                "cache.get_calls": len(gets),
                "cache.get_s": self_s("cache.get"),
                "cache.hits": hits,
                "cache.misses": len(gets) - hits,
                "cache.hit_ratio": hits / len(gets) if gets else 0.0,
                "cache.put_calls": len(of("cache.put")),
                "cache.put_s": self_s("cache.put"),
                "cache.bytes_written": sum(s[6] for s in of("cache.put")),
            }
        )
        rows = [(name, m[name]) for name in LEDGER_ROWS]
        unattributed = grid_s - sum(value for _name, value in rows)
        rows.append(("runner.unattributed_s", unattributed))
        m.update(
            {
                "runner.grid_s": grid_s,
                "runner.workers": workers,
                "runner.worker_busy_s": busy_s,
                "runner.parallel_efficiency": busy_s / (workers * grid_s),
                "runner.unattributed_s": unattributed,
                "trace.overhead_s": grid_s - untraced_grid_s,
            }
        )
        return m, rows

    def slowest_cells(self, kind: str, k: int = 3) -> list[dict]:
        """The ``k`` grid spans of ``kind`` with the largest self time."""
        spans = [s for s in self.spans if s[4] and s[0] == kind]
        for worker in self.worker_spans():
            spans.extend(s for s in worker if s[0] == kind)
        spans.sort(key=lambda s: s[3], reverse=True)
        return [
            {"cell": "/".join(s[5] or ("?",)), "self_ms": 1000.0 * s[3]}
            for s in spans[:k]
        ]


def _window(spans: list[list]) -> float:
    """Time from a process's first grid span start to its last end."""
    grid = [s for s in spans if s[4]]
    if not grid:
        return 0.0
    return max(s[2] for s in grid) - min(s[1] for s in grid)

