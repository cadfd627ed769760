"""Task graph representation for mixed-parallel applications.

A :class:`TaskGraph` is a DAG whose nodes are moldable
:class:`Task` objects and whose edges represent data dependencies: the
producer's output matrix is an input of the consumer and must be
redistributed if the two tasks run on different processor sets.

The structure is deliberately small and explicit: adjacency dicts plus
invariant checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.dag.kernels import KERNELS, Kernel, matrix_bytes
from repro.util.errors import InvalidDAGError

__all__ = ["Task", "TaskGraph"]


@dataclass(frozen=True)
class Task:
    """A moldable data-parallel task.

    Attributes
    ----------
    task_id:
        Unique non-negative integer id within its graph.
    kernel:
        The computational kernel (matmul / matadd).
    n:
        Matrix dimension; the task consumes ``kernel.arity`` n x n input
        matrices and produces one n x n output matrix.
    name:
        Optional human-readable label.
    """

    task_id: int
    kernel: Kernel
    n: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise InvalidDAGError(f"task_id must be non-negative, got {self.task_id}")
        if self.n <= 0:
            raise InvalidDAGError(f"matrix dimension must be positive, got {self.n}")

    @property
    def label(self) -> str:
        return self.name or f"{self.kernel.name}#{self.task_id}"

    @property
    def output_bytes(self) -> int:
        """Size of the produced matrix in bytes."""
        return matrix_bytes(self.n)

    def flops_per_proc(self, p: int) -> float:
        """Flops per processor when executed on ``p`` processors."""
        return self.kernel.flops_per_proc(self.n, p)

    def total_flops(self) -> float:
        return self.kernel.total_flops(self.n)


class TaskGraph:
    """A directed acyclic graph of :class:`Task` objects.

    Invariants (checked by :meth:`validate`, which is called by all
    library entry points that consume a graph):

    * node ids are unique;
    * every edge endpoint is a known task;
    * the graph is acyclic;
    * no self-edges or duplicate edges.
    """

    def __init__(self, name: str = "dag") -> None:
        self.name = name
        self._tasks: dict[int, Task] = {}
        self._succ: dict[int, list[int]] = {}
        self._pred: dict[int, list[int]] = {}
        # Memoised Kahn order; invalidated by any structural mutation.
        # The analysis helpers re-sort on every call, which the
        # CPA-family allocation loops turn into thousands of sorts of an
        # unchanged graph.
        self._topo_cache: tuple[int, ...] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        """Insert a task; raises if the id is already used."""
        if task.task_id in self._tasks:
            raise InvalidDAGError(f"duplicate task id {task.task_id}")
        self._tasks[task.task_id] = task
        self._succ[task.task_id] = []
        self._pred[task.task_id] = []
        self._topo_cache = None
        return task

    def add_edge(self, src: int, dst: int) -> None:
        """Insert a dependency edge ``src -> dst``."""
        if src not in self._tasks:
            raise InvalidDAGError(f"unknown source task {src}")
        if dst not in self._tasks:
            raise InvalidDAGError(f"unknown destination task {dst}")
        if src == dst:
            raise InvalidDAGError(f"self-dependency on task {src}")
        if dst in self._succ[src]:
            raise InvalidDAGError(f"duplicate edge {src} -> {dst}")
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        self._topo_cache = None
        if self._reaches(dst, src):
            # Roll back to keep the graph usable after the failure.
            self._succ[src].remove(dst)
            self._pred[dst].remove(src)
            raise InvalidDAGError(f"edge {src} -> {dst} would create a cycle")

    def _reaches(self, start: int, goal: int) -> bool:
        stack = [start]
        seen = set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._succ[node])
        return False

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    @property
    def task_ids(self) -> list[int]:
        return list(self._tasks)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def task(self, task_id: int) -> Task:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise InvalidDAGError(f"unknown task {task_id}") from None

    def successors(self, task_id: int) -> list[int]:
        self.task(task_id)
        return list(self._succ[task_id])

    def predecessors(self, task_id: int) -> list[int]:
        self.task(task_id)
        return list(self._pred[task_id])

    def edges(self) -> Iterator[tuple[int, int]]:
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield (src, dst)

    def sources(self) -> list[int]:
        """Tasks with no predecessors (entry tasks)."""
        return [t for t in self._tasks if not self._pred[t]]

    def sinks(self) -> list[int]:
        """Tasks with no successors (exit tasks)."""
        return [t for t in self._tasks if not self._succ[t]]

    def topological_order(self) -> list[int]:
        """Kahn topological order; raises :class:`InvalidDAGError` on cycles."""
        if self._topo_cache is not None:
            return list(self._topo_cache)
        indeg = {t: len(self._pred[t]) for t in self._tasks}
        ready = sorted(t for t, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in self._succ[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._tasks):
            raise InvalidDAGError(f"graph '{self.name}' contains a cycle")
        self._topo_cache = tuple(order)
        return order

    def validate(self) -> None:
        """Check all structural invariants; raises on violation."""
        for task_id, succs in self._succ.items():
            if len(set(succs)) != len(succs):
                raise InvalidDAGError(f"duplicate edges out of task {task_id}")
            for dst in succs:
                if dst not in self._tasks:
                    raise InvalidDAGError(f"dangling edge {task_id} -> {dst}")
                if task_id not in self._pred[dst]:
                    raise InvalidDAGError(
                        f"edge {task_id} -> {dst} missing reverse index"
                    )
        self.topological_order()  # raises on cycles

    # ------------------------------------------------------------------
    # conversion / serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form, suitable for JSON round-trips."""
        return {
            "name": self.name,
            "tasks": [
                {
                    "task_id": t.task_id,
                    "kernel": t.kernel.name,
                    "n": t.n,
                    "name": t.name,
                }
                for t in self
            ],
            "edges": list(self.edges()),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TaskGraph":
        """Inverse of :meth:`to_dict`."""
        graph = cls(name=data.get("name", "dag"))
        for spec in data["tasks"]:
            kernel = KERNELS.get(spec["kernel"])
            if kernel is None:
                raise InvalidDAGError(f"unknown kernel {spec['kernel']!r}")
            graph.add_task(
                Task(
                    task_id=int(spec["task_id"]),
                    kernel=kernel,
                    n=int(spec["n"]),
                    name=spec.get("name", ""),
                )
            )
        for src, dst in data["edges"]:
            graph.add_edge(int(src), int(dst))
        graph.validate()
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph(name={self.name!r}, tasks={len(self)}, "
            f"edges={self.num_edges})"
        )
