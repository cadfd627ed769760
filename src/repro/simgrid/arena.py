"""Array-backed simulation core: arena, resource layout, engine.

This is the array-state twin of :mod:`repro.simgrid.engine`.  Instead
of ``Action`` objects holding ``{Resource: weight}`` dicts, the
simulation state lives in flat storage:

* per-action float64 struct-of-arrays for remaining work, rate and
  latency, indexed by a *slot* assigned in creation order (so slot
  order == the object engine's ``_seq`` order, which fixes completion
  ordering);
* a CSR-style sparse consumption matrix — each action's
  (resource id, weight) entries occupy a contiguous span of flat entry
  stores (``e_rid``/``e_w`` with per-slot start/count);
* flat float64 resource capacities and integer reference counts,
  indexed by a dense *resource id* given by :class:`ResourceLayout`
  (cpu ``h`` -> ``h``, uplink ``h`` -> ``N + h``, downlink ``h`` ->
  ``2N + h``, backbone -> ``3N``).

The step scan and the sharing solve
(:func:`repro.simgrid.sharing._maxmin_flat`) are scalar kernels over
the flat stores: the shipped experiments never hold more than a few
dozen alive actions or a few hundred consumption entries, sizes at
which an interpreter loop beats numpy's fixed per-call cost (see the
kernel size table in ``docs/performance.md``).  Both mirror the object
engine's scalar code exactly (same operations, same order, same
clamps), so traces, makespans and ``engine.*`` observability counters
are bit-identical across backends — asserted by the equivalence suites
in ``tests/simgrid/test_array_engine.py`` and
``tests/experiments/test_engine_backends.py``.

:class:`ActionArena` owns the growable buffers and is reusable: one
arena per simulator amortizes allocation across every run of a study
(see ``ApplicationSimulator.simulate_batch`` and
``run_study(engine="array")``).
"""

from __future__ import annotations

import math
import os
import time
import weakref
from typing import Callable, Optional

import numpy as np

from repro.obs.recorder import get_recorder
from repro.platform.cluster import ClusterPlatform
from repro.simgrid.engine import _EPS, _REL_EPS
from repro.simgrid.sharing import _EPS as _LOAD_EPS
from repro.simgrid.sharing import _maxmin_flat
from repro.util.errors import SimulationError

__all__ = [
    "ENGINE_BACKENDS",
    "ActionArena",
    "ArrayAction",
    "ArraySimulationEngine",
    "ResourceLayout",
    "layout_for",
    "resolve_engine",
]

#: Environment variable consulted when no explicit backend is given.
ENGINE_ENV_VAR = "REPRO_ENGINE"
ENGINE_BACKENDS = ("object", "array")

_NO_ENTRIES: tuple = ()


def resolve_engine(engine: str | None = None) -> str:
    """Resolve an engine backend name.

    Explicit argument wins; otherwise the ``REPRO_ENGINE`` environment
    variable; otherwise ``"object"`` (the oracle backend).
    """
    if engine is None:
        engine = os.environ.get(ENGINE_ENV_VAR) or "object"
    if engine not in ENGINE_BACKENDS:
        raise ValueError(
            f"unknown engine backend {engine!r}; "
            f"choose one of {ENGINE_BACKENDS}"
        )
    return engine


class ResourceLayout:
    """Dense resource-id space of a star-topology platform.

    Mirrors :class:`~repro.simgrid.resources.NetworkTopology` — same
    capacities, same off-node latency — but resources are plain integer
    ids into a flat float64 capacity array instead of objects:
    cpu ``h`` -> ``h``, uplink ``h`` -> ``N + h``, downlink ``h`` ->
    ``2N + h``, backbone -> ``3N``.
    """

    __slots__ = (
        "platform",
        "num_nodes",
        "num_rids",
        "caps",
        "backbone_rid",
        "offnode_latency",
        "redist_net_memo",
        "__weakref__",
    )

    def __init__(self, platform: ClusterPlatform) -> None:
        self.platform = platform
        n = platform.num_nodes
        self.num_nodes = n
        self.num_rids = 3 * n + 1
        caps = np.empty(self.num_rids)
        for i in range(n):
            caps[i] = platform.node_flops(i)
        caps[n : 3 * n] = platform.link_bandwidth
        caps[3 * n] = platform.backbone_bandwidth
        self.caps = caps
        self.backbone_rid = 3 * n
        # Same expression as NetworkTopology.offnode_latency.
        self.offnode_latency = (
            2.0 * platform.link_latency + platform.backbone_latency
        )
        #: Redistribution network-consumption memo, shared by every
        #: simulator on this platform: the byte matrix is a pure
        #: function of (n, p_src, p_dst), so the per-link totals depend
        #: only on (n, src_hosts, dst_hosts).  See
        #: ``simulator._array_backend``.
        self.redist_net_memo: dict = {}


_LAYOUTS: "weakref.WeakValueDictionary[ClusterPlatform, ResourceLayout]" = (
    weakref.WeakValueDictionary()
)


def layout_for(platform: ClusterPlatform) -> ResourceLayout:
    """Shared :class:`ResourceLayout` of a platform (value-keyed memo)."""
    layout = _LAYOUTS.get(platform)
    if layout is None:
        layout = ResourceLayout(platform)
        _LAYOUTS[platform] = layout
    return layout


class ArrayAction:
    """Handle for one slot of an :class:`ArraySimulationEngine`.

    Carries exactly what the completion callbacks and trace records
    read from an object-engine :class:`~repro.simgrid.engine.Action`:
    name, payload, start/finish times and the callback itself.  The
    numeric state (remaining, rate, latency) lives in the arena.
    """

    __slots__ = (
        "name",
        "index",
        "payload",
        "on_complete",
        "start_time",
        "finish_time",
    )

    def __init__(
        self,
        name: str,
        index: int,
        on_complete: Optional[Callable] = None,
        payload: object = None,
    ) -> None:
        self.name = name
        self.index = index
        self.on_complete = on_complete
        self.payload = payload
        self.start_time = math.nan
        self.finish_time = math.nan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayAction({self.name!r}, slot={self.index})"


class ActionArena:
    """Reusable flat storage for array-engine runs.

    The per-slot numeric state (remaining / latency / rate) lives in
    float64 buffers that grow by doubling and are never shrunk, so a
    study reusing one arena pays those allocations once.  Consumption
    entries, capacities (Python floats) and capacity refcounts are flat
    append-only lists rewound per run.
    """

    __slots__ = (
        "remaining",
        "latency",
        "rate",
        "e_start",
        "e_count",
        "e_rid",
        "e_w",
        "cap_refs",
        "caps_list",
        "objs",
    )

    def __init__(self, slots: int = 256) -> None:
        self.remaining = np.zeros(slots)
        self.latency = np.zeros(slots)
        self.rate = np.zeros(slots)
        self.e_start: list[int] = []
        self.e_count: list[int] = []
        self.e_rid: list[int] = []
        self.e_w: list[float] = []
        self.cap_refs: list[int] = []
        self.caps_list: list[float] = []
        self.objs: list[ArrayAction] = []

    def reset(self, caps: np.ndarray) -> None:
        """Prepare for a new run over the given base capacity vector."""
        self.caps_list = caps.tolist()
        self.cap_refs = [0] * caps.shape[0]
        self.e_start.clear()
        self.e_count.clear()
        self.e_rid.clear()
        self.e_w.clear()
        self.objs.clear()

    def grow_slots(self, needed: int) -> None:
        n = self.remaining.shape[0]
        if needed <= n:
            return
        new = max(needed, 2 * n)
        for attr in ("remaining", "latency", "rate"):
            old = getattr(self, attr)
            buf = np.zeros(new)
            buf[:n] = old
            setattr(self, attr, buf)


class ArraySimulationEngine:
    """Array-state drop-in for :class:`~repro.simgrid.engine.SimulationEngine`.

    Same public surface as far as the application simulator is
    concerned — ``now``, ``steps_taken``, ``solver_calls``,
    ``pending_actions``, ``add_timer``, ``step``, ``run`` — with
    actions registered through :meth:`add_entries` (resource ids +
    weights) instead of ``add_action`` (Resource dicts).  Every scalar
    fast path of the object engine (dirty-flag re-solve, standalone
    entrants, shared-release detection) is replicated so the two
    backends take identical solver calls and steps.
    """

    def __init__(
        self, layout: ResourceLayout, arena: ActionArena | None = None
    ) -> None:
        self.now = 0.0
        self.steps_taken = 0
        self.solver_calls = 0
        self._layout = layout
        a = arena if arena is not None else ActionArena()
        a.reset(layout.caps)
        self._arena = a
        self._n = 0  # slots used
        self._nr = layout.num_rids  # resource ids used
        # Alive slots in ascending (= creation) order: slots only grow,
        # so appends keep the order and every scan below inherits the
        # object engine's creation-order iteration.
        self._alive: list[int] = []
        self._rates_dirty = False
        self._obs = get_recorder()
        # Simulated-time timeline, mirroring the object engine's hook.
        self._tl = self._obs.timeline
        # Wall-clock profiler for the kernel probes (None when absent:
        # every probe site costs one attribute load and a branch).
        self._prof = self._obs.profiler

    # ------------------------------------------------------------------
    @property
    def pending_actions(self) -> int:
        return len(self._alive)

    def alloc_private_rids(self, caps_values: list) -> range:
        """Fresh resource ids with the given capacities.

        The contention-free ablation gives every action private copies
        of its resources — the array equivalent of the object path's
        per-action ``NetworkTopology``.
        """
        m = len(caps_values)
        start = self._nr
        a = self._arena
        a.caps_list.extend(caps_values)
        a.cap_refs.extend([0] * m)
        self._nr = start + m
        return range(start, start + m)

    def add_entries(
        self,
        name: str,
        work: float,
        rids,
        ws,
        latency: float = 0.0,
        on_complete: Optional[Callable] = None,
        payload: object = None,
    ) -> ArrayAction:
        """Register an action by its consumption entries.

        ``rids``/``ws`` are parallel sequences of resource ids and
        weights; ids must be distinct within the action and weights
        strictly positive — the builders guarantee both (zero weights
        are filtered out, exactly like the Action constructor).
        """
        if work < 0:
            raise SimulationError(f"action {name!r} has negative work {work}")
        if latency < 0:
            raise SimulationError(
                f"action {name!r} has negative latency {latency}"
            )
        a = self._arena
        slot = self._n
        a.grow_slots(slot + 1)
        a.remaining[slot] = work
        a.latency[slot] = latency
        a.rate[slot] = 0.0
        e_rid = a.e_rid
        a.e_start.append(len(e_rid))
        m = len(rids)
        a.e_count.append(m)
        if m:
            e_rid.extend(rids)
            a.e_w.extend(ws)
            cap_refs = a.cap_refs
            for rid in rids:
                cap_refs[rid] += 1  # rids unique within the action
        self._n = slot + 1
        self._alive.append(slot)
        obj = ArrayAction(name, slot, on_complete, payload)
        obj.start_time = self.now
        a.objs.append(obj)
        if latency <= 0.0 and not (
            self._rates_dirty or self._set_standalone(slot)
        ):
            self._rates_dirty = True
        if self._obs.enabled:
            self._obs.count("engine.actions_started")
        return obj

    def add_timer(
        self,
        delay: float,
        on_complete: Callable,
        name: str = "timer",
        payload: object = None,
    ) -> ArrayAction:
        """Convenience: a resource-free action firing after ``delay``."""
        return self.add_entries(
            name, 0.0, _NO_ENTRIES, _NO_ENTRIES, latency=delay,
            on_complete=on_complete, payload=payload,
        )

    # ------------------------------------------------------------------
    def _set_standalone(self, slot: int) -> bool:
        """Mirror of ``SimulationEngine._set_standalone_rate``."""
        a = self._arena
        m = a.e_count[slot]
        if m == 0:
            a.rate[slot] = math.inf
            return True
        start = a.e_start[slot]
        end = start + m
        e_rid = a.e_rid
        cap_refs = a.cap_refs
        for j in range(start, end):
            if cap_refs[e_rid[j]] != 1:
                return False
        best = math.inf
        e_w = a.e_w
        caps = a.caps_list
        for j in range(start, end):
            w = e_w[j]
            if w <= _LOAD_EPS:
                continue
            share = caps[e_rid[j]] / w
            if share < best:
                best = share
        if best == math.inf:
            return False
        a.rate[slot] = best
        if self._tl is not None:
            self._tl.share(self.now, a.objs[slot].name, best)
        return True

    def _solve(self) -> None:
        """Mirror of ``SimulationEngine._solve`` over the arena state."""
        lat_item = self._arena.latency.item
        working = [s for s in self._alive if lat_item(s) <= 0.0]
        if not working:
            return
        self.solver_calls += 1
        obs = self._obs
        if obs.enabled:
            t0 = time.perf_counter()
            self._solve_rates(working)
            obs.timing("engine.solve", time.perf_counter() - t0)
        else:
            self._solve_rates(working)
        tl = self._tl
        if tl is not None:
            # Share records iterate the working set in slot (creation)
            # order, matching the object engine's creation-order walk;
            # non-finite rates (resource-free actions) are skipped.
            a = self._arena
            objs = a.objs
            rate_item = a.rate.item
            now = self.now
            inf = math.inf
            for s in working:
                r = rate_item(s)
                if r != inf:
                    tl.share(now, objs[s].name, r)

    def _solve_rates(self, working: list) -> None:
        a = self._arena
        e_count = a.e_count
        counts = [e_count[s] for s in working]
        total = sum(counts)
        rate = a.rate
        if total == 0:
            inf = math.inf
            for s in working:
                rate[s] = inf
            return
        e_start = a.e_start
        e_rid = a.e_rid
        e_w = a.e_w
        rids: list[int] = []
        ws: list[float] = []
        for s, c in zip(working, counts):
            if c:
                start = e_start[s]
                rids += e_rid[start : start + c]
                ws += e_w[start : start + c]
        prof = self._prof
        if prof is not None:
            t0 = time.perf_counter()
            rates = _maxmin_flat(counts, rids, ws, a.caps_list)
            prof.probe("maxmin_flat", total, time.perf_counter() - t0)
        else:
            rates = _maxmin_flat(counts, rids, ws, a.caps_list)
        for s, r in zip(working, rates):
            rate[s] = r

    # ------------------------------------------------------------------
    def _scan(self, alive: list) -> tuple[float, list]:
        """Step scan: a transliteration of the object engine's.

        Reads the arena buffers element-wise (``ndarray.item`` returns
        a Python float), so every branch and every arithmetic
        expression is the object engine's, float for float.
        """
        a = self._arena
        lat_a = a.latency
        rem_a = a.remaining
        rate_a = a.rate
        lat_item = lat_a.item
        rem_item = rem_a.item
        rate_item = rate_a.item
        inf = math.inf
        # One element read per slot; the firing pass below reuses these
        # values (nothing mutates the buffers between the two passes).
        rows: list[tuple[float, float, float, float]] = []
        dt = inf
        for s in alive:
            lat = lat_item(s)
            rem = rt = 0.0
            if lat > 0.0:
                t = lat
            else:
                rem = rem_item(s)
                if rem <= 0.0:
                    t = 0.0
                else:
                    rt = rate_item(s)
                    if rt <= 0.0:
                        t = inf
                    elif rt == inf:
                        t = 0.0
                    else:
                        t = rem / rt
            rows.append((t, lat, rem, rt))
            if t < dt:
                dt = t
        if dt == inf:
            names = [a.objs[s].name for s in alive]
            raise SimulationError(
                f"simulation stalled at t={self.now}: actions {names} can "
                "make no progress (zero rate)"
            )
        if dt < 0:
            raise SimulationError(f"negative time step {dt}")
        self.now += dt
        threshold = dt * (1.0 + _REL_EPS) + _EPS * 1e-6
        completed: list[int] = []
        for s, (t, lat, rem, rt) in zip(alive, rows):
            fires = t <= threshold
            if lat > 0.0:
                if fires:
                    lat_a[s] = 0.0
                    if rem_item(s) <= 0.0:
                        completed.append(s)
                    elif not (
                        self._rates_dirty or self._set_standalone(s)
                    ):
                        # Entered the working set sharing resources with
                        # other pending actions: it needs a joint solve.
                        self._rates_dirty = True
                else:
                    lat_a[s] = lat - dt
            elif fires:
                rem_a[s] = 0.0
                completed.append(s)
            else:
                # A non-firing work action has rem > 0, so its rate was
                # read in the first pass.
                if rt != inf:
                    nr = rem - rt * dt
                    rem_a[s] = nr if nr > 0.0 else 0.0
        return dt, completed

    def step(self) -> bool:
        """Advance to the next event; return False when nothing is left."""
        alive = self._alive
        if not alive:
            return False
        if self._rates_dirty:
            self._solve()
            self._rates_dirty = False
        prof = self._prof
        if prof is not None:
            n_alive = len(alive)
            t0 = time.perf_counter()
            dt, completed = self._scan(alive)
            prof.probe("scan_scalar", n_alive, time.perf_counter() - t0)
        else:
            dt, completed = self._scan(alive)
        a = self._arena
        if completed:
            cap_refs = a.cap_refs
            e_rid = a.e_rid
            e_start = a.e_start
            e_count = a.e_count
            for s in completed:
                m = e_count[s]
                if m:
                    # Freed capacity changes the survivors' fair shares —
                    # but only where it is actually shared (mirror of
                    # ``_release_resources``).
                    start = e_start[s]
                    shared = False
                    for j in range(start, start + m):
                        rid = e_rid[j]
                        refs = cap_refs[rid] - 1
                        cap_refs[rid] = refs
                        if refs:
                            shared = True
                    if shared:
                        self._rates_dirty = True
            if len(completed) == len(alive):
                alive.clear()
            else:
                for s in completed:
                    alive.remove(s)
        self.steps_taken += 1
        if self._obs.enabled:
            # Queue depth here is post-removal, pre-callback: the still
            # running actions, before completions enqueue follow-ups.
            self._obs.count("engine.completions", len(completed))
            self._obs.event(
                "engine.step",
                t=self.now,
                dt=dt,
                queue=len(alive),
                completed=len(completed),
            )
        objs = a.objs
        now = self.now
        for s in completed:
            obj = objs[s]
            obj.finish_time = now
            if obj.on_complete is not None:
                obj.on_complete(self, obj)
        return True

    def run(self, *, max_steps: int = 10_000_000) -> float:
        """Run to quiescence; returns the final simulated time."""
        steps = 0
        while self.step():
            steps += 1
            if steps > max_steps:
                raise SimulationError(
                    f"exceeded {max_steps} steps; livelock suspected"
                )
        if self._obs.enabled:
            self._obs.count("engine.steps", steps)
            self._obs.count("engine.solver_calls", self.solver_calls)
        return self.now
