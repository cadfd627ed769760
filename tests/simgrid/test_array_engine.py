"""The array engine must be indistinguishable from the object engine.

Every fleet below runs once on :class:`SimulationEngine` (the oracle)
and once on :class:`ArraySimulationEngine`, and the comparison is exact:
same makespan, same per-action finish times (``==`` on floats, not
approximate), same step and solver-call counts, same observability
counters.  Fleets range from a dozen actions to a few hundred contended
ones, well past the largest queue a shipped experiment reaches.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.obs.recorder import Recorder, recording
from repro.platform.personalities import bayreuth_cluster
from repro.simgrid.arena import (
    ActionArena,
    ArraySimulationEngine,
    ResourceLayout,
    layout_for,
    resolve_engine,
)
from repro.simgrid.engine import Action, SimulationEngine
from repro.simgrid.resources import Resource
from repro.util.errors import SimulationError


@pytest.fixture(scope="module")
def layout():
    return layout_for(bayreuth_cluster(32))


def make_fleet(layout, num_actions, seed, max_entries=3):
    """Deterministic action specs over the layout's resource ids."""
    rng = random.Random(seed)
    fleet = []
    for i in range(num_actions):
        kind = rng.random()
        if kind < 0.1:
            # Pure timer: no work, no consumption, latency only.
            fleet.append((f"a{i}", 0.0, (), (), rng.uniform(0.1, 2.0)))
            continue
        rids = tuple(
            rng.sample(range(layout.num_rids), rng.randint(1, max_entries))
        )
        ws = tuple(rng.uniform(0.5, 2.0) for _ in rids)
        work = rng.uniform(1e6, 1e9)
        latency = rng.uniform(0.0, 1.0) if kind < 0.5 else 0.0
        fleet.append((f"a{i}", work, rids, ws, latency))
    return fleet


def run_object(layout, fleet):
    eng = SimulationEngine()
    resources = [
        Resource(f"r{rid}", float(cap))
        for rid, cap in enumerate(layout.caps)
    ]
    finishes = {}

    def done(_e, action):
        finishes[action.name] = action.finish_time

    for name, work, rids, ws, latency in fleet:
        eng.add_action(
            Action(
                name,
                work=work,
                consumption=dict(zip((resources[r] for r in rids), ws)),
                latency=latency,
                on_complete=done,
            )
        )
    makespan = eng.run()
    return makespan, finishes, eng.steps_taken, eng.solver_calls


def run_array(layout, fleet, arena=None):
    eng = ArraySimulationEngine(layout, arena)
    finishes = {}

    def done(_e, action):
        finishes[action.name] = action.finish_time

    for name, work, rids, ws, latency in fleet:
        eng.add_entries(
            name, work, rids, ws, latency=latency, on_complete=done
        )
    makespan = eng.run()
    return makespan, finishes, eng.steps_taken, eng.solver_calls


def assert_engines_agree(layout, fleet, arena=None):
    expected = run_object(layout, fleet)
    got = run_array(layout, fleet, arena)
    assert got[0] == expected[0], (got[0].hex(), expected[0].hex())
    assert got[1] == expected[1]
    assert got[2:] == expected[2:]  # steps, solver calls
    return got


class TestFleetEquivalence:
    def test_small_fleet_scalar_paths(self, layout):
        # 12 concurrent actions: scalar step scan + flat solver.
        assert_engines_agree(layout, make_fleet(layout, 12, seed=1))

    def test_large_fleet_matches(self, layout):
        # 300 concurrent contended actions: long alive queues and
        # large working sets on the same scalar kernels.
        fleet = make_fleet(layout, 300, seed=2)
        makespan, finishes, steps, solves = assert_engines_agree(
            layout, fleet
        )
        assert len(finishes) == 300
        assert steps > 100 and solves > 10

    def test_chained_callbacks_spawn_identically(self, layout):
        # Completions enqueue follow-up work mid-run on both engines —
        # the dynamic case where creation order and dirty-flag handling
        # would first drift.
        def run(engine_kind):
            finishes = {}
            if engine_kind == "object":
                eng = SimulationEngine()
                cpu = Resource("cpu", float(layout.caps[0]))

                def chain(e, action):
                    finishes[action.name] = action.finish_time
                    depth = action.payload
                    if depth:
                        e.add_action(
                            Action(
                                f"{action.name}.c",
                                work=5e8,
                                consumption={cpu: 1.0},
                                on_complete=chain,
                                payload=depth - 1,
                            )
                        )

                for i in range(3):
                    eng.add_action(
                        Action(
                            f"a{i}",
                            work=1e9,
                            consumption={cpu: 1.0},
                            latency=0.25 * i,
                            on_complete=chain,
                            payload=2,
                        )
                    )
            else:
                eng = ArraySimulationEngine(layout)

                def chain(e, action):
                    finishes[action.name] = action.finish_time
                    depth = action.payload
                    if depth:
                        e.add_entries(
                            f"{action.name}.c",
                            5e8,
                            (0,),
                            (1.0,),
                            on_complete=chain,
                            payload=depth - 1,
                        )

                for i in range(3):
                    eng.add_entries(
                        f"a{i}",
                        1e9,
                        (0,),
                        (1.0,),
                        latency=0.25 * i,
                        on_complete=chain,
                        payload=2,
                    )
            makespan = eng.run()
            return makespan, finishes, eng.steps_taken, eng.solver_calls

        assert run("array") == run("object")

    def test_observability_counters_match(self, layout):
        fleet = make_fleet(layout, 40, seed=4)
        counters = {}
        for kind in ("object", "array"):
            rec = Recorder.to_memory()
            with recording(rec):
                if kind == "object":
                    run_object(layout, fleet)
                else:
                    run_array(layout, fleet)
            counters[kind] = {
                k: v
                for k, v in rec.metrics()["counters"].items()
                if k.startswith("engine.")
            }
        assert counters["array"] == counters["object"]
        assert counters["array"]["engine.actions_started"] == 40


class TestArenaReuse:
    def test_reused_arena_is_invisible(self, layout):
        # A second run through the same arena (the study runner's
        # steady state) must match both a fresh-arena run and the
        # object engine.
        arena = ActionArena(slots=4)  # force growth along the way
        fleet_a = make_fleet(layout, 20, seed=5)
        fleet_b = make_fleet(layout, 150, seed=6)
        first = run_array(layout, fleet_a, arena)
        assert first == run_object(layout, fleet_a)
        second = run_array(layout, fleet_b, arena)
        assert second == run_array(layout, fleet_b)  # fresh arena
        assert second == run_object(layout, fleet_b)

    def test_private_rids_remove_contention(self, layout):
        # The contention-free ablation: two identical actions on
        # private capacity copies both run at full standalone speed.
        eng = ArraySimulationEngine(layout)
        cap = float(layout.caps[0])
        for name in ("a", "b"):
            rids = eng.alloc_private_rids([cap])
            eng.add_entries(name, 1e9, rids, (1.0,))
        assert eng.run() == 1e9 / cap
        # The same fleet on the shared id halves the rate.
        shared = ArraySimulationEngine(layout)
        for name in ("a", "b"):
            shared.add_entries(name, 1e9, (0,), (1.0,))
        assert shared.run() == 2.0 * (1e9 / cap)


class TestEngineSurface:
    def test_validation_errors_match_object_engine(self, layout):
        eng = ArraySimulationEngine(layout)
        with pytest.raises(SimulationError) as array_err:
            eng.add_entries("bad", -1.0, (), ())
        with pytest.raises(SimulationError) as object_err:
            Action("bad", work=-1.0)
        assert str(array_err.value) == str(object_err.value)
        with pytest.raises(SimulationError) as array_err:
            eng.add_entries("bad", 1.0, (), (), latency=-0.5)
        with pytest.raises(SimulationError) as object_err:
            Action("bad", work=1.0, latency=-0.5)
        assert str(array_err.value) == str(object_err.value)

    def test_timers_fire_in_order(self, layout):
        eng = ArraySimulationEngine(layout)
        fired = []
        eng.add_timer(3.0, lambda e, a: fired.append(("late", e.now)))
        eng.add_timer(1.0, lambda e, a: fired.append(("early", e.now)))
        assert eng.run() == 3.0
        assert fired == [("early", 1.0), ("late", 3.0)]

    def test_tiny_weight_degenerate_raises_like_object_engine(self, layout):
        # An all-tiny-weight action has no constraining resource: both
        # engines surface the solver's invariant error, not a silent
        # hang or a garbage rate.
        eng = ArraySimulationEngine(layout)
        eng.add_entries("stuck", 1.0, (0,), (1e-30,))
        with pytest.raises(AssertionError, match="lost its remaining"):
            eng.run()
        obj = SimulationEngine()
        obj.add_action(
            Action("stuck", work=1.0, consumption={Resource("r", 1.0): 1e-30})
        )
        with pytest.raises(AssertionError, match="lost its remaining"):
            obj.run()

    def test_pending_actions_tracks_alive_slots(self, layout):
        eng = ArraySimulationEngine(layout)
        assert eng.pending_actions == 0
        eng.add_entries("a", 1e9, (0,), (1.0,))
        eng.add_timer(1.0, lambda e, a: None)
        assert eng.pending_actions == 2
        eng.run()
        assert eng.pending_actions == 0


class TestResolveEngine:
    def test_default_is_object(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == "object"
        assert resolve_engine(None) == "object"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "array")
        assert resolve_engine() == "array"
        monkeypatch.setenv("REPRO_ENGINE", "")
        assert resolve_engine() == "object"

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "array")
        assert resolve_engine("object") == "object"

    def test_unknown_backend_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown engine backend"):
            resolve_engine("simd")
        monkeypatch.setenv("REPRO_ENGINE", "warp")
        with pytest.raises(ValueError, match="unknown engine backend"):
            resolve_engine()


class TestResourceLayout:
    def test_star_topology_id_scheme(self):
        platform = bayreuth_cluster(4)
        layout = ResourceLayout(platform)
        n = 4
        assert layout.num_rids == 3 * n + 1
        assert layout.backbone_rid == 3 * n
        for h in range(n):
            assert layout.caps[h] == platform.node_flops(h)
            assert layout.caps[n + h] == platform.link_bandwidth
            assert layout.caps[2 * n + h] == platform.link_bandwidth
        assert layout.caps[3 * n] == platform.backbone_bandwidth
        assert layout.offnode_latency == (
            2.0 * platform.link_latency + platform.backbone_latency
        )

    def test_layout_for_memoizes_by_platform_value(self):
        a = layout_for(bayreuth_cluster(8))
        b = layout_for(bayreuth_cluster(8))
        assert a is b
        assert layout_for(bayreuth_cluster(4)) is not a


def test_makespan_is_bitwise_equal_not_just_close(layout):
    # Spot-check the strongest form of the contract on one contended
    # fleet: the final times agree to the last bit.
    fleet = make_fleet(layout, 60, seed=7)
    obj_makespan = run_object(layout, fleet)[0]
    arr_makespan = run_array(layout, fleet)[0]
    assert math.isfinite(arr_makespan)
    assert arr_makespan.hex() == obj_makespan.hex()
