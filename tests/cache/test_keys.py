"""Canonical cache keys: stability and sensitivity properties.

The cache is only correct if the key hash is *stable* under
representation details (dict insertion order, float formatting) and
*sensitive* to every semantically meaningful change (a DAG edge, an
allocation, a fitted model coefficient).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import (
    CacheKeyError,
    canonical_bytes,
    canonical_hash,
    costs_fingerprint,
    dag_fingerprint,
    emulator_fingerprint,
    layer_keys,
    schedule_fingerprint,
    suite_fingerprint,
)
from repro.dag.graph import Task, TaskGraph
from repro.dag.kernels import MATADD, MATMUL
from repro.models.analytical import AnalyticalTaskModel
from repro.models.profiles import ProfileTaskModel
from repro.platform.personalities import bayreuth_cluster
from repro.profiling.calibration import build_analytical_suite
from repro.scheduling.costs import SchedulingCosts
from repro.scheduling.driver import schedule_dag
from repro.simgrid.simulator import ApplicationSimulator
from repro.testbed.tgrid import TGridEmulator

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)
_plain_data = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def _reorder(obj):
    """Same value, different container insertion order."""
    if isinstance(obj, dict):
        return {k: _reorder(obj[k]) for k in reversed(list(obj))}
    if isinstance(obj, list):
        return [_reorder(v) for v in obj]
    return obj


class TestStability:
    @given(obj=_plain_data)
    @settings(max_examples=100, deadline=None)
    def test_dict_insertion_order_never_matters(self, obj):
        assert canonical_bytes(_reorder(obj)) == canonical_bytes(obj)

    @given(
        x=st.floats(allow_nan=False, allow_infinity=False),
        fmt=st.sampled_from(["{!r}", "{:.17e}", "{:+.20g}"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_float_formatting_never_matters(self, x, fmt):
        # Any textual rendering that parses back to the same IEEE-754
        # value must hash identically.
        reparsed = float(fmt.format(x))
        assert reparsed == x
        assert canonical_hash(reparsed) == canonical_hash(x)

    @given(
        x=st.floats(
            allow_nan=False, allow_infinity=False, max_value=1e300
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_adjacent_floats_differ(self, x):
        neighbour = np.nextafter(x, np.inf)
        assert canonical_hash(float(neighbour)) != canonical_hash(x)

    def test_numpy_scalars_hash_like_python_scalars(self):
        assert canonical_hash(np.float64(1.5)) == canonical_hash(1.5)
        assert canonical_hash(np.int64(7)) == canonical_hash(7)
        assert canonical_hash(np.array([1.0, 2.0])) == canonical_hash(
            np.array([1.0, 2.0])
        )


class TestSensitivity:
    def test_types_never_collide(self):
        hashes = {canonical_hash(v) for v in (1, 1.0, "1", True, b"1", None)}
        assert len(hashes) == 6

    def test_structure_never_collides_by_concatenation(self):
        assert canonical_hash(["ab"]) != canonical_hash(["a", "b"])
        assert canonical_hash([["a"], "b"]) != canonical_hash(["a", ["b"]])
        assert canonical_hash({"a": "b"}) != canonical_hash(["a", "b"])

    @given(obj=_plain_data, other=_plain_data)
    @settings(max_examples=50, deadline=None)
    def test_unequal_values_hash_differently(self, obj, other):
        if obj != other:
            assert canonical_hash(obj) != canonical_hash(other)

    @given(x=_scalars)
    def test_container_items_encode_like_values(self, x):
        # Items take an inlined fast path; it must emit the same bytes.
        assert canonical_bytes([x]).endswith(canonical_bytes(x))
        assert canonical_bytes({"k": x}).endswith(canonical_bytes(x))


def _diamond(extra_edge=False, n=2000):
    g = TaskGraph(name="diamond")
    g.add_task(Task(task_id=0, kernel=MATMUL, n=n))
    g.add_task(Task(task_id=1, kernel=MATADD, n=n))
    g.add_task(Task(task_id=2, kernel=MATMUL, n=n))
    g.add_task(Task(task_id=3, kernel=MATADD, n=n))
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 3)
    g.add_edge(2, 3)
    if extra_edge:
        g.add_edge(0, 3)
    return g


class TestDomainFingerprints:
    def test_dag_fingerprint_changes_with_an_edge(self):
        base = canonical_hash(dag_fingerprint(_diamond()))
        assert canonical_hash(dag_fingerprint(_diamond())) == base
        assert canonical_hash(dag_fingerprint(_diamond(extra_edge=True))) != base

    def test_dag_fingerprint_changes_with_task_size(self):
        assert canonical_hash(dag_fingerprint(_diamond(n=2000))) != canonical_hash(
            dag_fingerprint(_diamond(n=3000))
        )

    def test_dag_fingerprint_ignores_derived_topo_cache(self):
        warm, cold = _diamond(), _diamond()
        warm.topological_order()  # populate the memoised order
        assert canonical_hash(dag_fingerprint(warm)) == canonical_hash(
            dag_fingerprint(cold)
        )

    def test_schedule_fingerprint_changes_with_allocation(self):
        platform = bayreuth_cluster(8)
        graph = _diamond()
        costs = SchedulingCosts(
            graph, platform, AnalyticalTaskModel(platform)
        )
        by_alg = {
            alg: canonical_hash(
                schedule_fingerprint(schedule_dag(graph, costs, alg))
            )
            for alg in ("seq", "maxpar")
        }
        # seq allocates every node to each task in turn; maxpar splits
        # the cluster — different placements, different fingerprints.
        assert by_alg["seq"] != by_alg["maxpar"]

    def test_suite_fingerprint_changes_with_platform(self):
        a = suite_fingerprint(build_analytical_suite(bayreuth_cluster(32)))
        b = suite_fingerprint(build_analytical_suite(bayreuth_cluster(16)))
        assert canonical_hash(a) != canonical_hash(b)

    def test_suite_fingerprint_changes_with_one_table_entry(self):
        table = {("matmul", 2000, 4): 1.25, ("matadd", 2000, 4): 0.5}
        bumped = dict(table)
        bumped[("matmul", 2000, 4)] += 1e-9
        assert canonical_hash(ProfileTaskModel(table)) != canonical_hash(
            ProfileTaskModel(bumped)
        )

    def test_costs_fingerprint_ignores_memo_tables(self):
        platform = bayreuth_cluster(8)
        graph = _diamond()
        costs = SchedulingCosts(
            graph, platform, AnalyticalTaskModel(platform)
        )
        before = canonical_hash(costs_fingerprint(costs))
        schedule_dag(graph, costs, "hcpa")  # populates internal memos
        assert canonical_hash(costs_fingerprint(costs)) == before

    def test_emulator_fingerprint_tracks_seed_and_noise(self):
        platform = bayreuth_cluster(8)
        base = canonical_hash(
            emulator_fingerprint(TGridEmulator(platform, seed=0))
        )
        assert (
            canonical_hash(
                emulator_fingerprint(TGridEmulator(platform, seed=1))
            )
            != base
        )
        assert (
            canonical_hash(
                emulator_fingerprint(
                    TGridEmulator(platform, seed=0, with_noise=False)
                )
            )
            != base
        )


_TABLE = {("matmul", 2000, 4): 1.25, ("matadd", 2000, 4): 0.5}


def _cell_keys(
    *,
    graph=None,
    table=_TABLE,
    seed=0,
    algorithm="hcpa",
) -> dict[str, str]:
    """Hashed layer keys of one cell, every input at its default except
    the one a test changes.  The schedule digest is held fixed: it is
    an input of the keys, not derived from the others here."""
    platform = bayreuth_cluster(8)
    graph = graph or _diamond()
    model = ProfileTaskModel(dict(table))
    emulator = TGridEmulator(platform, seed=seed)
    base = _diamond()
    schedule = schedule_dag(
        base, SchedulingCosts(base, platform, AnalyticalTaskModel(platform)),
        "hcpa",
    )
    keys = layer_keys(
        dag=canonical_hash(dag_fingerprint(graph)),
        algorithm=algorithm,
        costs=canonical_hash(
            costs_fingerprint(SchedulingCosts(graph, platform, model))
        ),
        simulator=canonical_hash(
            ApplicationSimulator(platform, model).model_fingerprint()
        ),
        emulator=canonical_hash(emulator_fingerprint(emulator)),
        schedule=canonical_hash(schedule_fingerprint(schedule)),
    )
    return {layer: canonical_hash(key) for layer, key in keys.items()}


def _changed(**change) -> set[str]:
    base, other = _cell_keys(), _cell_keys(**change)
    assert base.keys() == other.keys() == {"schedule", "simulation", "testbed"}
    return {layer for layer in base if base[layer] != other[layer]}


class TestLayerKeys:
    """Each input reaches exactly the keys that depend on it: fewer
    would be a false hit, more a needless miss."""

    def test_model_coefficient_changes_schedule_and_simulation(self):
        bumped = dict(_TABLE)
        bumped[("matmul", 2000, 4)] += 1e-9
        assert _changed(table=bumped) == {"schedule", "simulation"}

    def test_dag_edge_changes_every_key(self):
        assert _changed(graph=_diamond(extra_edge=True)) == {
            "schedule", "simulation", "testbed"
        }

    def test_emulator_seed_changes_only_the_testbed_key(self):
        assert _changed(seed=1) == {"testbed"}

    def test_algorithm_changes_only_the_schedule_key(self):
        assert _changed(algorithm="mcpa") == {"schedule"}

    def test_only_keys_with_all_inputs_are_built(self):
        dag = canonical_hash(dag_fingerprint(_diamond()))
        assert set(layer_keys(dag=dag, algorithm="hcpa", costs="c")) == {
            "schedule"
        }
        assert set(layer_keys(dag=dag, simulator="s", schedule="x")) == {
            "simulation"
        }
        assert layer_keys(dag=dag, simulator="s", emulator="e") == {}


class TestRefusals:
    def test_unencodable_object_is_refused(self):
        with pytest.raises(CacheKeyError, match="cannot canonically encode"):
            canonical_hash(object())

    def test_rng_is_refused(self):
        with pytest.raises(CacheKeyError):
            canonical_hash({"rng": np.random.default_rng(0)})

    def test_cycles_are_refused(self):
        loop: list = []
        loop.append(loop)
        with pytest.raises(CacheKeyError, match="cyclic"):
            canonical_hash(loop)
