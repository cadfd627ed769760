"""Tests for the TaskGraph structure and its invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.graph import Task, TaskGraph
from repro.dag.kernels import MATADD, MATMUL
from repro.util.errors import InvalidDAGError


def _mk(task_id, kernel=MATMUL, n=1000):
    return Task(task_id=task_id, kernel=kernel, n=n)


class TestTask:
    def test_label_defaults_to_kernel_and_id(self):
        assert _mk(3).label == "matmul#3"

    def test_output_bytes(self):
        assert _mk(5, n=2000).output_bytes == 32_000_000

    def test_invalid_task_rejected(self):
        with pytest.raises(InvalidDAGError):
            Task(task_id=-1, kernel=MATMUL, n=100)
        with pytest.raises(InvalidDAGError):
            Task(task_id=0, kernel=MATMUL, n=0)


class TestConstruction:
    def test_duplicate_id_rejected(self):
        g = TaskGraph()
        g.add_task(_mk(0))
        with pytest.raises(InvalidDAGError):
            g.add_task(_mk(0))

    def test_edge_endpoints_must_exist(self):
        g = TaskGraph()
        g.add_task(_mk(0))
        with pytest.raises(InvalidDAGError):
            g.add_edge(0, 1)
        with pytest.raises(InvalidDAGError):
            g.add_edge(1, 0)

    def test_self_edge_rejected(self):
        g = TaskGraph()
        g.add_task(_mk(0))
        with pytest.raises(InvalidDAGError):
            g.add_edge(0, 0)

    def test_duplicate_edge_rejected(self):
        g = TaskGraph()
        g.add_task(_mk(0))
        g.add_task(_mk(1))
        g.add_edge(0, 1)
        with pytest.raises(InvalidDAGError):
            g.add_edge(0, 1)

    def test_cycle_rejected_and_rolled_back(self):
        g = TaskGraph()
        for i in range(3):
            g.add_task(_mk(i))
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        with pytest.raises(InvalidDAGError):
            g.add_edge(2, 0)
        # The failed edge must not linger.
        assert 0 not in g.successors(2)
        g.validate()  # still a valid DAG


class TestAccessors:
    def test_sources_and_sinks(self, diamond_dag):
        assert diamond_dag.sources() == [0]
        assert diamond_dag.sinks() == [3]

    def test_predecessors_successors(self, diamond_dag):
        assert set(diamond_dag.successors(0)) == {1, 2}
        assert set(diamond_dag.predecessors(3)) == {1, 2}

    def test_len_and_contains(self, diamond_dag):
        assert len(diamond_dag) == 4
        assert 2 in diamond_dag
        assert 9 not in diamond_dag

    def test_unknown_task_raises(self, diamond_dag):
        with pytest.raises(InvalidDAGError):
            diamond_dag.task(99)

    def test_edges_iteration(self, diamond_dag):
        assert set(diamond_dag.edges()) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_num_edges(self, diamond_dag):
        assert diamond_dag.num_edges == 4


class TestTopologicalOrder:
    def test_respects_precedence(self, diamond_dag):
        order = diamond_dag.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for src, dst in diamond_dag.edges():
            assert pos[src] < pos[dst]

    def test_empty_graph(self):
        assert TaskGraph().topological_order() == []

    def test_deterministic(self, diamond_dag):
        assert diamond_dag.topological_order() == diamond_dag.topological_order()


class TestSerialisation:
    def test_roundtrip(self, diamond_dag):
        data = diamond_dag.to_dict()
        clone = TaskGraph.from_dict(data)
        assert clone.name == diamond_dag.name
        assert set(clone.task_ids) == set(diamond_dag.task_ids)
        assert set(clone.edges()) == set(diamond_dag.edges())
        for t in diamond_dag:
            c = clone.task(t.task_id)
            assert c.kernel.name == t.kernel.name
            assert c.n == t.n

    def test_unknown_kernel_rejected(self):
        with pytest.raises(InvalidDAGError):
            TaskGraph.from_dict(
                {"tasks": [{"task_id": 0, "kernel": "fft", "n": 10}], "edges": []}
            )


@st.composite
def random_dags(draw):
    """Random DAGs built by only adding forward edges (always acyclic)."""
    size = draw(st.integers(min_value=1, max_value=12))
    g = TaskGraph(name="hyp")
    for i in range(size):
        kernel = MATMUL if draw(st.booleans()) else MATADD
        g.add_task(Task(task_id=i, kernel=kernel, n=100))
    for dst in range(1, size):
        preds = draw(
            st.sets(st.integers(min_value=0, max_value=dst - 1), max_size=3)
        )
        for src in preds:
            g.add_edge(src, dst)
    return g


class TestPropertyBased:
    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_forward_edge_graphs_always_validate(self, g):
        g.validate()
        order = g.topological_order()
        assert sorted(order) == sorted(g.task_ids)

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_preserves_structure(self, g):
        clone = TaskGraph.from_dict(g.to_dict())
        assert set(clone.edges()) == set(g.edges())
        assert len(clone) == len(g)

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_sources_have_no_predecessors(self, g):
        for s in g.sources():
            assert g.predecessors(s) == []
        for s in g.sinks():
            assert g.successors(s) == []
