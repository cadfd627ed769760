"""Property tests: the array engine's flat solver kernel agrees bitwise.

The array engine solves max-min sharing with ``_maxmin_flat``, a
scalar kernel over flat CSR inputs.  It must return *bit-identical*
rates to the reference oracle ``solve_rates_reference`` and to the
object engine's ``solve_rates`` on every instance — trace equality
between the engine backends and cache-entry stability both rest on
this.  Equality here is ``==`` on the floats, not approximate.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgrid.sharing import (
    _maxmin_flat,
    solve_rates,
    solve_rates_reference,
)

_WEIGHTS = st.floats(
    min_value=1e-6, max_value=10.0, allow_nan=False, allow_infinity=False
)
# Tiny-but-positive weights at or below the solver's load epsilon
# (1e-12): legal inputs whose load contributions are ignored by the
# bottleneck scan — the degenerate corner where a filter-order mistake
# in a kernel would first show up.
_TINY_WEIGHTS = st.floats(
    min_value=1e-16, max_value=1e-12, allow_nan=False, allow_infinity=False
)


@st.composite
def csr_instances(draw, weights=_WEIGHTS):
    """Random CSR sharing instances plus their dict-form equivalent.

    Rows may be empty (unconstrained actions) and resources may go
    entirely unreferenced (declared capacity, no load) — both
    degenerate cases the kernel must handle.
    """
    num_res = draw(st.integers(min_value=1, max_value=6))
    caps = [
        draw(
            st.floats(
                min_value=0.1, max_value=100.0,
                allow_nan=False, allow_infinity=False,
            )
        )
        for _ in range(num_res)
    ]
    num_actions = draw(st.integers(min_value=1, max_value=8))
    row_counts: list[int] = []
    e_rid: list[int] = []
    e_w: list[float] = []
    for _ in range(num_actions):
        rids = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_res - 1),
                min_size=0,
                max_size=num_res,
                unique=True,
            )
        )
        row_counts.append(len(rids))
        e_rid.extend(rids)
        e_w.extend(draw(weights) for _ in rids)
    return row_counts, e_rid, e_w, caps


def dict_form(row_counts, e_rid, e_w, caps):
    """The same instance as ``solve_rates``-style mappings."""
    consumption: dict[int, dict[int, float]] = {}
    pos = 0
    for i, count in enumerate(row_counts):
        row = {}
        for rid, w in zip(e_rid[pos : pos + count], e_w[pos : pos + count]):
            row[rid] = w
        consumption[i] = row
        pos += count
    capacity = dict(enumerate(caps))
    return consumption, capacity


def assert_all_solvers_agree(row_counts, e_rid, e_w, caps):
    consumption, capacity = dict_form(row_counts, e_rid, e_w, caps)
    try:
        oracle = solve_rates_reference(consumption, capacity)
    except AssertionError:
        # Tiny-weight fleets where no resource carries a real load: the
        # oracle's invariant error — every solver must raise it on the
        # same instance, not return garbage rates.
        for call in (
            lambda: _maxmin_flat(row_counts, e_rid, e_w, caps),
            lambda: solve_rates(consumption, capacity, validate=False),
        ):
            with pytest.raises(
                AssertionError, match="lost its remaining actions"
            ):
                call()
        return
    flat = _maxmin_flat(row_counts, e_rid, e_w, caps)
    scalar = solve_rates(consumption, capacity, validate=False)
    assert len(flat) == len(row_counts)
    for i in range(len(row_counts)):
        expect = oracle[i]
        # Bitwise: exact equality, inf included.
        assert flat[i] == expect, (i, flat[i].hex(), expect.hex())
        assert scalar[i] == expect, (i, scalar[i].hex(), expect.hex())


@given(csr_instances())
@settings(max_examples=200, deadline=None)
def test_all_solvers_bitwise_equal(instance):
    assert_all_solvers_agree(*instance)


@given(csr_instances(weights=st.one_of(_WEIGHTS, _TINY_WEIGHTS)))
@settings(max_examples=200, deadline=None)
def test_all_solvers_bitwise_equal_with_tiny_weights(instance):
    assert_all_solvers_agree(*instance)


def test_empty_instance():
    assert _maxmin_flat([], [], [], []) == []
    assert solve_rates_reference({}, {}) == {}


def test_all_rows_empty_are_unconstrained():
    # No consumption entries at all: every action gets rate inf.
    assert_all_solvers_agree([0, 0, 0], [], [], [2.0])
    assert math.isinf(_maxmin_flat([0, 0, 0], [], [], [2.0])[1])


def test_single_nonempty_row_fast_path():
    # One constrained action among unconstrained ones exercises the
    # kernel's single-row fast path.
    assert_all_solvers_agree([0, 2, 0], [0, 1], [2.0, 0.5], [4.0, 3.0])
    flat = _maxmin_flat([0, 2, 0], [0, 1], [2.0, 0.5], [4.0, 3.0])
    assert flat == [math.inf, 2.0, math.inf]  # min(4/2, 3/0.5)


def test_single_row_all_tiny_weights_raises_like_scalar():
    # Every weight at/below the load epsilon: no resource constrains
    # the action — the scalar solver's invariant error, verbatim.
    args = ([2], [0, 1], [1e-13, 1e-14], [4.0, 3.0])
    with pytest.raises(AssertionError, match="lost its remaining actions"):
        _maxmin_flat(*args)
    with pytest.raises(AssertionError, match="lost its remaining actions"):
        solve_rates_reference({0: {0: 1e-13, 1: 1e-14}}, {0: 4.0, 1: 3.0})
    with pytest.raises(AssertionError, match="lost its remaining actions"):
        solve_rates({0: {0: 1e-13, 1: 1e-14}}, {0: 4.0, 1: 3.0},
                    validate=False)


def test_unreferenced_resources_do_not_disturb_rates():
    # Declared-but-unused capacities (the "empty resource" corner): the
    # kernel indexes capacities by id, so trailing unused ids must be
    # inert.
    row_counts, e_rid, e_w = [1, 1], [0, 0], [1.0, 1.0]
    with_extra = _maxmin_flat(row_counts, e_rid, e_w, [2.0, 99.0, 7.0])
    without = _maxmin_flat(row_counts, e_rid, e_w, [2.0])
    assert with_extra == without == [1.0, 1.0]
    assert_all_solvers_agree(row_counts, e_rid, e_w, [2.0, 99.0, 7.0])


def test_shared_bottleneck_chain_matches_scalar():
    # The deduction + dirty re-sum rounds of test_sharing_equivalence,
    # in CSR form: a and b freeze on r0, c then gets r1's leftovers.
    row_counts = [1, 2, 1]
    e_rid = [0, 0, 1, 1]
    e_w = [1.0, 1.0, 1.0, 1.0]
    caps = [2.0, 10.0]
    assert_all_solvers_agree(row_counts, e_rid, e_w, caps)
    assert _maxmin_flat(row_counts, e_rid, e_w, caps) == [1.0, 1.0, 9.0]


def test_first_touch_tie_break_matches_scalar():
    # Two resources with identical fair shares: the winner is the one
    # the consumption mapping references first, in every solver.
    row_counts = [2, 2]
    e_rid = [1, 0, 1, 0]  # resource 1 is touched first
    e_w = [1.0, 1.0, 1.0, 1.0]
    caps = [4.0, 4.0]
    assert_all_solvers_agree(row_counts, e_rid, e_w, caps)
