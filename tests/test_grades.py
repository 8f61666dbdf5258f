from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpdecomp import F2Matrix, GradeBox, GradedMatrix, leq, tied_pairs, topo_order
from mpdecomp.errors import InputError
from mpdecomp.grades import check_grade, fmt

coords = st.integers(min_value=-8, max_value=8)
grades2 = st.builds(lambda a, b: (a, b), coords, coords)


def test_product_order_basics():
    assert leq((0, 1), (1, 1))
    assert leq((1, 1), (1, 1))
    assert not leq((0, 1), (1, 0))
    assert not leq((1, 0), (0, 1))


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        leq((1,), (1, 2))


def test_empty_grade_rejected():
    with pytest.raises(InputError):
        check_grade(())


def test_out_of_range_coordinate_rejected():
    with pytest.raises(InputError, match="outside 64-bit range"):
        check_grade((1 << 63,))
    assert check_grade([-(1 << 63), (1 << 63) - 1]) == (-(1 << 63), (1 << 63) - 1)
    # library callers are refused where the grades enter a matrix or a box
    with pytest.raises(InputError, match="outside 64-bit range"):
        GradedMatrix(F2Matrix(1), [(0, 1 << 63)], [])
    with pytest.raises(InputError, match="outside 64-bit range"):
        GradeBox((0,), (1 << 63,))


def test_iteration_and_indexing():
    g = (2, 3)
    assert list(g) == [2, 3]
    assert g[0] == 2 and len(g) == 2
    assert fmt(g) == "(2,3)"


@given(grades2, grades2, grades2)
def test_leq_is_a_partial_order(a, b, c):
    assert leq(a, a)
    if leq(a, b) and leq(b, a):
        assert a == b
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


def test_topo_order_refines_product_order():
    gs = [(1, 1), (0, 2), (0, 1), (1, 0)]
    order = topo_order(gs)
    pos = {orig: p for p, orig in enumerate(order)}
    for i, a in enumerate(gs):
        for j, b in enumerate(gs):
            if i != j and leq(a, b) and a != b:
                assert pos[i] < pos[j]


def test_topo_order_breaks_ties_by_index():
    gs = [(1, 1), (0, 0), (1, 1)]
    assert topo_order(gs) == [1, 0, 2]


def test_topo_order_rejects_mixed_d():
    assert topo_order([(1, 1), (1, 1)]) == [0, 1]
    with pytest.raises(InputError):
        topo_order([(1, 1), (1, 1, 0)])


@given(st.lists(grades2, max_size=10))
def test_topo_order_is_a_permutation(gs):
    assert sorted(topo_order(gs)) == list(range(len(gs)))


def test_tie_detection():
    gs = [(0, 1), (1, 0), (0, 1)]
    assert tied_pairs(gs) == [(0, 2, (0, 1))]
    assert tied_pairs(gs[:2]) == []
