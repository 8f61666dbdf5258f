from __future__ import annotations

import random

import pytest

from mpdecomp import (
    F2Matrix,
    GradedMatrix,
    admissible_ops,
    leq,
    sort_by_grade,
    topo_order,
)
from mpdecomp.errors import InputError
from mpdecomp.oracle import op_pairs
from reference import from_dense


def triangle_matrix() -> GradedMatrix:
    return GradedMatrix(
        from_dense([[1, 1, 0], [1, 0, 1], [0, 1, 1]]),
        [(0, 1), (1, 0), (1, 1)],
        [(1, 1), (1, 2), (2, 1)],
        ["b", "r", "g"],
        ["br", "bg", "rg"],
    )


def random_graded(
    rng: random.Random, n_max=5, m_max=5, coord_max=4, d=2
) -> GradedMatrix:
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    rows = [tuple(rng.randint(0, coord_max) for _ in range(d)) for _ in range(n)]
    cols = [tuple(rng.randint(0, coord_max) for _ in range(d)) for _ in range(m)]
    dense = [
        [rng.randint(0, 1) if leq(rows[i], cols[j]) else 0 for j in range(m)]
        for i in range(n)
    ]
    return GradedMatrix(from_dense(dense), rows, cols)


def test_homogeneity_enforced_on_construction():
    with pytest.raises(InputError):
        GradedMatrix(
            from_dense([[1]]), [(1, 0)], [(0, 1)]
        )
    # entries (0,0), (0,1) and (1,1) are fine; only the later (2,1) is not
    with pytest.raises(InputError) as err:
        GradedMatrix(
            from_dense([[1, 1], [0, 1], [0, 1]]),
            [(0, 0), (1, 1), (0, 3)],
            [(1, 1), (2, 2)],
        )
    assert str(err.value) == (
        "entry (2,1) is 1 but row grade (0,3) is not <= column grade (2,2)"
    )


def test_label_defaults_and_count_checks():
    M = GradedMatrix(F2Matrix(2, [0]), [(0, 0)] * 2, [(1, 1)])
    assert M.row_labels == ["r0", "r1"]
    assert M.col_labels == ["c0"]
    with pytest.raises(InputError):
        GradedMatrix(F2Matrix(2, [0]), [(0, 0)], [(1, 1)])
    with pytest.raises(InputError):
        GradedMatrix(F2Matrix(1, [0]), [(0, 0)], [(1, 1, 1)])
    # without grades the parameter count has to be given
    with pytest.raises(InputError, match="parameter count"):
        GradedMatrix(F2Matrix(0), [], [])
    assert GradedMatrix(F2Matrix(0), [], [], d=3).d == 3


def test_graded_additions_check_grades():
    M = triangle_matrix()
    M.add_col(0, 1)  # (1,1) <= (1,2)
    assert M.mat.cols[1] == 0b110
    with pytest.raises(InputError):
        M.add_col(1, 2)  # (1,2) vs (2,1) incomparable
    M.add_row(2, 0)  # row grade (0,1) <= (1,1), target keeps the smaller grade
    with pytest.raises(InputError):
        M.add_row(0, 2)  # would move mass onto a larger-grade row


def test_add_preserves_homogeneity():
    rng = random.Random(11)
    for _ in range(200):
        M = random_graded(rng)
        colop, rowop = op_pairs(admissible_ops(M))
        for _ in range(4):
            if colop and rng.random() < 0.5:
                i, j = rng.choice(sorted(colop))
                M.add_col(i, j)
            if rowop:
                l, k = rng.choice(sorted(rowop))
                M.add_row(l, k)
        M.validate_homogeneity()


def test_admissible_ops_worked_example():
    ops = admissible_ops(triangle_matrix())
    colop, rowop = op_pairs(ops)
    assert colop == frozenset({(0, 1), (0, 2)})
    assert rowop == frozenset({(2, 0), (2, 1)})
    assert ops.col_sources(1) == (0,)
    assert ops.row_sources(0) == (2,)


def test_admissible_ops_break_exact_ties_by_index():
    M = GradedMatrix(
        F2Matrix(2, [0, 0]),
        [(0, 0), (0, 0)],
        [(1, 1), (1, 1)],
    )
    colop, rowop = op_pairs(admissible_ops(M))
    # equal grades: earlier index counts as strictly smaller
    assert colop == frozenset({(0, 1)})
    assert rowop == frozenset({(1, 0)})


def test_sort_by_grade_is_stable_topological():
    M = GradedMatrix(
        from_dense([[0, 1], [0, 1]]),
        [(1, 0), (0, 1)],
        [(2, 0), (1, 1)],
        ["a", "b"],
        ["x", "y"],
    )
    S = sort_by_grade(M)
    row_perm, col_perm = topo_order(M.row_grades), topo_order(M.col_grades)
    assert row_perm == [1, 0] and col_perm == [1, 0]
    assert S.row_grades == [(0, 1), (1, 0)]
    assert S.row_labels == ["b", "a"]
    assert S.col_labels == ["y", "x"]
    assert S.mat.to_dense() == [[1, 0], [1, 0]]
    # original entry (a, x): a is now row 1, x is now col 1
    assert (S.mat.cols[1] >> 1) & 1 == M.mat.cols[0] & 1


def test_sort_by_grade_round_trips_entries():
    rng = random.Random(5)
    for _ in range(100):
        M = random_graded(rng)
        S = sort_by_grade(M)
        row_perm, col_perm = topo_order(M.row_grades), topo_order(M.col_grades)
        for i in range(S.n_rows):
            for j in range(S.n_cols):
                assert (S.mat.cols[j] >> i) & 1 == (M.mat.cols[col_perm[j]] >> row_perm[i]) & 1
        S.validate_homogeneity()


def _strictly_below(a, ia, b, ib) -> bool:
    # product order, equal grades broken by index: earlier acts as smaller
    if a == b:
        return ia < ib
    return leq(a, b)


def test_admissible_ops_match_pairwise_definition_with_ties():
    # small coordinate ranges, so exact ties between rows and between
    # columns are common; the indexed lists must equal the pairwise rule.
    # The masks are built from one threshold per axis after the first, so
    # every parameter count from one to four is drawn, sorted or not
    rng = random.Random(41)
    for d, coord_max in ((1, 3), (2, 2), (3, 1), (4, 1)):
        col_ties = row_ties = unsorted = 0
        for _ in range(300):
            M = random_graded(rng, n_max=7, m_max=7, coord_max=coord_max, d=d)
            if rng.random() < 0.5:
                M = sort_by_grade(M)
            col_ties += len(set(M.col_grades)) < M.n_cols
            row_ties += len(set(M.row_grades)) < M.n_rows
            unsorted += topo_order(M.col_grades) != list(range(M.n_cols))
            ops = admissible_ops(M)
            for j in range(M.n_cols):
                assert ops.col_sources(j) == tuple(
                    i
                    for i in range(M.n_cols)
                    if i != j and _strictly_below(M.col_grades[i], i, M.col_grades[j], j)
                )
                # bit i of column j's mask is set iff column i may be added into j
                assert ops.col_mask[j] >> M.n_cols == 0
                for i in range(M.n_cols):
                    assert bool((ops.col_mask[j] >> i) & 1) == (
                        i != j and _strictly_below(M.col_grades[i], i, M.col_grades[j], j)
                    )
            for k in range(M.n_rows):
                assert ops.row_sources(k) == tuple(
                    l
                    for l in range(M.n_rows)
                    if l != k and _strictly_below(M.row_grades[k], k, M.row_grades[l], l)
                )
                # bit l of row k's mask is set iff row l may be added into k
                assert ops.row_mask[k] >> M.n_rows == 0
                for l in range(M.n_rows):
                    assert bool((ops.row_mask[k] >> l) & 1) == (
                        l != k and _strictly_below(M.row_grades[k], k, M.row_grades[l], l)
                    )
        assert min(col_ties, row_ties, unsorted) > 50, (d, col_ties, row_ties, unsorted)
