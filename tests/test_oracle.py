from __future__ import annotations

import random

import pytest

from mpdecomp import (
    F2Matrix,
    GradedMatrix,
    IndexBlock,
    sort_by_grade,
    tot_diagonalize,
)
from mpdecomp.errors import InputError
from mpdecomp.oracle import block_partition, brute_force_finest
from reference import from_dense


def triangle_diagonalized() -> F2Matrix:
    return from_dense([[1, 0, 0], [1, 0, 0], [0, 1, 1]])


def test_block_partition_worked_example():
    assert block_partition(triangle_diagonalized()) == [
        IndexBlock((0, 1), (0,)),
        IndexBlock((2,), (1, 2)),
    ]


def test_block_partition_identity_and_full():
    assert block_partition(from_dense([[1, 0], [0, 1]])) == [
        IndexBlock((0,), (0,)),
        IndexBlock((1,), (1,)),
    ]
    assert block_partition(from_dense([[1, 1], [1, 1]])) == [
        IndexBlock((0, 1), (0, 1))
    ]


def test_block_partition_untouched_lines_are_singletons():
    M = from_dense([[0, 0], [0, 1]])
    assert block_partition(M) == [
        IndexBlock((0,), ()),
        IndexBlock((1,), (1,)),
        IndexBlock((), (0,)),
    ]


def test_brute_force_matches_diagonalizer_on_worked_example():
    M = GradedMatrix(
        from_dense([[1, 1, 0], [1, 0, 1], [0, 1, 1]]),
        [(0, 1), (1, 0), (1, 1)],
        [(1, 1), (1, 2), (2, 1)],
    )
    expected = tot_diagonalize(M).blocks
    assert brute_force_finest(M) == expected


def test_brute_force_no_ops_returns_input_partition():
    M = GradedMatrix(
        from_dense([[1], [1], [1]]),
        [(0, 0, 2), (0, 2, 0), (2, 0, 0)],
        [(2, 2, 2)],
    )
    assert brute_force_finest(M) == [IndexBlock((0, 1, 2), (0,))]


def test_brute_force_handles_ties_at_intermediate_counts():
    # partial transforms reach the same non-maximal block count via
    # different partitions; only the true maximum must be unique
    M = GradedMatrix(
        from_dense([[0, 1, 1, 1], [0, 1, 0, 0]]),
        [(2, 0), (2, 2)],
        [(3, 4), (3, 5), (5, 1), (5, 3)],
    )
    blocks = brute_force_finest(M)
    assert len(blocks) == 4
    assert IndexBlock((), (0,)) in blocks
    assert IndexBlock((), (3,)) in blocks


def test_budget_is_enforced():
    n = 6
    rows = [(i, 0) for i in range(n)]
    cols = [(n, j + 1) for j in range(n)]
    M = GradedMatrix(F2Matrix(n, [0] * n), rows, cols)
    with pytest.raises(InputError):
        brute_force_finest(M, budget=10)


def test_agreement_on_random_instances():
    rng = random.Random(99)
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        pool = rng.sample([(a, b) for a in range(4) for b in range(4)], n + m)
        rows = [tuple(c) for c in pool[:n]]
        cols = [tuple(c) for c in pool[n:]]
        dense = [
            [
                rng.randint(0, 1)
                if all(x <= y for x, y in zip(rows[i], cols[j]))
                else 0
                for j in range(m)
            ]
            for i in range(n)
        ]
        M = sort_by_grade(GradedMatrix(from_dense(dense), rows, cols))
        assert brute_force_finest(M) == tot_diagonalize(M).blocks
