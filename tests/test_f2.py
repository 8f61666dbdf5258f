from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpdecomp import F2Matrix, col_reduce
from mpdecomp.errors import InputError
from mpdecomp.f2 import bits, reduce_into
from reference import from_dense, matmul, rank, row_echelon_rank


def dense_strategy(max_n=6, max_m=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            min_size=1,
            max_size=max_m,
        ).map(lambda cols: [[cols[j][i] for j in range(len(cols))] for i in range(n)])
    )


def test_construction_round_trip():
    dense = [[1, 0, 1], [0, 1, 1]]
    M = from_dense(dense)
    assert M.to_dense() == dense
    assert M.n_rows == 2 and M.n_cols == 3
    assert list(M.entries()) == [(0, 0), (1, 1), (0, 2), (1, 2)]


def test_entry_column_row_low():
    M = from_dense([[1, 0], [1, 1], [0, 0]])
    assert (M.cols[0] >> 0) & 1 == 1 and (M.cols[1] >> 2) & 1 == 0
    assert M.cols[0] == 0b011
    assert M.to_dense()[1] == [1, 1]
    assert M.cols[0].bit_length() - 1 == 1  # the lowest 1 of column 0 is in row 1
    assert F2Matrix(3, [0]).cols[0] == 0  # a zero column has no low


def test_construction_names_the_first_column_outside_the_rows():
    for n_rows, cols, j in ((2, [1, 4, 3], 1), (2, [0, 3, -1, 8], 2), (0, [0, 1], 1), (3, [8], 0)):
        with pytest.raises(InputError) as info:
            F2Matrix(n_rows, cols)
        assert str(info.value) == f"column {j} has bits outside {n_rows} rows"
    assert F2Matrix(3, [7, 0]).cols == [7, 0] and F2Matrix(0, []).cols == []


def test_add_col_and_add_row():
    M = from_dense([[1, 0], [0, 1]])
    M.add_col(0, 1)
    assert M.to_dense() == [[1, 1], [0, 1]]
    M.add_row(1, 0)
    assert M.to_dense() == [[1, 0], [0, 1]]


def test_transpose_and_matmul():
    A = from_dense([[1, 1], [0, 1]])
    B = from_dense([[1, 0], [1, 1]])
    # (AB)^T == B^T A^T, transposing through the dense form
    At = from_dense([list(r) for r in zip(*A.to_dense())])
    Bt = from_dense([list(r) for r in zip(*B.to_dense())])
    assert matmul(Bt, At).to_dense() == [list(r) for r in zip(*matmul(A, B).to_dense())]
    # over F2: [[1+1, 1],[1, 1]] = [[0,1],[1,1]]
    assert matmul(A, B).to_dense() == [[0, 1], [1, 1]]
    with pytest.raises(ValueError):
        matmul(A, F2Matrix(3, [0]))


def test_submatrix():
    M = from_dense([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    S = M.submatrix([0, 2], [1, 2])
    assert S.to_dense() == [[0, 1], [1, 0]]


def test_submatrix_matches_dense_picks():
    rng = random.Random(7)
    cases = 0
    for _ in range(300):
        n, m = rng.randint(0, 7), rng.randint(0, 7)
        dense = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        M = F2Matrix(n, [sum(dense[i][j] << i for i in range(n)) for j in range(m)])
        if m and rng.random() < 0.3:
            M.cols[rng.randrange(m)] = 0  # a zero column
            dense = [[(M.cols[j] >> i) & 1 for j in range(m)] for i in range(n)]
        for rows in (list(range(n)), rng.sample(range(n), n), rng.sample(range(n), rng.randint(0, n)), []):
            # columns may repeat; rows may not
            cols = [rng.randrange(m) for _ in range(rng.randint(0, 6))] if m else []
            for picked_cols in (cols, rng.sample(range(m), m), []):
                S = M.submatrix(rows, picked_cols)
                assert (S.n_rows, S.n_cols) == (len(rows), len(picked_cols))
                assert S.cols == [
                    sum(dense[i][j] << ii for ii, i in enumerate(rows)) for j in picked_cols
                ]
                cases += 1
    assert cases == 300 * 4 * 3


def test_submatrix_refuses_repeated_or_missing_rows():
    M = from_dense([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(InputError, match="row 1 picked twice"):
        M.submatrix([1, 0, 1], [0, 1])
    with pytest.raises(InputError):
        M.submatrix([0, 3], [0])
    with pytest.raises(InputError):
        M.submatrix([-1], [0])


def test_identity_and_rank():
    assert rank(F2Matrix(3, [0b001, 0b010, 0b100])) == 3
    assert rank(F2Matrix(2, [0] * 5)) == 0
    assert rank(from_dense([[1, 1], [1, 1]])) == 1


@given(dense_strategy())
def test_rank_matches_independent_echelon(dense):
    M = from_dense(dense)
    assert rank(M) == row_echelon_rank(dense)


def test_rank_against_echelon_many_seeds():
    rng = random.Random(2024)
    for _ in range(500):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        dense = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        M = from_dense(dense)
        assert rank(M) == row_echelon_rank(dense)


def test_col_reduce_worked_example():
    # reduce c = (0,1,1,0) against s1=(1,0,1,0), s2=(0,1,0,1), s3=(0,0,1,1):
    # c dies and the net combination is s2 + s3
    S = from_dense([[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert col_reduce(S, 0b0110) == 0b110


def test_col_reduce_survivor():
    S = from_dense([[1], [0]])
    assert col_reduce(S, 0b10) is None
    assert col_reduce(S, 0) == 0
    with pytest.raises(ValueError):
        col_reduce(S, 0b100)


def test_express_in_span():
    S = from_dense([[1, 0], [1, 1], [0, 1]])
    assert col_reduce(S, 0b011) == 0b01
    assert col_reduce(S, 0b101) == 0b11  # col0 + col1 = (1,0,1)
    assert col_reduce(S, 0b001) is None


@given(dense_strategy(max_n=5, max_m=5), st.integers(0, 31))
def test_col_reduce_combination_reproduces_result(dense, mask):
    # c is a sum of columns of M, so it lies in their span
    M = from_dense(dense)
    c = 0
    for j in range(M.n_cols):
        if (mask >> j) & 1:
            c ^= M.cols[j]
    comb = col_reduce(M, c)
    assert comb is not None and comb >> M.n_cols == 0
    acc = c
    for j in range(M.n_cols):
        if (comb >> j) & 1:
            acc ^= M.cols[j]
    assert acc == 0


@given(dense_strategy(max_n=6, max_m=7), st.integers(0, 3))
def test_reduce_into_carries_the_combination_below_low(dense, pad):
    # column j goes in as (col << low) | (1 << j), one at a time; pad adds
    # bits below low that no column uses
    S = from_dense(dense)
    low = S.n_cols + pad
    pivots: dict = {}
    for j, col in enumerate(S.cols):
        r = reduce_into(pivots, (col << low) | (1 << j), low)
        left, comb = r >> low, r & ((1 << low) - 1)
        acc = left
        for i in bits(comb):
            acc ^= S.cols[i]
        assert acc == 0  # what is left is the sum of the combination's columns
        assert comb >> (j + 1) == 0 and (comb >> j) & 1
        prefix = [row[: j + 1] for row in dense]
        rises = row_echelon_rank(prefix) > row_echelon_rank([row[:j] for row in dense])
        assert (left == 0) == (not rises)
        assert len(pivots) == row_echelon_rank(prefix)
    assert all(p.bit_length() - 1 == lw for lw, p in pivots.items())


@given(dense_strategy(max_n=6, max_m=7), st.integers(0, 63))
def test_col_reduce_none_exactly_when_rank_rises(dense, cbits):
    S = from_dense(dense)
    c = cbits & ((1 << S.n_rows) - 1)
    with_c = [row + [(c >> i) & 1] for i, row in enumerate(dense)]
    rises = row_echelon_rank(with_c) > row_echelon_rank(dense)
    assert (col_reduce(S, c) is None) == rises
