"""Reference helpers the tests check the library against.

Plain restatements of definitions, kept out of the package because no
part of the program needs them.
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from mpdecomp import BettiTable, F2Matrix, GradeBox, GradedMatrix, KernelElement, col_reduce, leq


def from_dense(rows: Sequence[Sequence[int]]) -> F2Matrix:
    """The matrix with these 0/1 rows."""
    n_cols = len(rows[0]) if rows else 0
    if any(len(r) != n_cols for r in rows):
        raise ValueError("ragged dense matrix")
    return F2Matrix(
        len(rows),
        [sum((r[j] & 1) << i for i, r in enumerate(rows)) for j in range(n_cols)],
    )


def matmul(A: F2Matrix, B: F2Matrix) -> F2Matrix:
    """The product AB over F2: column j of AB sums the columns of A in B's column j."""
    if A.n_cols != B.n_rows:
        raise ValueError(f"shape mismatch: {A.n_rows}x{A.n_cols} times {B.n_rows}x{B.n_cols}")
    out = []
    for b in B.cols:
        acc = 0
        for k, a in enumerate(A.cols):
            if (b >> k) & 1:
                acc ^= a
        out.append(acc)
    return F2Matrix(A.n_rows, out)


def rank(M: F2Matrix) -> int:
    """Rank over F2 by column elimination; counts pivot lows."""
    pivots: dict = {}
    for cur in M.cols:
        while cur:
            lw = cur.bit_length() - 1
            if lw in pivots:
                cur ^= pivots[lw]
            else:
                pivots[lw] = cur
                break
    return len(pivots)


def rewrite_by_elimination(
    cols: GradedMatrix, basis: Sequence[KernelElement]
) -> List[Optional[int]]:
    """Each column of cols over the generators born at or below its grade.

    One fresh elimination per column over the generators whose grade is <=
    the column's: the coefficients as a bitmask over ``basis``, or None for
    a column those generators do not generate.
    """
    out: List[Optional[int]] = []
    for u, c in zip(cols.col_grades, cols.mat.cols):
        sub = [idx for idx, b in enumerate(basis) if leq(b.grade, u)]
        coeffs = col_reduce(F2Matrix(cols.n_rows, [basis[idx].coords for idx in sub]), c)
        out.append(
            None
            if coeffs is None
            else sum(1 << idx for pos, idx in enumerate(sub) if (coeffs >> pos) & 1)
        )
    return out


def merge_tables(tables: Iterable[BettiTable]) -> BettiTable:
    """The entrywise sum of Betti tables."""
    out = BettiTable({})
    for table in tables:
        for (deg, g), cnt in table.entries.items():
            out.add(deg, g, cnt)
    return out


def betti_euler_function(table: BettiTable, box: GradeBox) -> List[int]:
    """Alternating cumulative sum of a Betti table over a box, flat in C order.

    Equals the dimension function whenever the table covers the full
    resolution, which is the case for d == 2 tables from the library.
    """
    box.check_size()
    return [
        sum(
            cnt if deg % 2 == 0 else -cnt
            for (deg, g), cnt in table.entries.items()
            if leq(g, u)
        )
        for u in box.grades()
    ]
