"""Reference helpers the tests check the library against.

Plain restatements of definitions, kept out of the package because no
part of the program needs them.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence

from mpdecomp import (
    AdmissibleOps,
    BettiTable,
    F2Matrix,
    GradeBox,
    GradedMatrix,
    IndexBlock,
    KernelElement,
    Op,
    col_reduce,
    leq,
)


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


def _gather(col: int, rows: Sequence[int]) -> int:
    # bit rpos of the result is bit rows[rpos] of col
    v = 0
    for rpos, i in enumerate(rows):
        if (col >> i) & 1:
            v |= 1 << rpos
    return v


def lin(mat: F2Matrix, rows: Sequence[int], cols: Sequence[int]) -> int:
    """Flatten the (rows x cols) region, last column first, rows ascending.

    Bit k of the result corresponds to position k of that walk, so the
    highest set bit (the pivot under reduction) lies in the earliest
    column of the region.
    """
    v = 0
    for j in cols:
        v = (v << len(rows)) | _gather(mat.cols[j], rows)
    return v


def block_reduce_lin(
    A: GradedMatrix,
    ops: AdmissibleOps,
    T: IndexBlock,
    t: int,
    certificate: Optional[List[Op]] = None,
) -> bool:
    """``diagonalize.block_reduce`` restated row by row and source by source.

    The region is built with ``lin``, B's columns and the row traces by
    testing every row of every column, and one Op is made per candidate
    source, listed by ``col_sources``/``row_sources``.  The sources come in
    the same order as in the library, so ``col_reduce`` picks the same
    combination.
    """
    rows_t = T.rows
    if not rows_t:
        return True
    cols_t = T.cols[: bisect_right(T.cols, t)]
    n_rt = len(rows_t)
    n_ct = len(cols_t)
    c = lin(A.mat, rows_t, cols_t)
    rows_t_set = set(rows_t)
    # B's columns on B's rows, the nonzero ones only
    outside = set(cols_t)
    b_cols = {}
    for i in range(t):
        if i not in outside:
            v = _gather(A.mat.cols[i], rows_t)
            if v:
                b_cols[i] = v

    sources: List[Op] = []
    vecs: List[int] = []
    for cpos, j in enumerate(cols_t):
        base = (n_ct - 1 - cpos) * n_rt
        for i in ops.col_sources(j):
            if i in b_cols:
                sources.append(Op("col", i, j))
                vecs.append(b_cols[i] << base)
    # a row's trace on the region, placed at row position 0
    row_traces: Dict[int, int] = {}
    for kpos, k in enumerate(rows_t):
        for l in ops.row_sources(k):
            if l in rows_t_set:
                continue
            if l not in row_traces:
                trace = 0
                for j in cols_t:
                    trace = (trace << n_rt) | ((A.mat.cols[j] >> l) & 1)
                row_traces[l] = trace
            if row_traces[l]:
                sources.append(Op("row", l, k))
                vecs.append(row_traces[l] << kpos)

    combo = col_reduce(F2Matrix(n_rt * n_ct, vecs), c)
    if combo is None:
        return False
    for idx, op in enumerate(sources):
        if (combo >> idx) & 1:
            if op.kind == "col":
                A.mat.add_col(op.source, op.target)
            else:
                A.mat.add_row(op.source, op.target)
            if certificate is not None:
                certificate.append(op)
    return True
