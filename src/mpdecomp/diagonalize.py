"""Total diagonalization of a graded matrix under admissible operations.

The outer loop introduces columns one at a time and keeps a set of blocks
(paired row/column index sets) that are already mutually decoupled: on the
columns seen so far, each block's rows are zero outside its own columns.
At column t a block whose rows are zero in column t therefore stays as it
is.  For any other block B the question is whether B's rows can be
cleared on the columns up to t outside B, as in the per-column BlockReduce
of Dey and Xin.  The answer is found by linearizing that region into one
bit vector and reducing it against one vector per admissible operation
that feeds it.  Blocks that fail merge with column t and nothing is
applied to them.

The operations realized for a block that passes change only its rows.
The region starts clear on the columns before t and ends clear on all of
them, so those columns end up as they were: the already-diagonalized
prefix stays untouched.  Row additions act on whole rows, so columns after
t pick up their side effects.  Those columns are reduced later, when the
loop reaches them.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError, TiedGradesError
from .f2 import F2Matrix, col_reduce
from .graded import AdmissibleOps, GradedMatrix, admissible_ops
from .grades import tied_pairs, topo_order


@dataclass(frozen=True)
class IndexBlock:
    """A paired set of row and column indices, each kept sorted."""

    rows: Tuple[int, ...]
    cols: Tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.rows)) != self.rows or tuple(sorted(self.cols)) != self.cols:
            raise InputError("block index sets must be sorted")


class Op(NamedTuple):
    kind: str  # 'row' or 'col'
    source: int
    target: int


@dataclass
class Diagonalization:
    matrix: GradedMatrix
    blocks: List[IndexBlock]
    certificate: List[Op]
    perturbed: bool


def _block_key(b: IndexBlock):
    return (0, b.rows[0]) if b.rows else (1, b.cols[0])


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


def block_reduce(
    A: GradedMatrix,
    ops: AdmissibleOps,
    T: IndexBlock,
    t: int,
    certificate: Optional[List[Op]] = None,
) -> bool:
    """Try to clear A on T's rows over T's columns up to column t.

    T pairs the rows of one block B, built from columns before t, with
    columns outside B; only those at or before t are read.  One source
    vector is built per admissible operation that feeds that region:
    column additions out of B into a column of T, and row additions from
    outside T's rows into them.  When the region lies in the span of the
    sources, the realized operations are applied to A (row additions act on
    whole rows, so columns after t pick up their side effects), appended to
    the certificate, and True is returned.  Otherwise A is left unchanged
    and False is returned.
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


def tot_diagonalize(A: GradedMatrix, *, perturb_ties: bool = False) -> Diagonalization:
    """Decompose A into the finest block structure admissible ops can reach.

    Rows and columns must already be in topo order.  Exactly equal grades
    are refused unless perturb_ties is set, in which case the earlier index
    is treated as strictly smaller and the result is flagged perturbed.
    The certificate lists every realized operation in application order;
    replaying it on the input reproduces the returned matrix.
    """
    if topo_order(A.row_grades) != list(range(A.n_rows)):
        raise InputError("rows are not in topo order; sort before diagonalizing")
    if topo_order(A.col_grades) != list(range(A.n_cols)):
        raise InputError("columns are not in topo order; sort before diagonalizing")

    row_ties = tied_pairs(A.row_grades)
    col_ties = tied_pairs(A.col_grades)
    perturbed = bool(row_ties or col_ties)
    if perturbed and not perturb_ties:
        kind = "row" if row_ties else "column"
        if row_ties and col_ties:
            kind = "row and column"
        raise TiedGradesError(kind, row_ties + col_ties)

    work = A.copy()
    ops = admissible_ops(work)
    blocks = [IndexBlock((i,), ()) for i in range(work.n_rows)]
    certificate: List[Op] = []

    for t in range(work.n_cols):
        col_t = work.mat.cols[t]
        merged_rows: List[int] = []
        merged_cols: List[int] = [t]
        survivors: List[IndexBlock] = []
        for B in sorted(blocks, key=_block_key):
            # earlier columns outside B are already clear on B's rows, so
            # B only needs work when column t meets its rows
            if not any((col_t >> i) & 1 for i in B.rows):
                survivors.append(B)
                continue
            col_set = set(B.cols)
            T = IndexBlock(B.rows, tuple(j for j in range(t + 1) if j not in col_set))
            if block_reduce(work, ops, T, t, certificate):
                survivors.append(B)
            else:
                merged_rows.extend(B.rows)
                merged_cols.extend(B.cols)
        blocks = survivors + [
            IndexBlock(tuple(sorted(merged_rows)), tuple(sorted(merged_cols)))
        ]

    return Diagonalization(
        matrix=work,
        blocks=sorted(blocks, key=_block_key),
        certificate=certificate,
        perturbed=perturbed,
    )


def replay_certificate(A: GradedMatrix, certificate: Sequence[Op]) -> GradedMatrix:
    """Apply a certificate to a fresh copy of A, grade checks included."""
    out = A.copy()
    for op in certificate:
        if op.kind == "col":
            out.add_col(op.source, op.target)
        elif op.kind == "row":
            out.add_row(op.source, op.target)
        else:
            raise InputError(f"unknown op kind {op.kind!r}")
    return out
