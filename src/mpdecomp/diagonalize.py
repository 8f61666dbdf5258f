"""Total diagonalization of a graded matrix under admissible operations.

The outer loop introduces columns one at a time and keeps a set of blocks
(paired row/column index sets) that are already mutually decoupled: on the
columns seen so far, each block's rows are zero outside its own columns.
At column t a block whose rows are zero in column t therefore stays as it
is, and the loop only visits the blocks that own a row column t meets.
For any such block B the question is whether B's rows can be cleared on
the columns up to t outside B, as in the per-column BlockReduce of Dey and
Xin.  The answer is found by linearizing that region into one bit vector
and reducing it against one vector per admissible operation that feeds
it.  Building the region and the vectors costs about one step per set
bit of the columns up to t: admissibility is read from bitmasks, and an
Op is made only for an operation that is applied.  Blocks that fail merge
with column t and nothing is applied to them.

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
from .f2 import F2Matrix, bits, col_reduce
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


def _compact(on_t: int, slot_bit: Dict[int, int]) -> int:
    """A column's bits on T's rows, bit rpos for row rows_t[rpos]."""
    v = 0
    for i in bits(on_t):
        v |= slot_bit[i]
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
    columns outside B; only those at or before t are read.  The region is
    flattened last column first, rows ascending, so each column of T has a
    slot of len(T.rows) bits and the pivot under reduction lies in the
    earliest column.  One source vector is built per admissible operation
    that feeds the region: column additions out of B into a column of T,
    and row additions from outside T's rows into them.  One pass over T's
    columns, walking set bits, builds the region and the trace of every row
    that may feed one of T's rows; the admissibility masks then name the
    columns of B to read and, intersected with the nonzero columns and
    traces, the sources.  Sources are kept as plain tuples.  When the region
    lies in the span of the sources, the operations of the combination
    found are applied to A (row additions act on whole rows, so columns
    after t pick up their side effects) and appended to the certificate as
    Ops, and True is returned.  Otherwise A is left unchanged and False is
    returned.
    """
    rows_t = T.rows
    if not rows_t:
        return True
    cols_t = T.cols[: bisect_right(T.cols, t)]
    n_rt = len(rows_t)
    n_ct = len(cols_t)
    mask = 0  # T's rows
    slot_bit: Dict[int, int] = {}  # row of T -> its bit within a slot
    row_feeders = 0  # the rows outside T that may be added into one of T's
    for rpos, i in enumerate(rows_t):
        mask |= 1 << i
        slot_bit[i] = 1 << rpos
        row_feeders |= ops.row_mask[i]
    row_feeders &= ~mask
    cols = A.mat.cols

    # T's columns: the region, and the traces of the rows that may feed it
    c = 0
    traces: Dict[int, int] = {}  # row -> its trace on the region, row position 0
    trace_mask = 0
    t_mask = 0
    col_feeders = 0  # the columns that may be added into one of T's
    for cpos, j in enumerate(cols_t):
        slot = (n_ct - 1 - cpos) * n_rt
        col = cols[j]
        if col & mask:
            c |= _compact(col & mask, slot_bit) << slot
        rest = col & row_feeders
        if rest:
            trace_mask |= rest
            bit = 1 << slot
            for l in bits(rest):
                traces[l] = traces.get(l, 0) | bit
        t_mask |= 1 << j
        col_feeders |= ops.col_mask[j]
    # B's columns (the others before t) that may feed one of T's, on T's rows
    b_vecs: Dict[int, int] = {}
    b_mask = 0
    for i in bits(col_feeders & ~t_mask & ((1 << t) - 1)):
        if cols[i] & mask:
            b_vecs[i] = _compact(cols[i] & mask, slot_bit)
            b_mask |= 1 << i

    # (is_col, source, target) per vector; an Op only for those applied
    sources: List[Tuple[bool, int, int]] = []
    vecs: List[int] = []
    for cpos, j in enumerate(cols_t):
        feeds = ops.col_mask[j] & b_mask
        if feeds:
            base = (n_ct - 1 - cpos) * n_rt
            for i in bits(feeds):
                sources.append((True, i, j))
                vecs.append(b_vecs[i] << base)
    for kpos, k in enumerate(rows_t):
        feeds = ops.row_mask[k] & trace_mask
        if feeds:
            for l in bits(feeds):
                sources.append((False, l, k))
                vecs.append(traces[l] << kpos)

    combo = col_reduce(F2Matrix(n_rt * n_ct, vecs), c)
    if combo is None:
        return False
    for idx in bits(combo):
        is_col, src, dst = sources[idx]
        if is_col:
            A.mat.add_col(src, dst)
        else:
            A.mat.add_row(src, dst)
        if certificate is not None:
            certificate.append(Op("col" if is_col else "row", src, dst))
    return True


def _complement(cols: Sequence[int], t: int) -> Tuple[int, ...]:
    """The columns up to t that are not in cols (ascending, all below t)."""
    out: List[int] = []
    start = 0
    for j in cols:
        out.extend(range(start, j))
        start = j + 1
    out.extend(range(start, t + 1))
    return tuple(out)


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
    owner = [IndexBlock((i,), ()) for i in range(work.n_rows)]  # row -> its block
    col_only: List[IndexBlock] = []  # blocks without rows
    certificate: List[Op] = []

    for t in range(work.n_cols):
        # earlier columns outside a block are already clear on its rows, so
        # only the blocks whose rows column t meets need work
        met = {owner[i].rows[0]: owner[i] for i in bits(work.mat.cols[t])}
        merged_rows: List[int] = []
        merged_cols: List[int] = [t]
        for B in sorted(met.values(), key=_block_key):
            T = IndexBlock(B.rows, _complement(B.cols, t))
            if not block_reduce(work, ops, T, t, certificate):
                merged_rows.extend(B.rows)
                merged_cols.extend(B.cols)
        merged = IndexBlock(tuple(sorted(merged_rows)), tuple(sorted(merged_cols)))
        if merged.rows:
            for i in merged.rows:
                owner[i] = merged
        else:
            col_only.append(merged)

    blocks = list({B.rows[0]: B for B in owner}.values()) + col_only
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
