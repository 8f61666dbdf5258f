"""Total diagonalization of a graded matrix under admissible operations.

The outer loop introduces columns one at a time and keeps a set of blocks
(sorted rows, their mask and a column mask) that are mutually decoupled:
on the columns seen so far, each block's rows are zero outside its columns.
At column t a block whose rows are zero in column t therefore stays as it
is, and the loop only visits the blocks that own a row column t meets.
For any such block B the question is whether B's rows can be cleared on
the columns up to t outside B, as in the per-column BlockReduce of Dey and
Xin.  The answer is found by linearizing a region into one bit vector and
reducing it against one vector per admissible operation that feeds it.
The region is B's rows over the columns of the other met blocks and
column t, not over every column outside B.  That is exact: the row of a
block C that column t does not meet is zero in column t and outside C's
columns, so the row additions from C and the column additions into C's
columns only have bits on C's columns, where the target is zero.  They
form a subsystem of their own, which no solution needs.  Dropping those
columns keeps the other slots in their order, so every highest-bit
comparison of the reduction is the same and it finds the same
combination.  Building the region and the vectors costs about one step
per set bit of the region's columns and of B's: admissibility is read
from bitmasks, and an Op is made only for an operation that is applied.
Blocks that fail merge with column t, by OR of their masks, and nothing
is applied to them; only then are the merged block's rows sorted again.

Before any of that, ``tot_diagonalize`` checks each entry of B's rows in
column t for a source vector with a bit there (``_unreachable``): a row
outside B that may be added into its row and meets column t, or a column
of B that may be added into column t and meets its row.  A combination of
the sources can only reach bits that some source has, so an entry with
neither makes the system unsolvable, and B merges with column t before
its region, its sources or ``block_reduce`` exist.  On random H0 and H1
presentations this decides most of the blocks that fail (72-98% of them),
and it leaves every answer, operation and certificate as it was.

The operations realized for a block that passes change only its rows.
The region starts clear on the columns before t and ends clear on all of
them, so those columns end up as they were: the already-diagonalized
prefix stays untouched.  Row additions act on whole rows, so columns after
t pick up their side effects.  Those columns are reduced later, when the
loop reaches them.  Blocks come out as ``IndexBlock`` pairs of index tuples.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import InputError, TiedGradesError
from .f2 import F2Matrix, bits, col_reduce, remap
from .graded import AdmissibleOps, GradedMatrix, admissible_ops
from .grades import tied_pairs, topo_order


class IndexBlock(NamedTuple):
    """A paired set of row and column indices, each strictly increasing."""

    rows: Tuple[int, ...]
    cols: Tuple[int, ...]


class Op(NamedTuple):
    kind: str  # 'row' or 'col'
    source: int
    target: int


class Diagonalization(NamedTuple):
    matrix: GradedMatrix
    blocks: List[IndexBlock]
    certificate: List[Op]
    perturbed: bool


def _block_key(b: IndexBlock):
    return (0, b.rows[0]) if b.rows else (1, b.cols[0])


def _unreachable(cols: List[int], ops: AdmissibleOps, rmask: int, b_cols: int, t: int) -> bool:
    """Whether an entry of the rows in rmask in column t has no source.

    Each entry (k, t) needs a row outside rmask that may be added into k
    and meets column t, or a column in b_cols that may be added into t and
    meets row k.  No combination of the sources reaches an entry without
    either, so the block cannot be cleared.
    """
    col = cols[t]
    outside = col & ~rmask
    row_mask = ops.row_mask
    reach = -1  # the rows that the columns in b_cols feeding t meet
    c = col & rmask
    while c:
        low = c & -c
        if not row_mask[low.bit_length() - 1] & outside:
            if reach < 0:
                reach = 0
                for i in bits(ops.col_mask[t] & b_cols):
                    reach |= cols[i]
            if not reach & low:
                return True
        c ^= low
    return False


def block_reduce(
    A: GradedMatrix,
    ops: AdmissibleOps,
    T: IndexBlock,
    t: int,
    certificate: List[Op],
    b_cols: int,
) -> bool:
    """Try to clear A on T's rows over T's columns up to column t.

    T pairs the rows of one block B, built from columns before t, with
    columns outside B; only those at or before t are read.  b_cols is the
    bitmask of B's columns.  ``tot_diagonalize`` passes the columns of the
    other blocks that column t meets, and t.  The region is
    flattened last column first, rows ascending, so each column of T has a
    slot of len(T.rows) bits and the pivot under reduction lies in the
    earliest column.  One source vector is built per admissible operation
    that feeds the region: column additions out of B into a column of T,
    and row additions from outside T's rows into them.  One pass over T's
    columns, walking set bits, builds the region, the trace of every row
    that may feed one of T's rows and the column sources, reading each
    column of B on T's rows once; the admissibility masks, intersected with
    the traces, then name the row sources.  Sources are plain tuples.  When
    the region lies in the span of the sources, the operations of the
    combination found are applied to A (row additions act on whole rows, so
    columns after t pick up their side effects) and appended to the
    certificate as Ops, and True is returned.  Otherwise A is left unchanged
    and False is returned.  ``tot_diagonalize`` refuses a block with an
    entry no source reaches before it builds T; a direct call makes the
    same check on the region's last column first and returns False without
    a system.
    """
    rows_t = T.rows
    cols_t = T.cols[: bisect_right(T.cols, t)]
    if not rows_t or not cols_t:
        return True
    row_mask, col_mask = ops.row_mask, ops.col_mask
    mask = 0  # T's rows
    slot_bit: Dict[int, int] = {}  # row of T -> its bit within a slot
    row_feeders = 0  # the rows outside T that may be added into one of T's
    for rpos, i in enumerate(rows_t):
        mask |= 1 << i
        slot_bit[i] = 1 << rpos
        row_feeders |= row_mask[i]
    row_feeders &= ~mask
    cols = A.mat.cols
    if _unreachable(cols, ops, mask, b_cols, cols_t[-1]):
        return False

    n_rt = len(rows_t)
    slot = len(cols_t) * n_rt
    c = 0
    traces: Dict[int, int] = {}  # row -> its trace on the region, row position 0
    trace_mask = 0
    b_vecs: Dict[int, int] = {}  # column of B -> its vector on T's rows
    # (is_col, source, target) per vector; an Op only for those applied
    sources: List[Tuple[bool, int, int]] = []
    vecs: List[int] = []
    for j in cols_t:
        slot -= n_rt
        col = cols[j]
        if col & mask:
            c |= remap(col & mask, slot_bit) << slot
        rest = col & row_feeders
        if rest:
            trace_mask |= rest
            bit = 1 << slot
            while rest:
                low = rest & -rest
                l = low.bit_length() - 1
                traces[l] = traces.get(l, 0) | bit
                rest ^= low
        feeds = col_mask[j] & b_cols
        while feeds:
            low = feeds & -feeds
            i = low.bit_length() - 1
            v = b_vecs.get(i)
            if v is None:
                v = b_vecs[i] = remap(cols[i] & mask, slot_bit)
            if v:
                sources.append((True, i, j))
                vecs.append(v << slot)
            feeds ^= low
    for kpos, k in enumerate(rows_t):
        feeds = row_mask[k] & trace_mask
        while feeds:
            low = feeds & -feeds
            l = low.bit_length() - 1
            sources.append((False, l, k))
            vecs.append(traces[l] << kpos)
            feeds ^= low

    combo = col_reduce(F2Matrix(n_rt * len(cols_t), vecs), c)
    if combo is None:
        return False
    for idx in bits(combo):
        is_col, src, dst = sources[idx]
        if is_col:
            A.mat.add_col(src, dst)
        else:
            A.mat.add_row(src, dst)
        certificate.append(Op("col" if is_col else "row", src, dst))
    return True


def tot_diagonalize(A: GradedMatrix, *, perturb_ties: bool = False) -> Diagonalization:
    """Decompose A into the finest block structure admissible ops can reach.

    Rows and columns must already be in topo order.  Exactly equal grades
    are refused unless perturb_ties is set, in which case the earlier index
    is treated as strictly smaller and the result is flagged perturbed.
    The certificate lists every realized operation in application order;
    replaying it on the input reproduces the returned matrix.  The blocks
    with rows come first, by lowest row, then one block per zero column.
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
    cols = work.mat.cols
    # row -> its block: the sorted rows, their mask and the columns' mask
    owner = [((i,), 1 << i, 0) for i in range(work.n_rows)]
    certificate: List[Op] = []

    for t in range(work.n_cols):
        # earlier columns outside a block are already clear on its rows, so
        # only the blocks whose rows column t meets need work, by lowest row,
        # and only their columns and t can take part in clearing them
        met = []
        met_cols = 1 << t
        c = cols[t]
        while c:
            block = owner[(c & -c).bit_length() - 1]
            met.append(block)
            met_cols |= block[2]
            c &= ~block[1]
        met.sort()  # disjoint row tuples compare by their lowest row
        merged_rows, merged_cols, joined = 0, 1 << t, []
        for rows, rmask, cmask in met:
            if _unreachable(cols, ops, rmask, cmask, t) or not block_reduce(
                work, ops, IndexBlock(rows, tuple(bits(met_cols & ~cmask))), t, certificate, cmask
            ):
                merged_rows |= rmask
                merged_cols |= cmask
                joined.append(rows)
        if joined:
            rows = joined[0] if len(joined) == 1 else tuple(bits(merged_rows))
            block = (rows, merged_rows, merged_cols)
            for i in rows:
                owner[i] = block

    blocks = [
        IndexBlock(rows, tuple(bits(cmask)))
        for i, (rows, _, cmask) in enumerate(owner)
        if rows[0] == i  # each block once, at its lowest row
    ]
    # exactly the columns that joined no block with rows end up zero
    blocks += [IndexBlock((), (j,)) for j, c in enumerate(cols) if not c]
    return Diagonalization(
        matrix=work,
        blocks=blocks,
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
