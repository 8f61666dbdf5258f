"""Reference helpers the tests check the library against.

Plain restatements of definitions, kept out of the package because no
part of the program needs them.
"""
from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import product
from operator import le, xor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from mpdecomp import (
    AdmissibleOps,
    F2Matrix,
    Filtration,
    GradeBox,
    GradedMatrix,
    IndexBlock,
    Op,
    blockcodes,
    col_reduce,
    default_box,
    kernel_gens,
    leq,
    persistent_betti,
    topo_order,
    tot_diagonalize,
)
from mpdecomp.f2 import bits, reduce_into
from mpdecomp.invariants import Table


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


def rewrite_by_elimination(cols: GradedMatrix, basis: GradedMatrix) -> List[Optional[int]]:
    """Each column of cols over the generators born at or below its grade.

    One fresh elimination per column over the generators whose grade is <=
    the column's: the coefficients as a bitmask over ``basis``, or None for
    a column those generators do not generate.  ``basis`` holds one
    generator per column, as ``kernel_gens`` returns them.
    """
    out: List[Optional[int]] = []
    for u, c in zip(cols.col_grades, cols.mat.cols):
        sub = [idx for idx, g in enumerate(basis.col_grades) if leq(g, u)]
        coeffs = col_reduce(F2Matrix(cols.n_rows, [basis.mat.cols[idx] for idx in sub]), c)
        out.append(
            None
            if coeffs is None
            else sum(1 << idx for pos, idx in enumerate(sub) if (coeffs >> pos) & 1)
        )
    return out


def merge_tables(tables: Iterable[Table]) -> Table:
    """The per-degree concatenation of Betti tables, each degree sorted."""
    out: Table = []
    for table in tables:
        for deg, grades in enumerate(table):
            if deg == len(out):
                out.append([])
            out[deg] += grades
    return [sorted(grades) for grades in out]


def betti_tables_per_summand(subs: Sequence[GradedMatrix]) -> List[Table]:
    """One Betti table per summand presentation, each from a sweep of its own.

    The tables ``persistent_betti`` builds from one ``kernel_gens`` sweep of
    the whole diagonalized matrix, restated per summand: its rows, its
    columns and, with two parameters, the generators of its own kernel.
    """
    out = []
    for sub in subs:
        table = [sorted(sub.row_grades), sorted(sub.col_grades)]
        if sub.d == 2:
            table.append(sorted(kernel_gens(sub).col_grades))
        out.append(table)
    return out


def betti_euler_function(table: Table, box: GradeBox) -> List[int]:
    """Alternating cumulative sum of a Betti table over a box, flat in C order.

    Equals the dimension function whenever the table covers the full
    resolution, which is the case for d == 2 tables from the library.
    """
    return [
        sum(
            (-1) ** deg * sum(1 for g in grades if leq(g, u))
            for deg, grades in enumerate(table)
        )
        for u in box.grades()
    ]


def random_additions(M: GradedMatrix, k: int, rng: random.Random) -> GradedMatrix:
    """M after k seeded random admissible row and column additions.

    Each addition is drawn from every pair that ``GradedMatrix.add_row`` or
    ``add_col`` allows.  They test grades with ``leq``, so of two rows or
    columns at the same grade either may be added into the other.  The
    result presents a module isomorphic to coker M, with M's grades in
    M's order, so a minimized, sorted M stays minimized and sorted.
    """
    out = M.copy()
    rg, cg = M.row_grades, M.col_grades
    pairs = [
        (out.add_row, l, r) for r in range(M.n_rows) for l in range(M.n_rows)
        if l != r and leq(rg[r], rg[l])
    ] + [
        (out.add_col, i, j) for j in range(M.n_cols) for i in range(M.n_cols)
        if i != j and leq(cg[i], cg[j])
    ]
    for add, src, dst in rng.choices(pairs, k=k) if pairs else ():
        add(src, dst)
    return out


def summand_types(M: GradedMatrix) -> List[Tuple]:
    """The sorted multiset of summand types of a minimized, sorted M.

    A type is a summand's Betti-0 grades, its Betti-1 grades and its
    dimension function on the grid of M's distinct coordinates, so
    isomorphic summands have one type.  By the Krull-Schmidt theorem the
    multiset depends only on the isomorphism class of coker M.  Tied grades
    are broken by index, as ``--perturb`` does.
    """
    diag = tot_diagonalize(M, perturb_ties=True)
    tables = persistent_betti(diag.matrix, diag.blocks)
    codes = blockcodes(diag.matrix, diag.blocks, tables, [default_box(M)] * len(tables))
    return sorted(
        (tuple(table[0]), tuple(table[1]), tuple(values))
        for table, values in zip(tables, codes, strict=True)
    )


def row_echelon_rank(a) -> int:
    """Rank over F2 of a dense 0/1 matrix (a sequence of rows).

    A row echelon on 0/1 lists, independent of the packed-column
    elimination the library uses.
    """
    rows = [[int(x) % 2 for x in r] for r in a]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = list(map(xor, rows[r], top))
        rank += 1
        if rank == len(rows):
            break
    return rank


def dim_oracle(M: GradedMatrix, u) -> int:
    """Dimension of coker(M) at u, via the independent echelon rank."""
    n_gen = sum(1 for g in M.row_grades if leq(g, u))
    cols = [j for j, g in enumerate(M.col_grades) if leq(g, u)]
    if not cols or M.n_rows == 0:
        return n_gen
    dense = [[row[j] for j in cols] for row in M.mat.to_dense()]
    return n_gen - row_echelon_rank(dense)


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
    certificate: List[Op],
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
            certificate.append(op)
    return True


def minimize_per_tail(M: GradedMatrix) -> GradedMatrix:
    """``minimize`` with its span test restated as one reduction per tail.

    The unit pivots are split off as ``minimize`` does it: row by row in
    topo order, the first live column at the row's grade that meets it.
    Then for each distinct grade tail s, the columns whose tail is <= s
    are reduced left to right in topo order, from scratch, and a column
    whose tail is s and that reduces to zero is redundant: it lies in the
    span of the columns of lower or equal grade before it.  Kept rows and
    columns stay in input order.
    """
    col_grades = M.col_grades
    cols = list(M.mat.cols)
    live_rows = set(range(M.n_rows))
    live_cols = list(range(M.n_cols))
    for i in topo_order(M.row_grades):
        j = next(
            (j for j in live_cols if col_grades[j] == M.row_grades[i] and (cols[j] >> i) & 1),
            None,
        )
        if j is None:
            continue
        for j2 in live_cols:
            if j2 != j and (cols[j2] >> i) & 1:
                cols[j2] ^= cols[j]
        live_rows.discard(i)
        live_cols.remove(j)

    order = sorted(live_cols, key=col_grades.__getitem__)  # stable: ties by index
    tails = [col_grades[j][1:] for j in order]
    last = {t: pos for pos, t in enumerate(tails)}  # last position per tail
    redundant = set()
    for s, end in last.items():
        pivots: Dict[int, int] = {}
        for pos in range(end + 1):
            tail = tails[pos]
            if not leq(tail, s):
                continue
            if not reduce_into(pivots, cols[order[pos]]) and tail == s:
                redundant.add(order[pos])

    keep_rows = sorted(live_rows)
    keep_cols = [j for j in live_cols if j not in redundant]
    return GradedMatrix(
        F2Matrix(M.n_rows, cols).submatrix(keep_rows, keep_cols),
        [M.row_grades[i] for i in keep_rows],
        [col_grades[j] for j in keep_cols],
        [M.row_labels[i] for i in keep_rows],
        [M.col_labels[j] for j in keep_cols],
        M.d,
    )


def slice_kernel_gens(M: GradedMatrix) -> GradedMatrix:
    """``kernel_gens`` restated as a fresh reduction at every slice.

    The grid spanned by the column grades is cut into slices, a value of
    every coordinate after the first, walked one row (every tail
    coordinate but the last) at a time.  Each column, in topo order, is
    reduced afresh against the live columns before it at every slice of
    the row from its own tail up, until it dies or meets a slice above one
    where it died in an earlier row.  Returns Z as ``kernel_gens`` builds
    it: rows and labels from M's columns, one column per minimal death
    grade of a column of M, in (grade, topo position) order.
    """
    d = M.d
    cols = M.mat.cols
    grades = M.col_grades if d > 1 else [g + (0,) for g in M.col_grades]
    chain = sorted({g[-1] for g in grades})
    axes = [sorted({g[k] for g in grades}) for k in range(1, max(d, 2) - 1)]
    m = len(cols)
    packed = [(c << m) | (1 << j) for j, c in enumerate(cols)]
    died: List[List[Tuple[Tuple[int, ...], int]]] = [[] for _ in grades]  # (row, k)
    found: List[Tuple[Tuple[int, ...], int, int]] = []
    order = topo_order(grades)
    for row in product(*axes):
        pivots: List[Dict[int, int]] = [{} for _ in chain]  # per slice
        for pos, j in enumerate(order):
            g = grades[j]
            if not all(map(le, g[1:-1], row)):
                continue
            end = min(
                (k for r, k in died[j] if all(map(le, r, row))), default=len(chain)
            )
            for k in range(bisect_left(chain, g[-1]), end):
                comb = reduce_into(pivots[k], packed[j], m)
                if comb.bit_length() <= m:
                    died[j].append((row, k))
                    found.append((((g[0],) + row + (chain[k],))[:d], pos, comb))
                    break
    found.sort()
    return GradedMatrix(
        F2Matrix(m, [comb for _, _, comb in found]),
        list(M.col_grades),
        [z for z, _, _ in found],
        list(M.col_labels),
        [f"z{i}" for i in range(len(found))],
        d,
    )


Bar = Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]  # (birth, death or None)


def barcode(F: Filtration, p: int) -> List[Bar]:
    """The degree-p barcode of a one-parameter filtration, sorted.

    The textbook persistence algorithm: simplices are ordered by (grade,
    dimension, index within the dimension), and each boundary column, in
    that order, is reduced by the earlier column with the same lowest
    entry until its lowest entry is new or it is zero.  A nonzero column
    pairs its lowest simplex, a birth, with its own simplex, a death; bars
    of length zero are dropped.  A birth that no column pairs gives a bar
    without death.
    """
    order = sorted((g, dim, i) for dim, gs in enumerate(F.grades) for i, g in enumerate(gs))
    pos = {(dim, i): n for n, (_, dim, i) in enumerate(order)}
    low_owner: Dict[int, int] = {}  # lowest entry -> its reduced column
    paired = set()
    bars: List[Bar] = []
    for j, (g, dim, i) in enumerate(order):
        c = 0
        for k in bits(F.boundaries[dim][i]) if dim else ():
            c |= 1 << pos[(dim - 1, k)]
        while c and c.bit_length() - 1 in low_owner:
            c ^= low_owner[c.bit_length() - 1]
        if c:
            low = c.bit_length() - 1
            low_owner[low] = c
            paired |= {low, j}
            if order[low][1] == p and order[low][0] != g:
                bars.append((order[low][0], g))
    bars += [(g, None) for n, (g, dim, _) in enumerate(order) if dim == p and n not in paired]
    return sorted(bars, key=lambda bar: (bar[0], bar[1] is None, bar[1] or ()))
