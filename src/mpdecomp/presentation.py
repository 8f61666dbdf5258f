"""Graded presentations of homology modules and their construction.

A presentation is a graded matrix read as: rows generate, columns relate.
For degree 0 the boundary matrix of edges is already one.  For higher
degrees the rows must first be changed to a generating set of the cycle
submodule; with two parameters that set is a basis and one rewrite
suffices, with more parameters the generating set need not be free and
the syzygies among the generators join the boundary columns as extra
relations.

Cycle generators are found by ``kernel_gens``, a sweep over the grid
spanned by the column grades.  A slice fixes every coordinate but the
first; a row fixes every one but the first and the last, and its slices
form a chain.  The sweep walks one row at a time and climbs its chain
once, keeping one echelon of the live columns in lexicographic topo order:
each column joins it at its own slice and leaves when it dies, so a column
is reduced once per row and only one row's pivots are held at once.  With
two parameters each column dies at a unique minimal grade; in general it
can die along an antichain and every minimal grade is kept.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from itertools import product
from operator import le
from typing import Dict, List, Tuple

from .errors import InputError, InternalCheckError
from .f2 import F2Matrix, bits, echelon_insert, remap
from .graded import GradedMatrix, _reindexed, _trusted
from .grades import (
    fmt, read_grade, read_int, read_lines, read_params, threshold_masks, topo_order
)

MAX_KERNEL_SLICES = 1_000_000  # rows times chain slices; more is refused


def kernel_gens(M: GradedMatrix) -> GradedMatrix:
    """Generators of ker(M) as a graded matrix Z with MZ = 0.

    Z's rows are M's columns, with their grades and labels; its columns are
    the generators at their birth grades, labelled ``z0``, ``z1``, ...

    The grid spanned by the column grades is cut into slices, a slice being
    a value ``s`` of the coordinates after the first.  Take the columns
    whose grade tail is ``<= s`` in topo order and reduce each against the
    ones before it.  Topo order is lexicographic, so at any grid point
    ``(x, s)`` with ``x >= g_j[0]`` the active columns before ``j`` are
    exactly these; the reduction of ``j`` does not depend on ``x``.  A
    column that reduces to zero therefore dies at ``(g_j[0],) + s`` and at
    every point above it in the slice, with the same combination, and the
    reduction at each slice finds every death.  A column that died at a
    slice ``s' <= s`` dies again at ``s``, above a grade already recorded,
    so it is left out: only the columns live at ``s`` are reduced there.

    The slices are walked one row at a time, a row being a value of every
    tail coordinate but the last; along the last one the row's slices form
    a chain.  One echelon per row holds the live columns, column j as
    ``(cols[j] << m) | (1 << j)`` reduced against live columns before it in
    topo order, m being M's column count, so a pivot is a bit at or above m
    and the bits below m carry the combination.  The chain is climbed once,
    and each column joins the echelon at its own slice:

    - A column joins by ``f2.echelon_insert``: it reduces against the
      pivots of columns before it, and where a later column owns the pivot
      bit it takes that bit and the later owner goes on in its place.
    - The column that insertion leaves with nothing at or above bit m dies
      at that slice; its residue is its relation.
    - A column that died in an earlier row at slice k leaves the echelon
      at slice k, before that slice's columns join.
    - At the end of a slice, each death recorded there is cleaned of the
      columns that have left the sweep by then: each such column, the
      latest first, is replaced by its own relation.

    Lows distinct and each vector a column plus earlier ones make the
    echelon a reduction of the slice's live columns in topo order, whatever
    order they joined in, so a column dies exactly where the reduction
    from scratch at that slice kills it.  Its cleaned relation is its
    unique expression over the independent live columns before it, which
    is what that reduction returns.  So each column is inserted once per
    row instead of once per slice it stays live at.

    What is left is one generator per minimal death grade of each column,
    Z's columns in (grade, topo position) order.  With two parameters the
    grid is one row, each column gives at most one generator, and Z is a
    basis of the free kernel.  With one parameter the grid is a single
    slice.  A grid of more than MAX_KERNEL_SLICES slices is refused before
    the sweep starts.
    """
    d = M.d
    cols = M.mat.cols
    # a grade is (head, row, slice on the chain); with one parameter a
    # constant last coordinate makes the grid a single slice
    grades = M.col_grades if d > 1 else [g + (0,) for g in M.col_grades]
    chain = sorted({g[-1] for g in grades})
    axes = [sorted({g[k] for g in grades}) for k in range(1, max(d, 2) - 1)]
    slices = math.prod(map(len, axes)) * len(chain)
    if slices > MAX_KERNEL_SLICES:
        raise InputError(
            f"kernel sweep of {slices} grade slices is more than the limit of "
            f"{MAX_KERNEL_SLICES}"
        )
    m = len(cols)
    order = topo_order(grades)  # columns are named by topo position below
    at = [0] * m  # column -> its topo position
    for pos, j in enumerate(order):
        at[j] = pos
    packed = [(cols[j] << m) | (1 << j) for j in order]
    tg = [grades[j] for j in order]
    own = [bisect_left(chain, g[-1]) for g in tg]  # the slice a column joins at
    died: List[List[Tuple[int, Tuple[int, ...], int]]] = [[] for _ in order]  # (k, row, relation)
    found: List[Tuple[Tuple[int, ...], int, int]] = []

    for row in product(*axes):
        joins: List[List[int]] = [[] for _ in chain]
        leaves: List[List[Tuple[int, int]]] = [[] for _ in chain]
        for pos, g in enumerate(tg):
            if not all(map(le, g[1:-1], row)):
                continue
            earlier = [(k, r) for k, rw, r in died[pos] if all(map(le, rw, row))]
            if earlier:
                k, r = min(earlier)
                leaves[k].append((pos, r))
                if k == own[pos]:
                    continue
            joins[own[pos]].append(pos)
        owner: Dict[int, int] = {}  # pivot bit -> the column owning it
        reduced = [0] * m  # each owner's vector, 0 for every other column
        relation: Dict[int, int] = {}  # a relation of each column that left
        gone = 0  # the columns that left the sweep, as bits of M's columns
        for k in range(len(chain)):
            for pos, r in leaves[k]:
                if reduced[pos]:
                    del owner[reduced[pos].bit_length() - 1]
                    reduced[pos] = 0
                relation[pos] = r
                gone |= 1 << order[pos]
            deaths = []
            for pos in joins[k]:
                dead = echelon_insert(owner, reduced, pos, packed[pos], m)
                if dead is not None:
                    cur, r = dead
                    relation[cur] = r
                    gone |= 1 << order[cur]
                    deaths.append(cur)
            for pos in deaths:
                r = relation[pos]
                others = gone ^ (1 << order[pos])
                while r & others:
                    r ^= relation[max(map(at.__getitem__, bits(r & others)))]
                died[pos].append((k, row, r))
                found.append((((tg[pos][0],) + row + (chain[k],))[:d], pos, r))
    found.sort()
    # a generator sums columns born at or below its grade: Z is homogeneous
    return _trusted(
        F2Matrix(len(cols), [r for _, _, r in found]),
        list(M.col_grades),
        [z for z, _, _ in found],
        list(M.col_labels),
        [f"z{i}" for i in range(len(found))],
        d,
    )


def rewrite_in_basis(cols: GradedMatrix, basis: GradedMatrix) -> GradedMatrix:
    """Express every column of `cols` over the given cycle generators.

    Contract: ``basis`` is ``kernel_gens`` of the matrix whose columns are
    the rows of ``cols`` (the boundary matrix one degree down), and every
    column of ``cols`` is a cycle of it.  The output's rows are the columns
    of ``basis``, with their grades and labels.  Only the shapes are
    checked: ``basis`` must have the rows of ``cols`` and its ``d``.

    A generator's coordinates are its dying column plus columns before it
    in the topo order of the row grades, so it leads with that column.  A
    column at grade u is rewritten by back-substitution: while it is not
    zero, its last column in topo order is cleared with the first
    generator that leads with it and is born at or below u, which exists
    because that column dies at a slice no higher than u's tail.  So a
    column costs one step per generator it uses, and the result is
    homogeneous by construction.  With two parameters the generators born
    at or below u are independent and the expression is unique; with more
    it is one of several.  A column that cannot be expressed means the
    basis does not generate the image: an internal error, not bad input.
    """
    ambient = cols.n_rows
    if basis.n_rows != ambient or basis.d != cols.d:
        raise InputError(
            f"a basis over {basis.n_rows} rows with {basis.d} parameters cannot "
            f"express columns over {ambient} rows with {cols.d}"
        )
    # columns of the ambient as bits in topo order, so a vector's last
    # column is its highest bit
    at = [0] * ambient
    for pos, i in enumerate(topo_order(cols.row_grades)):
        at[i] = 1 << pos

    led_by: Dict[int, List[Tuple[int, Tuple[int, ...], int]]] = {}
    for idx, (g, c) in enumerate(zip(basis.col_grades, basis.mat.cols)):
        z = remap(c, at)
        if z:
            led_by.setdefault(z.bit_length() - 1, []).append((idx, g, z))
    out_cols: List[int] = []
    for j, c in enumerate(cols.mat.cols):
        u = cols.col_grades[j]
        cur = remap(c, at)
        v = 0
        while cur:
            for idx, g, z in led_by.get(cur.bit_length() - 1, ()):
                if all(map(le, g, u)):
                    cur ^= z
                    v |= 1 << idx
                    break
            else:
                raise InternalCheckError(
                    f"column {j} (grade {fmt(u)}) is not generated by the cycle basis"
                )
        out_cols.append(v)
    return _trusted(
        F2Matrix(basis.n_cols, out_cols),
        list(basis.col_grades),
        list(cols.col_grades),
        list(basis.col_labels),
        list(cols.col_labels),
        cols.d,
    )


def pres_h0(F) -> GradedMatrix:
    """Degree 0: vertices generate, edges relate, nothing to rewrite."""
    from .filtration import boundary_matrix

    return boundary_matrix(F, 1)


def _cycles(F, p: int) -> Tuple[GradedMatrix, GradedMatrix]:
    """The boundaries of degree p + 1 rewritten over the cycles of degree p.

    Returns the cycle generators, ``kernel_gens`` of the boundary matrix of
    degree p, and the rewritten matrix.
    """
    from .filtration import boundary_matrix

    if p < 1:
        raise InputError(f"degree must be >= 1, got {p}; degree 0 has its own path")
    gens = kernel_gens(boundary_matrix(F, p))
    return gens, rewrite_in_basis(boundary_matrix(F, p + 1), gens)


def pres_2param(F, p: int) -> GradedMatrix:
    """Degree p >= 1 presentation for a 2-parameter filtration."""
    if F.d != 2:
        raise InputError(f"two-parameter construction on a {F.d}-parameter input")
    return _cycles(F, p)[1]


def pres_dparam(F, p: int) -> GradedMatrix:
    """Degree p >= 1 presentation for any parameter count.

    Cycle generators need not be independent here, so the syzygies among
    them, the kernel generators of the generator matrix, are appended as
    relation columns next to the rewritten boundaries.
    """
    gens, dbar = _cycles(F, p)
    syzygies = kernel_gens(gens)
    return _trusted(
        F2Matrix(gens.n_cols, dbar.mat.cols + syzygies.mat.cols),
        dbar.row_grades,
        dbar.col_grades + syzygies.col_grades,
        dbar.row_labels,
        dbar.col_labels + [f"y{i}" for i in range(syzygies.n_cols)],
        gens.d,
    )


def minimize(M: GradedMatrix) -> GradedMatrix:
    """A minimal presentation of the same module: no redundant line left.

    First, unit pivots are split off in one pass over the rows in topo
    order: row i takes the first live column j at its own grade that meets
    it, column j is added into every other column that meets row i, then row
    i and column j are deleted.  The cokernel never changes.  Such a step
    adds a column of grade g only into columns of grade >= g, so it makes new
    units only at g, on later rows: each pick is the smallest (grade, row,
    column) unit left.

    Then each relation in the span of the relations of lower or equal
    grade is dropped (the minimization step of Lesnick and Wright,
    arXiv:1902.05708); of tied columns the later one goes.  As in
    ``kernel_gens``, topo order is lexicographic, so the columns before j
    with a grade tail <= tail(j) are exactly those with grade <= grade(j).
    So the test is ``kernel_gens``' sweep without its relations: each grid
    row that some column occupies climbs its chain once, with one echelon
    that the columns at or below the row join by ``f2.echelon_insert``,
    slice by slice and in topo order within a slice.  A column is redundant
    exactly when it dies as it joins at its own slice of its own row, where
    the columns before it in the echelon are those below its grade.  A row
    stops after its own columns' highest slice and last topo position,
    since what joins later cannot reach them.  Its joiners are picked by
    AND of threshold masks whose bits are in joining order, so no pair of
    grades is compared.  A column joins once per occupied row at or above
    its own, not once per distinct tail, and only the rows that occur are
    swept, not every slice of the grid they span.

    The row and column grades left are the module's graded Betti numbers
    in degrees 0 and 1.  Kept rows and columns stay in input order.
    """
    col_grades = M.col_grades
    cols = list(M.mat.cols)
    at_grade: Dict[Tuple[int, ...], List[int]] = {}  # live columns per grade
    for j, g in enumerate(col_grades):
        at_grade.setdefault(g, []).append(j)
    live_rows = set(range(M.n_rows))
    live_cols = list(range(M.n_cols))
    for i in topo_order(M.row_grades):
        units = at_grade.get(M.row_grades[i], [])
        j = next((j for j in units if (cols[j] >> i) & 1), None)
        if j is None:
            continue
        # row i then meets column j only; its row addition would change
        # nothing but column j, which goes
        for j2 in live_cols:
            if j2 != j and (cols[j2] >> i) & 1:
                cols[j2] ^= cols[j]
        live_rows.discard(i)
        live_cols.remove(j)
        units.remove(j)

    # topo position -> column; a tail is (row, slice on the chain), and
    # with one parameter a constant slice makes the grid a single slice
    order = sorted(live_cols, key=col_grades.__getitem__)  # stable: ties by index
    tails = [col_grades[j][1:] or (0,) for j in order]
    joining = sorted(range(len(order)), key=lambda pos: (tails[pos][-1], pos))
    # sets of columns as bits in joining order, so a set's bits come out in
    # the order its columns join: those at or before a topo position, at or
    # below a slice, and at or below a coordinate on each axis of a row
    upto_pos = threshold_masks(joining)
    upto_slice = threshold_masks([tails[pos][-1] for pos in joining])
    upto_row = [threshold_masks([tails[pos][k] for pos in joining]) for k in range(M.d - 2)]
    stop: Dict[Tuple[int, ...], Tuple[int, int]] = {}  # row -> (last slice, last position)
    for pos, tail in enumerate(tails):
        last_slice, _ = stop.get(tail[:-1], (tail[-1], pos))
        stop[tail[:-1]] = (max(last_slice, tail[-1]), pos)
    redundant = set()
    for row, (last_slice, last_pos) in stop.items():
        joins = upto_pos[last_pos] & upto_slice[last_slice]
        for within, x in zip(upto_row, row):
            joins &= within[x]
        owner: Dict[int, int] = {}
        reduced = [0] * len(order)
        for pos in map(joining.__getitem__, bits(joins)):
            dead = echelon_insert(owner, reduced, pos, cols[order[pos]])
            if dead is not None and dead[0] == pos and tails[pos][:-1] == row:
                redundant.add(order[pos])

    keep_rows = sorted(live_rows)
    keep_cols = [j for j in live_cols if j not in redundant]
    # the column additions above only add a column into one of larger grade
    return _reindexed(
        M, keep_rows, keep_cols, F2Matrix(M.n_rows, cols).submatrix(keep_rows, keep_cols)
    )


# -- raw presentation files -------------------------------------------------


def parse_presentation(text: str) -> GradedMatrix:
    """Parse the mppres format::

        mppres 1
        params <d>
        rows <n>
        r <g1> ... <gd>          (n times)
        cols <m>
        c <g1> ... <gd> : <row_index> ...   (m times)

    Only comments may follow the last column.
    """
    lines = read_lines(text)

    def next_tokens(expect: str):
        for line_no, line in lines:
            return line_no, line.split()
        raise InputError(f"unexpected end of input, expected {expect}")

    line_no, tokens = next_tokens("'mppres 1' header")
    if tokens != ["mppres", "1"]:
        raise InputError(f"line {line_no}: expected header 'mppres 1'")
    d = read_params(*next_tokens("'params <d>'"))

    line_no, tokens = next_tokens("'rows <n>'")
    if len(tokens) != 2 or tokens[0] != "rows" or not tokens[1].isdecimal():
        raise InputError(f"line {line_no}: expected 'rows <n>'")
    n = int(tokens[1])
    row_grades = []
    for _ in range(n):
        line_no, tokens = next_tokens("a row grade line")
        if tokens[0] != "r":
            raise InputError(f"line {line_no}: expected 'r <grade>'")
        row_grades.append(read_grade(line_no, tokens[1:], d))

    line_no, tokens = next_tokens("'cols <m>'")
    if len(tokens) != 2 or tokens[0] != "cols" or not tokens[1].isdecimal():
        raise InputError(f"line {line_no}: expected 'cols <m>'")
    m = int(tokens[1])
    col_grades = []
    cols = []
    for _ in range(m):
        line_no, tokens = next_tokens("a column line")
        if tokens[0] != "c" or ":" not in tokens:
            raise InputError(f"line {line_no}: expected 'c <grade> : <rows>'")
        sep = tokens.index(":")
        g = read_grade(line_no, tokens[1:sep], d)
        col_grades.append(g)
        v = 0
        for tok in tokens[sep + 1 :]:
            try:
                i = read_int(tok)
            except ValueError:
                raise InputError(f"line {line_no}: non-integer row index {tok!r}") from None
            if not 0 <= i < n:
                raise InputError(f"line {line_no}: row index {i} outside 0..{n - 1}")
            if not all(map(le, row_grades[i], g)):
                raise InputError(
                    f"line {line_no}: entry at row {i} breaks homogeneity: "
                    f"row grade {fmt(row_grades[i])} is not <= column grade {fmt(g)}"
                )
            v |= 1 << i
        cols.append(v)
    for line_no, _ in lines:
        raise InputError(f"line {line_no}: expected end of input after {m} columns")

    # every grade and entry is checked above, all that the constructor checks
    labels = [f"r{i}" for i in range(n)], [f"c{j}" for j in range(m)]
    return _trusted(F2Matrix(n, cols), row_grades, col_grades, *labels, d)


def format_presentation(M: GradedMatrix) -> str:
    """Serialize a presentation in the mppres format; inverse of parsing."""
    out = ["mppres 1", f"params {M.d}", f"rows {M.n_rows}"]
    for g in M.row_grades:
        out.append("r " + " ".join(str(x) for x in g))
    out.append(f"cols {M.n_cols}")
    for g, c in zip(M.col_grades, M.mat.cols):
        rows = " ".join(map(str, bits(c)))
        out.append("c " + " ".join(str(x) for x in g) + " : " + rows)
    return "\n".join(out) + "\n"
