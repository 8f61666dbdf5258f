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
form a chain.  The sweep walks one row at a time, column by column in
lexicographic topo order, and reduces each column at the slices of the
chain from its own grade up until it dies, so only the pairs where a column
is live cost work and only one row's pivots are held at once.  With two
parameters each column dies at a unique minimal grade; in general it can
die along an antichain and every minimal grade is kept.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from operator import le
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, InternalCheckError
from .f2 import F2Matrix, bits
from .graded import GradedMatrix, _reindexed, _trusted
from .grades import check_grade, fmt, leq, topo_order

H0 = "H0"
TWO_PARAM = "TWO_PARAM"
D_PARAM = "D_PARAM"
RAW = "RAW"
_CASES = (H0, TWO_PARAM, D_PARAM, RAW)


@dataclass(frozen=True)
class KernelElement:
    """A cycle: grade of birth plus coordinates over the ambient columns."""

    grade: Tuple[int, ...]
    coords: int


@dataclass
class Presentation:
    matrix: GradedMatrix
    case_tag: str
    minimized: bool = False

    def __post_init__(self) -> None:
        if self.case_tag not in _CASES:
            raise InputError(f"unknown case tag {self.case_tag!r}")

    @property
    def d(self) -> int:
        return self.matrix.d

    @property
    def n_rows(self) -> int:
        return self.matrix.n_rows

    @property
    def n_cols(self) -> int:
        return self.matrix.n_cols


def kernel_gens(M: GradedMatrix) -> List[KernelElement]:
    """Generators of ker(M), coordinates over the columns of M.

    The grid spanned by the column grades is cut into slices, a slice being
    a value ``s`` of the coordinates after the first.  Take the columns
    whose grade tail is ``<= s`` in topo order and reduce each against the
    ones before it.  Topo order is lexicographic, so at any grid point
    ``(x, s)`` with ``x >= g_j[0]`` the active columns before ``j`` are
    exactly these; the reduction of ``j`` does not depend on ``x``.  A
    column that reduces to zero therefore dies at ``(g_j[0],) + s`` and at
    every point above it in the slice, with the same combination, and one
    reduction per slice finds every death.

    A column that died at a slice ``s' <= s`` dies again at ``s``, above a
    grade already recorded, and adds no pivot there, so it is left out: the
    reduction at ``s`` depends only on the columns live there.  The slices
    are walked one row at a time, a row being a value of every tail
    coordinate but the last.  Along the last one the row's slices form a
    chain, each with its own pivots, and every slice ``<= s`` lies in a row
    no later than that of ``s``.  Each column, in topo order, climbs the
    chain from its own tail, reduced afresh at every slice, until it dies or
    meets a slice above one where it died in an earlier row.  So only the
    (column, slice) pairs where the column is live are visited, and only
    one row's pivots are held at a time: at most the chain length times
    the rank of M.

    What is left is one generator per minimal death grade of each column,
    listed by (grade, topo position).  With two parameters the grid is one
    row whose slices are totally ordered, each column gives at most one
    generator, and the list is a basis of the free kernel.  With one
    parameter the grid is a single slice.
    """
    d = M.d
    cols = M.mat.cols
    # a grade is (head, row, slice on the chain); with one parameter a
    # constant last coordinate makes the grid a single slice
    grades = M.col_grades if d > 1 else [g + (0,) for g in M.col_grades]
    chain = sorted({g[-1] for g in grades})
    rows = product(*(sorted({g[k] for g in grades}) for k in range(1, max(d, 2) - 1)))
    died: List[List[Tuple[Tuple[int, ...], int]]] = [[] for _ in grades]  # (row, k)
    found: List[Tuple[Tuple[int, ...], int, int]] = []
    order = topo_order(grades)

    for row in rows:
        pivots: List[Dict[int, Tuple[int, int]]] = [{} for _ in chain]  # per slice
        for pos, j in enumerate(order):
            g = grades[j]
            if not all(map(le, g[1:-1], row)):
                continue
            end = min(
                (k for r, k in died[j] if all(map(le, r, row))), default=len(chain)
            )
            for k in range(bisect_left(chain, g[-1]), end):
                at = pivots[k]
                cur = cols[j]
                comb = 1 << j
                while cur:
                    lw = cur.bit_length() - 1
                    if lw in at:
                        pcol, pcomb = at[lw]
                        cur ^= pcol
                        comb ^= pcomb
                    else:
                        at[lw] = (cur, comb)
                        break
                if not cur:
                    died[j].append((row, k))
                    found.append((((g[0],) + row + (chain[k],))[:d], pos, comb))
                    break
    found.sort()
    return [KernelElement(grade=z, coords=comb) for z, _, comb in found]


def rewrite_in_basis(
    cols: GradedMatrix,
    basis: Sequence[KernelElement],
    basis_labels: Optional[Sequence[str]] = None,
) -> GradedMatrix:
    """Express every column of `cols` over the given cycle generators.

    Contract: ``basis`` is ``kernel_gens`` of the matrix whose columns are
    the rows of ``cols`` (the boundary matrix one degree down), and every
    column of ``cols`` is a cycle of it.  Each generator's grade and
    coordinates and the label count are checked; that ``basis`` is such
    output is not.

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
    grades = []
    for b in basis:
        g = check_grade(b.grade)
        if len(g) != cols.d:
            raise InputError(f"kernel element grade {fmt(g)} is not {cols.d}-parameter")
        if b.coords < 0 or b.coords >> ambient:
            raise InputError("kernel element has coordinates outside the ambient")
        grades.append(g)
    labels = (
        list(basis_labels)
        if basis_labels is not None
        else [f"z{i}" for i in range(len(basis))]
    )
    if len(labels) != len(basis):
        raise InputError(f"{len(labels)} labels for {len(basis)} kernel elements")
    # columns of the ambient as bits in topo order, so a vector's last
    # column is its highest bit
    at = [0] * ambient
    for pos, i in enumerate(topo_order(cols.row_grades)):
        at[i] = 1 << pos

    def in_topo(c: int) -> int:
        v = 0
        while c:
            low = c & -c
            v |= at[low.bit_length() - 1]
            c ^= low
        return v

    led_by: Dict[int, List[Tuple[int, Tuple[int, ...], int]]] = {}
    for idx, (g, b) in enumerate(zip(grades, basis)):
        z = in_topo(b.coords)
        if z:
            led_by.setdefault(z.bit_length() - 1, []).append((idx, g, z))
    out_cols: List[int] = []
    for j, c in enumerate(cols.mat.cols):
        u = cols.col_grades[j]
        cur = in_topo(c)
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
        F2Matrix(len(basis), out_cols),
        grades,
        list(cols.col_grades),
        labels,
        list(cols.col_labels),
        cols.d,
    )


def pres_h0(F) -> Presentation:
    """Degree 0: vertices generate, edges relate, nothing to rewrite."""
    from .filtration import boundary_matrix

    return Presentation(boundary_matrix(F, 1), case_tag=H0)


def _cycles(F, p: int) -> Tuple[GradedMatrix, List[KernelElement], GradedMatrix]:
    """The boundaries of degree p + 1 rewritten over the cycles of degree p.

    Returns the boundary matrix of degree p, its cycle generators from
    ``kernel_gens`` (labelled ``z0``, ``z1``, ...) and the rewritten matrix.
    """
    from .filtration import boundary_matrix

    if p < 1:
        raise InputError(f"degree must be >= 1, got {p}; degree 0 has its own path")
    bp = boundary_matrix(F, p)
    gens = kernel_gens(bp)
    labels = [f"z{i}" for i in range(len(gens))]
    return bp, gens, rewrite_in_basis(boundary_matrix(F, p + 1), gens, labels)


def pres_2param(F, p: int) -> Presentation:
    """Degree p >= 1 presentation for a 2-parameter filtration."""
    if F.d != 2:
        raise InputError(f"two-parameter construction on a {F.d}-parameter input")
    return Presentation(_cycles(F, p)[2], case_tag=TWO_PARAM)


def pres_dparam(F, p: int) -> Presentation:
    """Degree p >= 1 presentation for any parameter count.

    Cycle generators need not be independent here, so the syzygies among
    them are appended as relation columns next to the rewritten boundaries.
    """
    bp, gens, dbar = _cycles(F, p)
    # a generator is a cycle born at its grade, so its coordinates sit at or
    # below it; a syzygy is a kernel element of these, born at its grade too
    gen_matrix = _trusted(
        F2Matrix(bp.n_cols, [g.coords for g in gens]),
        bp.col_grades,
        dbar.row_grades,
        bp.col_labels,
        dbar.row_labels,
        bp.d,
    )
    syzygies = kernel_gens(gen_matrix)
    out = _trusted(
        F2Matrix(len(gens), dbar.mat.cols + [s.coords for s in syzygies]),
        dbar.row_grades,
        dbar.col_grades + [s.grade for s in syzygies],
        dbar.row_labels,
        dbar.col_labels + [f"y{i}" for i in range(len(syzygies))],
        bp.d,
    )
    return Presentation(out, case_tag=D_PARAM)


def minimize(P: Presentation) -> Presentation:
    """A minimal presentation of the same module: no redundant line left.

    First, unit pivots are split off: while some entry (i, j) has
    grade(r_i) == grade(c_j), taking the smallest (grade, row, column),
    column j is added into every other column that meets row i, then row i
    and column j are deleted.  The cokernel never changes.

    Then each relation in the span of the relations of lower or equal
    grade is dropped (the minimization step of Lesnick and Wright,
    arXiv:1902.05708); of tied columns the later one goes.  As in
    ``kernel_gens``, topo order is lexicographic, so the columns before j
    with a grade tail <= tail(j) are exactly those with grade <= grade(j):
    one left-to-right reduction per distinct tail s, over the columns whose
    tail is <= s, tests every column whose tail is s.  ``kernel_gens`` on the
    sorted columns would find the same ones, but it visits every slice of
    the grid the tails span, not only the tails that occur: for m relations
    about m times the work with three parameters and m^2 times with four.

    The row and column grades left are the module's graded Betti numbers
    in degrees 0 and 1.  Kept rows and columns stay in input order.
    """
    M = P.matrix
    col_grades = M.col_grades
    cols = list(M.mat.cols)
    at_grade: Dict[Tuple[int, ...], int] = {}
    for i, g in enumerate(M.row_grades):
        at_grade[g] = at_grade.get(g, 0) | (1 << i)
    unit = [at_grade.get(g, 0) for g in col_grades]  # rows at the column's grade
    live_rows = set(range(M.n_rows))
    live_cols = list(range(M.n_cols))
    while True:
        best = None
        for j in live_cols:
            hits = cols[j] & unit[j]
            if hits:
                key = (col_grades[j], (hits & -hits).bit_length() - 1, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, i, j = best
        # row i then meets column j only; its row addition would change
        # nothing but column j, which goes
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
            if not all(map(le, tail, s)):
                continue
            cur = cols[order[pos]]
            while cur:
                lw = cur.bit_length() - 1
                if lw in pivots:
                    cur ^= pivots[lw]
                else:
                    pivots[lw] = cur
                    break
            if not cur and tail == s:
                redundant.add(order[pos])

    keep_rows = sorted(live_rows)
    keep_cols = [j for j in live_cols if j not in redundant]
    # the column additions above only add a column into one of larger grade
    out = _reindexed(
        M, keep_rows, keep_cols, F2Matrix(M.n_rows, cols).submatrix(keep_rows, keep_cols)
    )
    return Presentation(out, case_tag=P.case_tag, minimized=True)


# -- raw presentation files -------------------------------------------------


def parse_presentation(text: str) -> Presentation:
    """Parse the mppres format::

        mppres 1
        params <d>
        rows <n>
        r <g1> ... <gd>          (n times)
        cols <m>
        c <g1> ... <gd> : <row_index> ...   (m times)
    """
    lines = text.splitlines()
    pos = 0

    def next_tokens(expect: str):
        nonlocal pos
        while pos < len(lines):
            pos += 1
            line = lines[pos - 1].split("#", 1)[0].strip()
            if line:
                return pos, line.split()
        raise InputError(f"unexpected end of input, expected {expect}")

    line_no, tokens = next_tokens("'mppres 1' header")
    if tokens != ["mppres", "1"]:
        raise InputError(f"line {line_no}: expected header 'mppres 1'")
    line_no, tokens = next_tokens("'params <d>'")
    if len(tokens) != 2 or tokens[0] != "params" or not tokens[1].removeprefix("-").isdecimal():
        raise InputError(f"line {line_no}: expected 'params <d>'")
    d = int(tokens[1])
    if d < 1:
        raise InputError(f"line {line_no}: parameter count must be positive")

    def parse_grade(line_no: int, toks) -> Tuple[int, ...]:
        if len(toks) != d:
            raise InputError(
                f"line {line_no}: expected {d} grade coordinates, got {len(toks)}"
            )
        try:
            coords = [int(t) for t in toks]
        except ValueError:
            raise InputError(f"line {line_no}: non-integer grade in {toks}") from None
        try:
            return check_grade(coords)
        except InputError as exc:
            raise InputError(f"line {line_no}: {exc}") from None

    line_no, tokens = next_tokens("'rows <n>'")
    if len(tokens) != 2 or tokens[0] != "rows" or not tokens[1].isdecimal():
        raise InputError(f"line {line_no}: expected 'rows <n>'")
    n = int(tokens[1])
    row_grades = []
    for _ in range(n):
        line_no, tokens = next_tokens("a row grade line")
        if not tokens or tokens[0] != "r":
            raise InputError(f"line {line_no}: expected 'r <grade>'")
        row_grades.append(parse_grade(line_no, tokens[1:]))

    line_no, tokens = next_tokens("'cols <m>'")
    if len(tokens) != 2 or tokens[0] != "cols" or not tokens[1].isdecimal():
        raise InputError(f"line {line_no}: expected 'cols <m>'")
    m = int(tokens[1])
    col_grades = []
    cols = []
    for _ in range(m):
        line_no, tokens = next_tokens("a column line")
        if not tokens or tokens[0] != "c" or ":" not in tokens:
            raise InputError(f"line {line_no}: expected 'c <grade> : <rows>'")
        sep = tokens.index(":")
        g = parse_grade(line_no, tokens[1:sep])
        col_grades.append(g)
        v = 0
        for tok in tokens[sep + 1 :]:
            try:
                i = int(tok)
            except ValueError:
                raise InputError(f"line {line_no}: non-integer row index {tok!r}") from None
            if not 0 <= i < n:
                raise InputError(f"line {line_no}: row index {i} outside 0..{n - 1}")
            if not leq(row_grades[i], g):
                raise InputError(
                    f"line {line_no}: entry at row {i} breaks homogeneity: "
                    f"row grade {fmt(row_grades[i])} is not <= column grade {fmt(g)}"
                )
            v |= 1 << i
        cols.append(v)

    matrix = GradedMatrix(F2Matrix(n, cols), row_grades, col_grades, d=d)
    return Presentation(matrix, case_tag=RAW)


def format_presentation(P: Presentation) -> str:
    """Serialize a presentation in the mppres format; inverse of parsing."""
    M = P.matrix
    out = ["mppres 1", f"params {M.d}", f"rows {M.n_rows}"]
    for g in M.row_grades:
        out.append("r " + " ".join(str(x) for x in g))
    out.append(f"cols {M.n_cols}")
    for g, c in zip(M.col_grades, M.mat.cols):
        rows = " ".join(map(str, bits(c)))
        out.append("c " + " ".join(str(x) for x in g) + " : " + rows)
    return "\n".join(out) + "\n"
