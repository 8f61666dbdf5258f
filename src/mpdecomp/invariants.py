"""Invariants of the summands of a decomposition.

``persistent_betti`` and ``blockcodes`` read a diagonalized matrix and its
blocks, the output of ``tot_diagonalize``.  ``minimize`` returns a minimal
presentation, so its row and column grades are exactly the graded Betti
numbers in degrees 0 and 1, and each summand of its decomposition is
minimal too.  With two parameters the kernel of that presentation is free,
so its generators are the whole of degree 2 and the Betti tables are
complete.  One ``kernel_gens`` sweep of the whole diagonalized matrix
gives every summand's kernel at once, each generator going to the block
whose columns it sums.  A Betti table is these grade lists, sorted and
indexed by degree.

The dimension function of a cokernel at a grade u is (generators born by
u) minus (rank of the relations born by u).  With two parameters the
table is the whole free resolution, so it is also the alternating count
beta0(<= u) - beta1(<= u) + beta2(<= u), which ``blockcodes`` reads off
the table by cumulative sums, with no reduction.  With one parameter, or
three or more, where the table stops at degree 1, it runs
``dimension_function`` on the summand's presentation: generator counts by
cumulative sums, relation ranks by one left-to-right reduction per slice
of the grid of distinct coordinates that the box meets (a value of every
coordinate after the first), never one rank per point.

A dimension function lists one value per grade of a ``GradeBox``, a
product of per-axis coordinate lists, as a flat list of ints in the C order
of ``GradeBox.grades()``.  ``default_box`` is the grid of a presentation's
distinct coordinates, whose values determine the function everywhere: at a
grade u it is 0 when u lies below the grid on some axis, and otherwise its
value at the greatest grid point <= u.  So each summand is evaluated on its
own grid, the distinct coordinates of its table's degrees 0 and 1
(``grade_grid``), which holds far fewer points than the grid of the whole
presentation.  ``GradeBox.span`` is every integer grade between two
corners.  A box of more than ``MAX_BOX_POINTS`` grades is refused with an
``InputError`` before any per-point work starts; a summand's own grid is
capped the same way, one summand at a time.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, product
from operator import add, le
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import InputError
from .f2 import reduce_into
from .graded import GradedMatrix, _reindexed
from .grades import fmt, topo_order
from .presentation import kernel_gens

# Largest box, in grade points, that a dimension function is evaluated on.
MAX_BOX_POINTS = 1_000_000


class GradeBox:
    """The grades of a product of increasing per-axis coordinate lists.

    A box of more than MAX_BOX_POINTS grades is refused: with three or more
    parameters even the grid of distinct coordinates grows as a power of
    the number of grades.  Two boxes are equal when their axes are.
    """

    __slots__ = ("axes",)

    def __init__(self, axes: Tuple[Sequence[int], ...]) -> None:
        self.axes = axes
        points = math.prod(self.shape)
        if points > MAX_BOX_POINTS:
            raise InputError(
                f"grid of {'x'.join(map(str, self.shape))} has {points} grade points, "
                f"more than the limit of {MAX_BOX_POINTS}"
            )

    @classmethod
    def span(cls, lo: Sequence[int], hi: Sequence[int]) -> "GradeBox":
        """Every integer grade from lo to hi, each axis a range.

        The limit is checked from the corners, before any range is built,
        so a runaway box costs nothing.
        """
        points = math.prod(max(h - l + 1, 0) for l, h in zip(lo, hi))
        if points > MAX_BOX_POINTS:
            raise InputError(
                f"box {fmt(lo)}..{fmt(hi)} has {points} grade points, "
                f"more than the limit of {MAX_BOX_POINTS}"
            )
        return cls(tuple(range(l, h + 1) for l, h in zip(lo, hi)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not GradeBox:
            return NotImplemented
        return self.axes == other.axes

    def __hash__(self) -> int:
        return hash(self.axes)

    def __repr__(self) -> str:
        return f"GradeBox(axes={self.axes!r})"

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(map(len, self.axes))

    def grades(self):
        return product(*self.axes)


def default_box(M: GradedMatrix) -> GradeBox:
    """The distinct coordinates of M's grades on each axis.

    Every axis is empty when M has no grades.
    """
    return grade_grid(M.row_grades + M.col_grades, M.d)


def grade_grid(grades: Sequence[Tuple[int, ...]], d: int) -> GradeBox:
    """The distinct coordinates of d-parameter grades on each axis.

    A summand's own grid is ``grade_grid(table[0] + table[1], d)``.
    """
    if not grades:
        return GradeBox(((),) * d)
    return GradeBox(tuple(sorted(set(axis)) for axis in zip(*grades)))


def dimension_function(M: GradedMatrix, box: GradeBox) -> List[int]:
    """Pointwise dimension of coker(M) over the box, flat in C order.

    Which grades lie below a point u depends, on each axis k, only on how
    many of the presentation's distinct k-th coordinates are <= u_k.  So
    the module is constant on the cells of the grid those coordinates span,
    plus a zero cell below the lowest one on each axis.  Each box
    coordinate is mapped to its cell, so a box point below or above every
    grade takes the value of its cell too.  The dimension at a cell is the
    number of generators below it minus the rank of the relations below it.

    A slice ``s`` is a cell index on every axis after the first (a slice
    through a zero cell is all zero), and only the slices that the box's
    coordinates fall in are swept, so the work follows the box, not the
    grid.  Each row whose tail cell is ``<= s`` adds one at its head cell.
    The columns whose tail cell is ``<= s`` are reduced left to right in
    topo order, and each column that claims a new pivot subtracts one at
    its head cell.  Topo order is lexicographic, so the columns with head
    ``<= x`` are a prefix of that pass, and a cumulative sum along the
    first axis gives the dimension at every ``(x, s)`` (the argument of
    ``kernel_gens``).  That is one reduction of the slice's columns per
    slice instead of one rank per cell.
    """
    if len(box.axes) != M.d:
        raise InputError(f"box has {len(box.axes)} axes but M has {M.d} parameters")
    grades = M.row_grades + M.col_grades
    if not grades:
        return [0] * math.prod(box.shape)
    axes = [sorted(set(col)) for col in zip(*grades)]

    def cell(g: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(map(bisect_right, axes, g))

    rows = [cell(g) for g in M.row_grades]
    cols = [(cell(M.col_grades[j]), M.mat.cols[j]) for j in topo_order(M.col_grades)]
    cells = [[bisect_right(a, x) for x in coords] for a, coords in zip(axes, box.axes)]
    values: Dict[Tuple[int, ...], List[int]] = {}  # per slice, along the first axis
    for s in product(*map(set, cells[1:])):
        dims = [0] * (len(axes[0]) + 1)
        if all(s):
            for rc in rows:
                if all(map(le, rc[1:], s)):
                    dims[rc[0]] += 1
            pivots: Dict[int, int] = {}
            for cc, c in cols:
                if all(map(le, cc[1:], s)) and reduce_into(pivots, c):
                    dims[cc[0]] -= 1
        values[s] = list(accumulate(dims))
    tails = [values[s] for s in product(*cells[1:])]
    return [v[x] for x in cells[0] for v in tails]


Blocks = Iterable[Tuple[Sequence[int], Sequence[int]]]  # (rows, cols) index pairs
Table = List[List[Tuple[int, ...]]]  # a Betti table: sorted grades per degree


def summands(M: GradedMatrix, blocks: Blocks) -> List[GradedMatrix]:
    """The presentation of each (rows, cols) block with rows, in block order.

    Blocks without rows present the zero module and are skipped (a minimal
    presentation has none).
    """
    return [_reindexed(M, rows, cols) for rows, cols in blocks if rows]


def persistent_betti(M: GradedMatrix, blocks: Blocks) -> List[Table]:
    """One Betti table per block with rows of M, in block order.

    M is a diagonalized minimal presentation and ``blocks`` its (rows,
    cols) blocks, so the tables pair with ``summands(M, blocks)``.  A table
    lists, by degree, the sorted grades of that degree with multiplicity:
    the block's rows, its columns and, with two parameters, the generators
    of its summand's free kernel, so the table is complete.

    Those generators come from one ``kernel_gens`` sweep of M.  Its echelon
    reduces a column only against the owners of the column's rows, which
    are columns of the same block, so each relation sums the columns of one
    block and is born where that block's summand alone gives it.  A
    relation on a block without rows (a zero column) belongs to no summand
    and is dropped.
    """
    rg, cg = M.row_grades, M.col_grades
    live = [(rows, cols) for rows, cols in blocks if rows]
    tables = [[sorted(rg[i] for i in rows), sorted(cg[j] for j in cols)] for rows, cols in live]
    if M.d == 2:
        kernel_of: Dict[int, List[Tuple[int, ...]]] = {}  # column -> its block's degree 2
        for table, (_, cols) in zip(tables, live):
            table.append([])
            kernel_of.update(dict.fromkeys(cols, table[2]))
        Z = kernel_gens(M)
        # Z's columns come in grade order, so each block's list stays sorted
        for z, g in zip(Z.mat.cols, Z.col_grades):
            target = kernel_of.get((z & -z).bit_length() - 1)
            if target is not None:
                target.append(g)
    return tables


def _euler_values(table: Table, box: GradeBox) -> List[int]:
    """beta0(<= u) - beta1(<= u) + beta2(<= u) at every grade u of a 2-axis box.

    Each grade puts its sign on the first box point at or above it on each
    axis (``bisect_left``); a grade above the box on some axis reaches none
    of its points.  Cumulative sums along the second axis, then the first,
    spread each sign over every box point above its grade.  Flat in C order.
    """
    xs, ys = box.axes
    width = len(ys)
    cells = [0] * (len(xs) * width)
    for sign, grades in zip((1, -1, 1), table):
        for x, y in grades:
            i, j = bisect_left(xs, x), bisect_left(ys, y)
            if i < len(xs) and j < width:
                cells[i * width + j] += sign
    out: List[int] = []
    below = [0] * width  # the values of the previous box row
    for start in range(0, len(cells), width or 1):
        below = list(map(add, below, accumulate(cells[start : start + width])))
        out += below
    return out


def blockcodes(
    M: GradedMatrix, blocks: Blocks, tables: Sequence[Table], boxes: Sequence[GradeBox]
) -> List[List[int]]:
    """Each summand's dimension function on its own box, one box per table.

    ``tables`` is ``persistent_betti(M, blocks)``.  With two parameters
    each value is read off the table (``_euler_values``); otherwise each
    summand's presentation is built and swept by ``dimension_function``.
    ``perfbench/spans.py`` times it by name.
    """
    if M.d == 2:
        return [_euler_values(t, box) for t, box in zip(tables, boxes, strict=True)]
    subs = summands(M, blocks)
    return [dimension_function(sub, box) for sub, box in zip(subs, boxes, strict=True)]
