"""Invariants read off the summand presentations of a decomposition (``summands``).

The dimension function of a cokernel at a grade u is (generators born by
u) minus (rank of the relations born by u).  Both change only where u
crosses a grade coordinate of the presentation, so they are computed on
the grid of its distinct coordinates: generator counts by cumulative sums,
relation ranks by one left-to-right reduction per slice of that grid that
the box meets (a value of every coordinate after the first), never one rank
per point.  ``minimize`` returns a minimal presentation, so its row and
column grades are exactly the graded Betti numbers in degrees 0 and 1, and
each summand of its decomposition is minimal too.  With two parameters the
kernel of that presentation is free, so its generators are the whole of
degree 2 and the Betti tables are complete.  A Betti table is these grade
lists, sorted and indexed by degree.

A dimension function lists one value per grade of a ``GradeBox``, a
product of per-axis coordinate lists, as a flat list of ints in the C order
of ``GradeBox.grades()``.  ``default_box`` is the grid of a presentation's
distinct coordinates, whose values determine the function everywhere: at a
grade u it is 0 when u lies below the grid on some axis, and otherwise its
value at the greatest grid point <= u.  So each summand is evaluated on its
own grid, ``default_box(sub)``, which holds far fewer points than the grid
of the whole presentation.  ``GradeBox.span`` is every integer grade
between two corners.  A box of more than ``MAX_BOX_POINTS`` grades is
refused with an ``InputError`` before any per-point work starts; a
summand's own grid is capped the same way, one summand at a time.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, product
from operator import le
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
    grades = M.row_grades + M.col_grades
    if not grades:
        return GradeBox(((),) * M.d)
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


def summands(
    M: GradedMatrix, blocks: Iterable[Tuple[Sequence[int], Sequence[int]]]
) -> List[GradedMatrix]:
    """The presentation of each (rows, cols) block with rows, in block order.

    Blocks without rows present the zero module and are skipped (a minimal
    presentation has none).
    """
    return [_reindexed(M, rows, cols) for rows, cols in blocks if rows]


def persistent_betti(subs: Sequence[GradedMatrix]) -> List[List[List[Tuple[int, ...]]]]:
    """One Betti table per summand of a minimal presentation, from ``summands``.

    A table lists, by degree, the sorted grades of that degree with
    multiplicity: the rows, the columns and, with two parameters, the
    generators of the free kernel, so the table is complete.
    """
    out = []
    for sub in subs:
        table = [sorted(sub.row_grades), sorted(sub.col_grades)]
        if sub.d == 2:
            table.append(sorted(kernel_gens(sub).col_grades))
        out.append(table)
    return out


def blockcodes(subs: Sequence[GradedMatrix], boxes: Sequence[GradeBox]) -> List[List[int]]:
    """Each summand's dimension function on its own box, one box per summand.

    ``perfbench/spans.py`` times it by name.
    """
    return [dimension_function(sub, box) for sub, box in zip(subs, boxes, strict=True)]
