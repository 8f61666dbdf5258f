"""Invariants read off a decomposed presentation.

The dimension function of a cokernel at a grade u is (generators born by
u) minus (rank of the relations born by u).  Both change only where u
crosses a grade coordinate of the presentation, so they are computed on
the grid of its distinct coordinates: generator counts by cumulative sums,
relation ranks by one left-to-right reduction per slice of that grid (a
value of every coordinate after the first), never one rank per point.
``minimize`` returns a minimal presentation, so its row and
column grades are exactly the graded Betti numbers in degrees 0 and 1, and
each summand of its decomposition is minimal too.  With two parameters the
kernel of that presentation is free, so its generators are the whole of
degree 2 and the Betti tables are complete.  A Betti table is these grade
lists, sorted and indexed by degree.

A dimension function lists one value per grade of a ``GradeBox``, a
product of per-axis coordinate lists, as a flat list of ints in the C order
of ``GradeBox.grades()``.  ``default_box`` is the grid of a presentation's
distinct coordinates, whose values determine the function everywhere;
``GradeBox.span`` is every integer grade between two corners.  A box of
more than ``MAX_BOX_POINTS`` grades is refused with an ``InputError``
before any per-point work starts.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, product
from operator import le
from typing import Dict, List, Sequence, Tuple

from .diagonalize import IndexBlock
from .errors import InputError
from .graded import GradedMatrix, _reindexed
from .grades import fmt, topo_order
from .presentation import kernel_gens

# Largest box, in grade points, that a dimension function is evaluated on.
MAX_BOX_POINTS = 1_000_000


@dataclass(frozen=True)
class GradeBox:
    """The grades of a product of increasing per-axis coordinate lists.

    A box of more than MAX_BOX_POINTS grades is refused: with three or more
    parameters even the grid of distinct coordinates grows as a power of
    the number of grades.
    """

    axes: Tuple[Sequence[int], ...]

    def __post_init__(self) -> None:
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
    plus a zero cell below the lowest one on each axis.  The dimension at a
    cell is the number of generators below it minus the rank of the
    relations below it; the box is filled by repeating each cell's value
    over the run of box points that falls in it, axis by axis, so a box
    point below or above every grade takes the value of its cell too.

    The grid is swept one slice at a time, a slice ``s`` being a cell index
    on every axis after the first (a slice through a zero cell is all
    zero).  Each row whose tail cell is ``<= s`` adds one at its head cell.
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
    points = math.prod(box.shape)
    grades = M.row_grades + M.col_grades
    if not grades or not points:
        return [0] * points
    axes = [sorted(set(col)) for col in zip(*grades)]

    def cell(g: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(map(bisect_right, axes, g))

    shape = [len(axis) + 1 for axis in axes]
    stride = math.prod(shape[1:])  # of the first axis; the rest is a slice
    rows = [cell(g) for g in M.row_grades]
    cols = [(cell(M.col_grades[j]), M.mat.cols[j]) for j in topo_order(M.col_grades)]
    out = [0] * (shape[0] * stride)
    for offset, s in enumerate(product(*(range(n) for n in shape[1:]))):
        if not all(s):
            continue
        dims = [0] * shape[0]
        for rc in rows:
            if all(map(le, rc[1:], s)):
                dims[rc[0]] += 1
        owner: Dict[int, int] = {}
        for cc, cur in cols:
            if not all(map(le, cc[1:], s)):
                continue
            while cur:
                lw = cur.bit_length() - 1
                if lw not in owner:
                    owner[lw] = cur
                    dims[cc[0]] -= 1
                    break
                cur ^= owner[lw]
        out[offset::stride] = accumulate(dims)

    # the box's coordinates on an axis fall in its cells in runs: those
    # below axis[c] and not below axis[c - 1] lie in cell c
    for k in reversed(range(len(shape))):
        coords = box.axes[k]
        ends = [bisect_left(coords, x) for x in axes[k]] + [len(coords)]
        runs = [b - a for a, b in zip([0] + ends, ends)]
        chunk = len(out) // math.prod(shape[: k + 1])
        filled: List[int] = []
        for c0 in range(0, len(out), shape[k] * chunk):
            for c, run in enumerate(runs):
                filled += out[c0 + c * chunk : c0 + (c + 1) * chunk] * run
        out = filled
    return out


def persistent_betti(
    M: GradedMatrix, blocks: Sequence[IndexBlock]
) -> List[Tuple[IndexBlock, List[List[Tuple[int, ...]]]]]:
    """One Betti table per generator-carrying block of a decomposition.

    M is ``minimize``'s output, diagonalized.  A table lists, by degree,
    the sorted grades of that degree with multiplicity: the rows, the
    columns and, with two parameters, the generators of the free kernel,
    so the table is complete.  Blocks without rows present the zero module
    and are skipped (a minimal presentation has none); every kept block has
    a nonempty degree 0.
    """
    out = []
    for block in blocks:
        if not block.rows:
            continue
        sub = _reindexed(M, block.rows, block.cols)
        table = [sorted(sub.row_grades), sorted(sub.col_grades)]
        if M.d == 2:
            table.append(sorted(kernel_gens(sub).col_grades))
        out.append((block, table))
    return out


def blockcodes(
    M: GradedMatrix, blocks: Sequence[IndexBlock], box: GradeBox
) -> List[Tuple[IndexBlock, List[int]]]:
    """(block, dimension function over the box) per block with rows."""
    return [
        (block, dimension_function(_reindexed(M, block.rows, block.cols), box))
        for block in blocks
        if block.rows
    ]
