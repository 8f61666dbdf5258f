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
degree 2 and the Betti tables are complete.

A dimension function lists one value per integer grade of a box, as a
flat list of ints in the C order of ``GradeBox.grades()``.  A box of more
than ``MAX_BOX_POINTS`` points is refused with an ``InputError`` before
any per-point work starts.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, product
from operator import le
from typing import Dict, List, Sequence, Tuple

from .diagonalize import IndexBlock
from .errors import InputError
from .graded import _reindexed
from .grades import _BOUND, check_grade, fmt, leq, topo_order
from .presentation import Presentation, kernel_gens

# Largest box, in grade points, that a dimension function is evaluated on.
MAX_BOX_POINTS = 1_000_000


@dataclass(frozen=True)
class GradeBox:
    """An axis-aligned box of grades, inclusive on both ends."""

    lo: Tuple[int, ...]
    hi: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", check_grade(self.lo))
        object.__setattr__(self, "hi", check_grade(self.hi))
        if not leq(self.lo, self.hi):
            raise InputError(f"empty box: {fmt(self.lo)} is not <= {fmt(self.hi)}")

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    def grades(self):
        return product(*(range(l, h + 1) for l, h in zip(self.lo, self.hi)))

    def check_size(self) -> None:
        """Refuse a box of more than MAX_BOX_POINTS points."""
        points = math.prod(self.shape)
        if points > MAX_BOX_POINTS:
            raise InputError(
                f"box {fmt(self.lo)}..{fmt(self.hi)} has {points} grade points, "
                f"more than the limit of {MAX_BOX_POINTS}"
            )


def default_box(P: Presentation) -> GradeBox:
    """Componentwise min of all grades up to max plus a margin of one.

    The margin stops at the largest 64-bit coordinate, 2**63 - 1.  Without
    grades the box is 0..1 on each of the d axes.
    """
    grades = P.matrix.row_grades + P.matrix.col_grades
    if not grades:
        return GradeBox((0,) * P.d, (1,) * P.d)
    axes = list(zip(*grades))
    return GradeBox(
        tuple(map(min, axes)), tuple(min(max(a) + 1, _BOUND - 1) for a in axes)
    )


def dimension_function(P: Presentation, box: GradeBox) -> List[int]:
    """Pointwise dimension of coker(P) over the box, flat in C order.

    Which grades lie below a point u depends, on each axis k, only on how
    many of the presentation's distinct k-th coordinates are <= u_k.  So
    the module is constant on the cells of the grid those coordinates span,
    plus a zero cell below the lowest one on each axis.  The dimension at a
    cell is the number of generators below it minus the rank of the
    relations below it; the box is filled by repeating each cell's value
    over the run of box points that falls in it, axis by axis.

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
    box.check_size()
    M = P.matrix
    grades = M.row_grades + M.col_grades
    if not grades:
        return [0] * math.prod(box.shape)
    axes = [sorted(set(col)) for col in zip(*grades)]
    # each axis's min and max against the box; the scan names the culprit
    if len(axes) != len(box.lo) or any(
        a[0] < l or a[-1] > h for a, l, h in zip(axes, box.lo, box.hi)
    ):
        g = next(g for g in grades if not (leq(box.lo, g) and leq(g, box.hi)))
        raise InputError(
            f"box {fmt(box.lo)}..{fmt(box.hi)} does not cover grade {fmt(g)}"
        )

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

    # the points lo..hi of an axis fall in its cells in runs
    for k in reversed(range(len(shape))):
        axis, lo, hi = axes[k], box.lo[k], box.hi[k]
        runs = [b - a for a, b in zip([lo] + axis, axis + [hi + 1])]
        chunk = len(out) // math.prod(shape[: k + 1])
        filled: List[int] = []
        for c0 in range(0, len(out), shape[k] * chunk):
            for c, run in enumerate(runs):
                filled += out[c0 + c * chunk : c0 + (c + 1) * chunk] * run
        out = filled
    return out


@dataclass
class BettiTable:
    """Multiset of (degree, grade) with the degree cap that was computed."""

    entries: Dict[Tuple[int, Tuple[int, ...]], int] = field(default_factory=dict)
    max_degree_computed: int = 1

    def add(self, degree: int, grade: Tuple[int, ...], count: int = 1) -> None:
        key = (degree, grade)
        self.entries[key] = self.entries.get(key, 0) + count

    def degree(self, j: int) -> List[Tuple[int, ...]]:
        out: List[Tuple[int, ...]] = []
        for (deg, g), cnt in self.entries.items():
            if deg == j:
                out.extend([g] * cnt)
        return sorted(out)


def restrict_presentation(P: Presentation, block: IndexBlock) -> Presentation:
    sub = _reindexed(P.matrix, block.rows, block.cols)
    return Presentation(sub, case_tag=P.case_tag, minimized=P.minimized)


def betti01(P: Presentation) -> BettiTable:
    """Degrees 0 and 1 from a minimized presentation's own grades."""
    if not P.minimized:
        raise InputError("Betti numbers need a minimized presentation")
    table = BettiTable(max_degree_computed=1)
    for g in P.matrix.row_grades:
        table.add(0, g)
    for g in P.matrix.col_grades:
        table.add(1, g)
    return table


def betti_higher_2param(P: Presentation) -> List[Tuple[int, ...]]:
    """Degree 2 for two parameters: grades of a basis of ker(P)."""
    if P.d != 2:
        raise InputError(f"degree-2 Betti numbers computed only for d == 2, have d == {P.d}")
    if not P.minimized:
        raise InputError("Betti numbers need a minimized presentation")
    return [k.grade for k in kernel_gens(P.matrix)]


def persistent_betti(
    P: Presentation, blocks: Sequence[IndexBlock]
) -> List[Tuple[IndexBlock, BettiTable]]:
    """One Betti table per generator-carrying block of a decomposition.

    Blocks without rows present the zero module and are skipped (a
    minimal presentation has none); every kept block has a nonempty
    degree 0.  With two parameters degree 2 is included and the tables
    are complete.
    """
    out = []
    for block in blocks:
        if not block.rows:
            continue
        sub = restrict_presentation(P, block)
        table = betti01(sub)
        if P.d == 2:
            for g in betti_higher_2param(sub):
                table.add(2, g)
            table.max_degree_computed = 2
        out.append((block, table))
    return out


@dataclass
class Blockcode:
    """Dimension function of one indecomposable over a shared box."""

    block: IndexBlock
    origin: Tuple[int, ...]
    shape: Tuple[int, ...]
    values: List[int]  # flat, in the C order of GradeBox.grades()


def blockcodes(
    P: Presentation, blocks: Sequence[IndexBlock], box: GradeBox
) -> List[Blockcode]:
    """One dimension function per block with rows; checks the box first."""
    box.check_size()
    out = []
    for block in blocks:
        if not block.rows:
            continue
        sub = restrict_presentation(P, block)
        values = dimension_function(sub, box)
        out.append(Blockcode(block, box.lo, box.shape, values))
    return out
