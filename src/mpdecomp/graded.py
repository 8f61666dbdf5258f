"""Graded binary matrices and the operations their grades admit.

A graded matrix couples an F2Matrix with one grade per row and column.
Homogeneity (every 1 sits where row grade <= column grade) is the data
invariant everything else relies on.  It is checked where data enters the
program: the two file parsers check grades and entries line by line,
``--box`` is checked by the CLI, and ``GradedMatrix(...)`` called by a
library user checks shapes, grades, labels and homogeneity.  The two
addition operations only accept grade-compatible pairs, so the invariant
is preserved by use.

Matrices that are valid by construction skip the checks through
``_trusted``: a parsed presentation, the boundary matrices of a parsed
filtration, the generator matrices of ``kernel_gens`` (cycles and their
syzygies), the boundaries rewritten over the cycles, the presentation
``pres_dparam`` assembles from them, and the copies and re-indexings of a
checked matrix (``_reindexed``).  The tests assert the invariant on every
such builder's output.
"""
from __future__ import annotations

from operator import le
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError
from .f2 import F2Matrix, bits
from .grades import check_grade, fmt, leq, threshold_masks, topo_order


class GradedMatrix:
    """A binary matrix with a grade per row and column, all in Z^d.

    Grades are checked with ``check_grade`` and stored as tuples.  ``d``
    may be left out when there is at least one grade; a matrix without
    grades keeps the parameter count it is given.  Labels left out are
    ``r0, r1, ...`` and ``c0, c1, ...``.  Two matrices are equal when all
    six fields are.
    """

    __slots__ = ("mat", "row_grades", "col_grades", "row_labels", "col_labels", "d")

    def __init__(
        self,
        mat: F2Matrix,
        row_grades: Sequence[Tuple[int, ...]],
        col_grades: Sequence[Tuple[int, ...]],
        row_labels: Sequence[str] = (),
        col_labels: Sequence[str] = (),
        d: Optional[int] = None,
    ) -> None:
        if len(row_grades) != mat.n_rows:
            raise InputError(f"{mat.n_rows} rows but {len(row_grades)} row grades")
        if len(col_grades) != mat.n_cols:
            raise InputError(f"{mat.n_cols} columns but {len(col_grades)} column grades")
        self.mat = mat
        self.row_grades = [check_grade(g) for g in row_grades]
        self.col_grades = [check_grade(g) for g in col_grades]
        grades = self.row_grades + self.col_grades
        if d is None:
            if not grades:
                raise InputError("a matrix without grades needs its parameter count d")
            d = len(grades[0])
        self.d = d
        if any(len(g) != d for g in grades):
            raise InputError("mixed grade dimensions in one matrix")
        self.row_labels = list(row_labels) or [f"r{i}" for i in range(mat.n_rows)]
        self.col_labels = list(col_labels) or [f"c{j}" for j in range(mat.n_cols)]
        if len(self.row_labels) != mat.n_rows:
            raise InputError("row label count does not match rows")
        if len(self.col_labels) != mat.n_cols:
            raise InputError("column label count does not match columns")
        self.validate_homogeneity()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not GradedMatrix:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"GradedMatrix({fields})"

    @property
    def n_rows(self) -> int:
        return self.mat.n_rows

    @property
    def n_cols(self) -> int:
        return self.mat.n_cols

    def validate_homogeneity(self) -> None:
        """Every nonzero entry must satisfy row grade <= column grade."""
        # the constructor has checked that all grades share one d
        rows, cols = self.row_grades, self.col_grades
        for i, j in self.mat.entries():
            if not all(map(le, rows[i], cols[j])):
                raise InputError(
                    f"entry ({i},{j}) is 1 but row grade "
                    f"{fmt(rows[i])} is not <= column grade {fmt(cols[j])}"
                )

    # -- grade-checked operations -------------------------------------------

    def add_col(self, src: int, dst: int) -> None:
        """Add column src into dst; needs grade(src) <= grade(dst)."""
        if src == dst or not leq(self.col_grades[src], self.col_grades[dst]):
            raise InputError(
                f"column addition {src}->{dst} not allowed: "
                f"{fmt(self.col_grades[src])} vs {fmt(self.col_grades[dst])}"
            )
        self.mat.add_col(src, dst)

    def add_row(self, src: int, dst: int) -> None:
        """Add row src into dst; needs grade(dst) <= grade(src)."""
        if src == dst or not leq(self.row_grades[dst], self.row_grades[src]):
            raise InputError(
                f"row addition {src}->{dst} not allowed: "
                f"{fmt(self.row_grades[src])} vs {fmt(self.row_grades[dst])}"
            )
        self.mat.add_row(src, dst)

    def copy(self) -> "GradedMatrix":
        return _reindexed(self, range(self.n_rows), range(self.n_cols), self.mat.copy())


class AdmissibleOps(NamedTuple):
    """The strictly-ordered operation menu of one graded matrix, as bitmasks.

    Bit i of col_mask[j] is set when column i may be added into column j,
    which needs grade(c_i) <= grade(c_j).  Bit l of row_mask[k] is set when
    row l may be added into row k, which needs grade(r_k) <= grade(r_l);
    the source row carries the larger grade.  Equal grades are ordered by
    index (the virtual perturbation), so both relations are irreflexive,
    transitively closed and acyclic.  A caller intersects a mask with the
    indices it can use and walks the set bits of the result.

    ``admissible_ops`` builds each mask without comparing pairs of grades.
    Topo order is lexicographic with ties by index, so a column that
    precedes j in it has a first coordinate no larger than j's; AND that
    prefix with, for every later axis, the columns whose coordinate there
    is <= j's, and what is left is exactly the columns strictly below j.
    Rows take the suffix of row k and the coordinates >= k's.  That is one
    cumulative mask per position and per distinct value of each axis.
    """

    col_mask: Tuple[int, ...]
    row_mask: Tuple[int, ...]

    def col_sources(self, j: int) -> Tuple[int, ...]:
        """The columns that may be added into column j, ascending."""
        return tuple(bits(self.col_mask[j]))

    def row_sources(self, k: int) -> Tuple[int, ...]:
        """The rows that may be added into row k, ascending."""
        return tuple(bits(self.row_mask[k]))


def _strict_masks(grades: Sequence[Tuple[int, ...]], d: int, up: bool) -> List[int]:
    """Per index, the indices strictly below it (above if up): see AdmissibleOps."""
    order = topo_order(grades)
    masks = [0] * len(order)
    seen = 0
    for i in reversed(order) if up else order:
        masks[i] = seen
        seen |= 1 << i
    for k in range(1, d):
        within = threshold_masks([g[k] for g in grades], up)
        for i, g in enumerate(grades):
            masks[i] &= within[g[k]]
    return masks


def admissible_ops(M: GradedMatrix) -> AdmissibleOps:
    # row l feeds row k when row k lies strictly below row l
    return AdmissibleOps(
        col_mask=tuple(_strict_masks(M.col_grades, M.d, up=False)),
        row_mask=tuple(_strict_masks(M.row_grades, M.d, up=True)),
    )


def sort_by_grade(M: GradedMatrix) -> GradedMatrix:
    """M with rows and columns permuted into topo order.

    Row i of the result is row ``topo_order(M.row_grades)[i]`` of M, and
    likewise for columns.
    """
    return _reindexed(M, topo_order(M.row_grades), topo_order(M.col_grades))


def _reindexed(
    M: GradedMatrix,
    rows: Sequence[int],
    cols: Sequence[int],
    mat: Optional[F2Matrix] = None,
) -> GradedMatrix:
    """M's rows and columns picked by index, without re-validation.

    ``mat`` holds the picked entries, by default ``M.mat.submatrix(rows,
    cols)``.  A caller may pass grade-compatible column sums of M's
    entries instead, as ``minimize`` does.  Either way the result is
    homogeneous because M is, and the checks of the constructor would only
    repeat what M passed.
    """
    return _trusted(
        M.mat.submatrix(rows, cols) if mat is None else mat,
        [M.row_grades[i] for i in rows],
        [M.col_grades[j] for j in cols],
        [M.row_labels[i] for i in rows],
        [M.col_labels[j] for j in cols],
        M.d,
    )


def _trusted(
    mat: F2Matrix,
    row_grades: List[Tuple[int, ...]],
    col_grades: List[Tuple[int, ...]],
    row_labels: List[str],
    col_labels: List[str],
    d: int,
) -> GradedMatrix:
    """A graded matrix its builder knows to be valid, without the checks.

    The caller vouches for everything the constructor would check: one
    grade and one label per row and column, grades that ``check_grade``
    accepts and that all have ``d`` coordinates, and homogeneity.  The
    lists are stored as given, not copied.
    """
    out = object.__new__(GradedMatrix)
    out.mat = mat
    out.row_grades = row_grades
    out.col_grades = col_grades
    out.row_labels = row_labels
    out.col_labels = col_labels
    out.d = d
    return out
