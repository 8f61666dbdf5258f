"""Bit-packed linear algebra over F2.

Columns are arbitrary-precision integers, bit i = row i, so a column
addition is one XOR and the pivot of a column is its highest set bit.
Storage is column-major; a row addition walks every column.
"""
from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import InputError


def bits(c: int) -> List[int]:
    """The set bits of c, lowest first: the rows a column meets."""
    out = []
    while c:
        low = c & -c
        out.append(low.bit_length() - 1)
        c ^= low
    return out


class F2Matrix:
    """A binary matrix stored as one int per column."""

    __slots__ = ("n_rows", "cols")

    def __init__(self, n_rows: int, cols: Optional[Sequence[int]] = None):
        if n_rows < 0:
            raise InputError(f"negative row count {n_rows}")
        self.n_rows = n_rows
        self.cols: List[int] = list(cols) if cols is not None else []
        bound = 1 << n_rows
        for j, c in enumerate(self.cols):
            if c < 0 or c >= bound:
                raise InputError(f"column {j} has bits outside {n_rows} rows")

    # -- shape and access --------------------------------------------------

    @property
    def n_cols(self) -> int:
        return len(self.cols)

    def entries(self) -> Iterator[Tuple[int, int]]:
        for j, c in enumerate(self.cols):
            for i in bits(c):
                yield i, j

    def to_dense(self) -> List[List[int]]:
        return [
            [(self.cols[j] >> i) & 1 for j in range(self.n_cols)]
            for i in range(self.n_rows)
        ]

    # -- operations --------------------------------------------------------

    def add_col(self, src: int, dst: int) -> None:
        if src == dst:
            raise InputError("column added to itself")
        self.cols[dst] ^= self.cols[src]

    def add_row(self, src: int, dst: int) -> None:
        if src == dst:
            raise InputError("row added to itself")
        m_src = 1 << src
        m_dst = 1 << dst
        for j, c in enumerate(self.cols):
            if c & m_src:
                self.cols[j] = c ^ m_dst

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "F2Matrix":
        """Rows and columns picked by index, in the given order.

        Each picked column is walked along its set bits, so the cost is
        one map over the rows plus one step per entry.  A row can be
        picked once only.
        """
        new_row = [0] * self.n_rows  # old row -> 1 << its new position, 0 if dropped
        for ii, i in enumerate(rows):
            if not 0 <= i < self.n_rows:
                raise InputError(f"row index {i} outside {self.n_rows} rows")
            if new_row[i]:
                raise InputError(f"row {i} picked twice")
            new_row[i] = 1 << ii
        out = []
        for j in cols:
            v = 0
            for i in bits(self.cols[j]):
                v |= new_row[i]
            out.append(v)
        return F2Matrix(len(rows), out)

    def copy(self) -> "F2Matrix":
        return F2Matrix(self.n_rows, self.cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, F2Matrix)
            and self.n_rows == other.n_rows
            and self.cols == other.cols
        )

    def __repr__(self) -> str:
        body = ";".join(format(c, "x") for c in self.cols)
        return f"F2Matrix({self.n_rows}x{self.n_cols}:{body})"


def col_reduce(S: F2Matrix, c: int) -> Optional[int]:
    """Express c in the span of S's columns: the combination, or None.

    None means c is independent of S.  Otherwise the returned bitmask b
    satisfies c == XOR of S.cols[j] for the set bits j of b.  The columns
    of S are reduced left to right, each against the ones before it and
    each carrying its combination over the original columns, and then c
    against them; with dependent columns in S this picks one combination.
    """
    if c < 0 or c >> S.n_rows:
        raise InputError(f"target column has bits outside {S.n_rows} rows")
    owner: dict = {}  # low -> (reduced column, its combination)
    for j, cur in enumerate(S.cols):
        comb = 1 << j
        while cur:
            lw = cur.bit_length() - 1
            if lw not in owner:
                owner[lw] = (cur, comb)
                break
            pcol, pcomb = owner[lw]
            cur ^= pcol
            comb ^= pcomb
    comb = 0
    while c:
        lw = c.bit_length() - 1
        if lw not in owner:
            return None
        pcol, pcomb = owner[lw]
        c ^= pcol
        comb ^= pcomb
    return comb
