"""Bit-packed linear algebra over F2.

Columns are arbitrary-precision integers, bit i = row i, so a column
addition is one XOR and the pivot of a column is its highest set bit.
Storage is column-major; a row addition walks every column.

There are two elimination loops.  ``reduce_into`` serves every reduction
that adds columns in a fixed order: here and in the invariants layer.
``echelon_insert`` serves the chain sweeps of ``kernel_gens`` and
``minimize``, whose columns join one echelon out of order.  A caller that
needs the combination a vector stands for packs it into the bits below
``low``, the vector itself above them, so the combination rides along and
the pivot is still the vector's own highest bit.
"""
from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import InputError


def bits(c: int) -> List[int]:
    """The set bits of c, lowest first: the rows a column meets."""
    out = []
    while c:
        low = c & -c
        out.append(low.bit_length() - 1)
        c ^= low
    return out


def remap(c: int, to: Union[Sequence[int], Mapping[int, int]]) -> int:
    """c relabelled bit by bit: the OR of to[i] over the set bits i of c."""
    v = 0
    while c:
        low = c & -c
        v |= to[low.bit_length() - 1]
        c ^= low
    return v


class F2Matrix:
    """A binary matrix stored as one int per column."""

    __slots__ = ("n_rows", "cols")

    def __init__(self, n_rows: int, cols: Optional[Sequence[int]] = None):
        if n_rows < 0:
            raise InputError(f"negative row count {n_rows}")
        self.n_rows = n_rows
        self.cols: List[int] = list(cols) if cols is not None else []
        bound = 1 << n_rows
        for c in self.cols:
            if c < 0 or c >= bound:  # no earlier column holds this value
                raise InputError(f"column {self.cols.index(c)} has bits outside {n_rows} rows")

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
        return F2Matrix(len(rows), [remap(self.cols[j], new_row) for j in cols])

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


def reduce_into(pivots: Dict[int, int], c: int, low: int = 0) -> int:
    """Reduce c against pivots, a dict from a highest set bit to its owner.

    What is left of c at or above bit ``low`` is reduced until its highest
    bit is owned by no pivot; a nonzero leftover there becomes a new pivot.
    Returns the residue.  Bits below ``low`` never choose a pivot, so the
    residue is zero at and above ``low`` exactly when c lies in the span of
    the pivots, and its bits below ``low`` then hold what was packed there.
    """
    lw = c.bit_length() - 1
    while lw >= low:
        p = pivots.get(lw)
        if p is None:
            pivots[lw] = c
            break
        c ^= p
        lw = c.bit_length() - 1
    return c


def echelon_insert(
    owner: Dict[int, int], reduced: List[int], pos: int, v: int, low: int = 0
) -> Optional[Tuple[int, int]]:
    """Insert column pos, as vector v, into an echelon ordered by position.

    ``owner`` maps a pivot bit (at or above ``low``) to the column owning it
    and ``reduced[p]`` holds column p's vector, 0 for a column owning none.
    A column reduces against the owners before it; where a later column
    owns the pivot bit, the earlier one takes that bit and the later owner
    goes on in its place.  So the echelon stays the reduction of its
    columns in position order, whatever order they join in.

    Returns None, or the ``(column, residue)`` of the one column left with
    nothing at or above ``low``: it lies in the span of the columns before
    it, and its residue holds what was packed below ``low``.
    """
    cur = pos
    while True:
        lw = v.bit_length() - 1
        if lw < low:
            reduced[cur] = 0
            return cur, v
        held = owner.get(lw)
        if held is None:
            owner[lw] = cur
            reduced[cur] = v
            return None
        if held < cur:
            v ^= reduced[held]
        else:  # cur takes the bit; the later owner goes on in its place
            owner[lw] = cur
            reduced[cur], cur, v = v, held, reduced[held] ^ v


def col_reduce(S: F2Matrix, c: int) -> Optional[int]:
    """Express c in the span of S's columns: the combination, or None.

    None means c is independent of S.  Otherwise the returned bitmask b
    satisfies c == XOR of S.cols[j] for the set bits j of b.  With n
    columns, column j is reduced as ``(S.cols[j] << n) | (1 << j)``, its
    combination over the original columns in the low n bits, left to right,
    and then ``c << n`` against them; with dependent columns in S this picks
    one combination.
    """
    if c < 0 or c >> S.n_rows:
        raise InputError(f"target column has bits outside {S.n_rows} rows")
    n = len(S.cols)
    pivots: Dict[int, int] = {}
    for j, col in enumerate(S.cols):
        reduce_into(pivots, (col << n) | (1 << j), n)
    comb = reduce_into(pivots, c << n, n)
    return None if comb.bit_length() > n else comb
