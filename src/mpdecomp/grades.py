"""Grades in Z^d and the orders used to schedule matrix operations.

A grade is a point of Z^d attached to a row, column, or simplex.  The
product partial order ``leq`` decides which matrix operations are legal;
``topo_order`` extends it to the total order in which the reduction
consumes rows and columns.  Equal grades are ordered by input index, which
is exactly the virtual perturbation used when ties are tolerated.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from .errors import InputError

_BOUND = 1 << 63  # coordinates are 64-bit signed integers


@dataclass(frozen=True)
class Grade:
    coords: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coords:
            raise InputError("a grade needs at least one coordinate")
        for x in self.coords:
            if not -_BOUND <= x < _BOUND:
                raise InputError(f"grade coordinate {x} outside 64-bit range")

    @property
    def d(self) -> int:
        return len(self.coords)

    def leq(self, other: "Grade") -> bool:
        return leq(self, other)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def __len__(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.coords) + ")"


def grade(*coords: int) -> Grade:
    """Shorthand constructor: grade(1, 2) == Grade((1, 2))."""
    return Grade(tuple(int(c) for c in coords))


def _same_d(a: Grade, b: Grade) -> None:
    if len(a.coords) != len(b.coords):
        raise InputError(
            f"grade dimension mismatch: {a} has {len(a.coords)} coordinates, "
            f"{b} has {len(b.coords)}"
        )


def leq(a: Grade, b: Grade) -> bool:
    """Componentwise order on Z^d; the only comparison the algebra allows."""
    _same_d(a, b)
    return all(x <= y for x, y in zip(a.coords, b.coords))


def topo_order(grades: Sequence[Grade]) -> list:
    """Permutation sorting grades lexicographically, ties by index.

    Lexicographic order extends the product order, so consuming rows and
    columns in this order never schedules an operation before its grades
    allow it.  The permutation maps position -> original index.
    """
    gs = list(grades)
    for g in gs[1:]:
        _same_d(gs[0], g)
    return sorted(range(len(gs)), key=lambda i: gs[i].coords)  # stable: ties by index


def tied_pairs(grades: Sequence[Grade]) -> list:
    """All (i, j, grade) with i < j and identical grades, for diagnostics."""
    seen: dict = {}
    out = []
    for j, g in enumerate(grades):
        if g.coords in seen:
            out.append((seen[g.coords], j, g))
        else:
            seen[g.coords] = j
    return out
