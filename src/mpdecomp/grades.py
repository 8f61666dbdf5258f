"""Grades in Z^d and the orders used to schedule matrix operations.

A grade is a point of Z^d attached to a row, column, or simplex, held as a
tuple of ints.  ``check_grade`` admits coordinates where they enter the
program.  The product partial order ``leq`` decides which matrix
operations are legal; ``topo_order`` extends it to the total order in which
the reduction consumes rows and columns.  Equal grades are ordered by input
index, which is exactly the virtual perturbation used when ties are
tolerated.
"""
from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .errors import InputError

_BOUND = 1 << 63  # coordinates are 64-bit signed integers


def check_grade(coords: Iterable[int]) -> Tuple[int, ...]:
    """The coordinates as a grade; refuses none or one outside 64 bits."""
    g = tuple(coords)
    if not g:
        raise InputError("a grade needs at least one coordinate")
    for x in g:
        if not -_BOUND <= x < _BOUND:
            raise InputError(f"grade coordinate {x} outside 64-bit range")
    return g


def fmt(g: Sequence[int]) -> str:
    """A grade as text: fmt((1, 2)) == "(1,2)"."""
    return "(" + ",".join(map(str, g)) + ")"


def _same_d(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b):
        raise InputError(
            f"grade dimension mismatch: {fmt(a)} has {len(a)} coordinates, "
            f"{fmt(b)} has {len(b)}"
        )


def leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise order on Z^d; the only comparison the algebra allows."""
    _same_d(a, b)
    return all(x <= y for x, y in zip(a, b))


def topo_order(grades: Sequence[Tuple[int, ...]]) -> list:
    """Permutation sorting grades lexicographically, ties by index.

    Lexicographic order extends the product order, so consuming rows and
    columns in this order never schedules an operation before its grades
    allow it.  The permutation maps position -> original index.
    """
    gs = list(grades)
    if len({len(g) for g in gs}) > 1:
        for g in gs[1:]:
            _same_d(gs[0], g)  # raises at the first mismatch
    return sorted(range(len(gs)), key=gs.__getitem__)  # stable: ties by index


def tied_pairs(grades: Sequence[Tuple[int, ...]]) -> list:
    """All (i, j, grade) with i < j and identical grades, for diagnostics."""
    seen: dict = {}
    out = []
    for j, g in enumerate(grades):
        if g in seen:
            out.append((seen[g], j, g))
        else:
            seen[g] = j
    return out
