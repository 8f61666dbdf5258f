"""Grades in Z^d and the orders used to schedule matrix operations.

A grade is a point of Z^d attached to a row, column, or simplex, held as a
tuple of ints.  ``check_grade`` admits coordinates where they enter the
program; both file formats enter through ``read_lines``, ``read_params``
and ``read_grade``, and every integer they, ``--box`` or ``--dim`` hold is
read by ``read_int``.
The product partial order ``leq`` decides which matrix operations are
legal; ``topo_order`` extends it to the total order in which the reduction
consumes rows and columns.  Equal grades are ordered by input index, which
is exactly the virtual perturbation used when ties are tolerated.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

from .errors import InputError

_BOUND = 1 << 63  # coordinates are 64-bit signed integers
MAX_PARAMS = 64  # a parameter count above it is refused as it is read


def check_grade(coords: Iterable[int]) -> Tuple[int, ...]:
    """The coordinates as a grade; refuses none or one outside 64 bits."""
    g = tuple(coords)
    if not g:
        raise InputError("a grade needs at least one coordinate")
    for x in g:
        if not -_BOUND <= x < _BOUND:
            raise InputError(f"grade coordinate {x} outside 64-bit range")
    return g


def read_lines(text: str) -> Iterator[Tuple[int, str]]:
    """(number from 1, stripped text) of each line holding more than a # comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def read_int(token: str) -> int:
    """The int a token spells as an optional '-' then decimal digits.

    Raises ValueError otherwise: unlike ``int()`` this refuses a '+', a '_'
    between digits and surrounding whitespace.  Every integer of the input
    is read by this one rule.
    """
    if not token.removeprefix("-").isdecimal():
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def read_grade(line_no: int, tokens: Sequence[str], d: int) -> Tuple[int, ...]:
    """The grade one input line's tokens spell; refusals name the line."""
    if len(tokens) != d:
        raise InputError(
            f"line {line_no}: expected {d} grade coordinates, got {len(tokens)}"
        )
    try:
        coords = [read_int(t) for t in tokens]
    except ValueError:
        raise InputError(f"line {line_no}: non-integer grade in {tokens}") from None
    try:
        return check_grade(coords)
    except InputError as exc:
        raise InputError(f"line {line_no}: {exc}") from None


def read_params(line_no: int, tokens: Sequence[str]) -> int:
    """The parameter count, 1 to MAX_PARAMS, a 'params <d>' line's tokens give."""
    if len(tokens) != 2 or tokens[0] != "params":
        raise InputError(f"line {line_no}: expected 'params <d>', got {' '.join(tokens)!r}")
    try:
        d = read_int(tokens[1])
    except ValueError:
        raise InputError(
            f"line {line_no}: parameter count {tokens[1]!r} is not an integer"
        ) from None
    if d < 1:
        raise InputError(f"line {line_no}: parameter count must be positive, got {d}")
    if d > MAX_PARAMS:
        raise InputError(
            f"line {line_no}: parameter count {d} is more than the limit of {MAX_PARAMS}"
        )
    return d


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
