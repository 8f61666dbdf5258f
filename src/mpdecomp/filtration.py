"""One-critical multi-filtered simplicial complexes and their boundaries.

File format, one simplex per line after two header lines::

    mpfilt 1
    params <d>
    s <g1> ... <gd> : <facet_id> <facet_id> ...

Simplices are implicitly numbered 0, 1, 2, ... in file order and must be
declared after their facets.  A vertex lists no facets.  The facets of a
simplex must close up: their own boundaries cancel, as those of a
simplex's faces do.  Grades must be monotone along face relations.  Each
simplex appears once; multi-critical input (the same facet set declared at
several grades) is rejected, such a filtration has to be converted to a
one-critical one first (for instance by a mapping-telescope construction).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import le
from typing import Dict, List, Tuple

from .errors import InputError
from .f2 import F2Matrix
from .graded import GradedMatrix, _trusted
from .grades import fmt, read_grade, read_int, read_lines, read_params


@dataclass
class Filtration:
    """A filtration with ``d`` parameters, as ``parse_filtration`` builds it.

    ``grades[p]``, ``labels[p]`` and ``boundaries[p]`` list the
    p-simplices in declaration order: their grades, their ids in the file
    (as strings), and their boundaries as bitmasks, bit k standing for the
    k-th (p-1)-simplex.  Vertices have boundary 0.  The lists run up to the
    top dimension.

    The parser establishes what the format above asks (facets declared
    first and closing up, grades monotone along faces) and that every grade
    has ``d`` coordinates that ``check_grade`` accepts.  ``boundary_matrix`` trusts
    this and checks nothing again, so build a filtration through the parser.
    """

    d: int
    grades: List[List[Tuple[int, ...]]] = field(default_factory=list)
    labels: List[List[str]] = field(default_factory=list)
    boundaries: List[List[int]] = field(default_factory=list)


def _fail(line_no: int, msg: str) -> None:
    raise InputError(f"line {line_no}: {msg}")


def parse_filtration(text: str) -> Filtration:
    """Parse the mpfilt format; diagnostics carry 1-based line numbers."""
    lines = read_lines(text)
    line_no, line = next(lines, (0, ""))
    if not line:
        raise InputError("empty input: missing 'mpfilt 1' header")
    if line.split() != ["mpfilt", "1"]:
        _fail(line_no, f"expected header 'mpfilt 1', got {line!r}")
    line_no, line = next(lines, (0, ""))
    if not line:
        raise InputError("missing 'params <d>' line")
    d = read_params(line_no, line.split())

    F = Filtration(d=d)
    where: List[Tuple[int, int]] = []  # id -> (dimension, position in it)
    seen_facet_sets: Dict[Tuple[int, ...], int] = {}
    for line_no, line in lines:
        tokens = line.split()
        next_id = len(where)
        if tokens[0] != "s":
            _fail(line_no, f"expected a simplex line starting with 's', got {line!r}")
        if ":" not in tokens:
            _fail(line_no, "missing ':' between grade and facet list")
        sep = tokens.index(":")
        g = read_grade(line_no, tokens[1:sep], d)
        facet_tokens = tokens[sep + 1 :]
        try:
            facets = tuple(sorted(map(read_int, facet_tokens)))
        except ValueError:
            _fail(line_no, f"non-integer facet id in {facet_tokens}")

        if len(set(facets)) != len(facets):
            _fail(line_no, "facet listed twice")
        for f in facets:
            if not 0 <= f < next_id:
                _fail(line_no, f"facet {f} not declared before simplex {next_id}")

        boundary = 0
        if facets:
            dims = {where[f][0] for f in facets}
            if len(dims) != 1:
                _fail(line_no, "facets of one simplex must share a dimension")
            dim = dims.pop() + 1
            if len(facets) != dim + 1:
                _fail(
                    line_no,
                    f"a {dim}-simplex needs {dim + 1} facets, got {len(facets)}",
                )
            below = F.grades[dim - 1]
            closure = 0  # the boundary of the boundary, zero in a complex
            for f in facets:
                pos = where[f][1]
                if not all(map(le, below[pos], g)):
                    _fail(
                        line_no,
                        f"grade {fmt(g)} of simplex {next_id} is not above grade "
                        f"{fmt(below[pos])} of its facet {f}",
                    )
                boundary |= 1 << pos
                closure ^= F.boundaries[dim - 1][pos]
            if closure:
                _fail(
                    line_no,
                    f"facets {list(facets)} of simplex {next_id} do not close up: "
                    "their own boundaries do not cancel",
                )
            if facets in seen_facet_sets:
                _fail(
                    line_no,
                    f"simplex with facets {list(facets)} already declared as id "
                    f"{seen_facet_sets[facets]}; multi-critical input is not "
                    "supported, convert to a one-critical filtration first "
                    "(e.g. by a mapping telescope)",
                )
            seen_facet_sets[facets] = next_id
        else:
            dim = 0

        if dim == len(F.grades):
            F.grades.append([])
            F.labels.append([])
            F.boundaries.append([])
        where.append((dim, len(F.grades[dim])))
        F.grades[dim].append(g)
        F.labels[dim].append(str(next_id))
        F.boundaries[dim].append(boundary)
    return F


def boundary_matrix(F: Filtration, p: int) -> GradedMatrix:
    """[boundary_p]: rows are (p-1)-simplices, columns are p-simplices."""
    if p < 1:
        raise InputError(f"boundary matrix needs p >= 1, got {p}")

    def of_dim(lists: list, q: int) -> list:
        # a copy, since _trusted stores its lists as given; none above the top
        return list(lists[q]) if q < len(lists) else []

    # parse_filtration has checked the grades and that each simplex lies
    # above its facets, so the matrix is homogeneous
    row_grades = of_dim(F.grades, p - 1)
    return _trusted(
        F2Matrix(len(row_grades), of_dim(F.boundaries, p)),
        row_grades,
        of_dim(F.grades, p),
        of_dim(F.labels, p - 1),
        of_dim(F.labels, p),
        F.d,
    )
