"""One-critical multi-filtered simplicial complexes and their boundaries.

File format, one simplex per line after two header lines::

    mpfilt 1
    params <d>
    s <g1> ... <gd> : <facet_id> <facet_id> ...

Simplices are implicitly numbered 0, 1, 2, ... in file order and must be
declared after their facets.  A vertex lists no facets.  Grades must be
monotone along face relations.  Each simplex appears once; multi-critical
input (the same facet set declared at several grades) is rejected, such a
filtration has to be converted to a one-critical one first (for instance
by a mapping-telescope construction).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import le
from typing import Dict, List, Tuple

from .errors import InputError
from .f2 import F2Matrix
from .graded import GradedMatrix, _trusted
from .grades import check_grade, fmt


@dataclass(frozen=True)
class Simplex:
    id: int
    grade: Tuple[int, ...]
    facets: Tuple[int, ...]  # ids of codimension-1 faces, sorted
    dim: int


@dataclass
class Filtration:
    """Simplices in declaration order, as ``parse_filtration`` builds them.

    The parser establishes what the format above asks (facets declared
    first, grades monotone along faces) and that every grade has ``d``
    coordinates that ``check_grade`` accepts.  ``boundary_matrix`` trusts
    this and checks nothing again, so build a filtration through the parser.
    """

    d: int
    simplices: List[Simplex] = field(default_factory=list)

    def by_dim(self, p: int) -> List[Simplex]:
        return [s for s in self.simplices if s.dim == p]


def _fail(line_no: int, msg: str) -> None:
    raise InputError(f"line {line_no}: {msg}")


def parse_filtration(text: str) -> Filtration:
    """Parse the mpfilt format; diagnostics carry 1-based line numbers."""
    lines = text.splitlines()
    header_seen = False
    d = None
    filt = None
    seen_facet_sets: Dict[Tuple[int, ...], int] = {}
    next_id = 0

    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not header_seen:
            if tokens != ["mpfilt", "1"]:
                _fail(line_no, f"expected header 'mpfilt 1', got {line!r}")
            header_seen = True
            continue
        if d is None:
            if len(tokens) != 2 or tokens[0] != "params":
                _fail(line_no, f"expected 'params <d>', got {line!r}")
            try:
                d = int(tokens[1])
            except ValueError:
                _fail(line_no, f"parameter count {tokens[1]!r} is not an integer")
            if d < 1:
                _fail(line_no, f"parameter count must be positive, got {d}")
            filt = Filtration(d=d)
            continue

        if tokens[0] != "s":
            _fail(line_no, f"expected a simplex line starting with 's', got {line!r}")
        if ":" not in tokens:
            _fail(line_no, "missing ':' between grade and facet list")
        sep = tokens.index(":")
        grade_tokens = tokens[1:sep]
        facet_tokens = tokens[sep + 1 :]
        if len(grade_tokens) != d:
            _fail(line_no, f"expected {d} grade coordinates, got {len(grade_tokens)}")
        try:
            coords = tuple(int(tok) for tok in grade_tokens)
        except ValueError:
            _fail(line_no, f"non-integer grade in {grade_tokens}")
        try:
            g = check_grade(coords)
        except InputError as exc:
            _fail(line_no, str(exc))
        try:
            facets = tuple(sorted(int(tok) for tok in facet_tokens))
        except ValueError:
            _fail(line_no, f"non-integer facet id in {facet_tokens}")

        if len(set(facets)) != len(facets):
            _fail(line_no, "facet listed twice")
        for f in facets:
            if not 0 <= f < next_id:
                _fail(line_no, f"facet {f} not declared before simplex {next_id}")

        if facets:
            dims = {filt.simplices[f].dim for f in facets}
            if len(dims) != 1:
                _fail(line_no, "facets of one simplex must share a dimension")
            dim = dims.pop() + 1
            if len(facets) != dim + 1:
                _fail(
                    line_no,
                    f"a {dim}-simplex needs {dim + 1} facets, got {len(facets)}",
                )
            for f in facets:
                if not all(map(le, filt.simplices[f].grade, g)):
                    _fail(
                        line_no,
                        f"grade {fmt(g)} of simplex {next_id} is not above grade "
                        f"{fmt(filt.simplices[f].grade)} of its facet {f}",
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

        filt.simplices.append(Simplex(id=next_id, grade=g, facets=facets, dim=dim))
        next_id += 1

    if not header_seen:
        raise InputError("empty input: missing 'mpfilt 1' header")
    if d is None:
        raise InputError("missing 'params <d>' line")
    return filt


def boundary_matrix(F: Filtration, p: int) -> GradedMatrix:
    """[boundary_p]: rows are (p-1)-simplices, columns are p-simplices."""
    if p < 1:
        raise InputError(f"boundary matrix needs p >= 1, got {p}")
    rows = F.by_dim(p - 1)
    cols = F.by_dim(p)
    bit = {s.id: 1 << i for i, s in enumerate(rows)}
    vecs = []
    for s in cols:
        v = 0
        for f in s.facets:
            v ^= bit[f]
        vecs.append(v)
    # parse_filtration has checked the grades and that each simplex lies
    # above its facets, so the matrix is homogeneous
    return _trusted(
        F2Matrix(len(rows), vecs),
        [s.grade for s in rows],
        [s.grade for s in cols],
        [str(s.id) for s in rows],
        [str(s.id) for s in cols],
        F.d,
    )
