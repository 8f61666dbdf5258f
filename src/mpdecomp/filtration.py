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
A plain file (no comment, blank line, CR or unsorted facet list) is decided
in bulk; any other is read line by line, and only that reader words refusals.
"""
from __future__ import annotations

import re
from itertools import chain, count, repeat
from operator import itemgetter, le, lshift, lt, or_, xor
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import InputError
from .f2 import F2Matrix
from .graded import GradedMatrix, _trusted
from .grades import MAX_PARAMS, fmt, read_grade, read_int, read_lines, read_params


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

    __slots__ = ("d", "grades", "labels", "boundaries")

    def __init__(
        self,
        d: int,
        grades: Optional[List[List[Tuple[int, ...]]]] = None,
        labels: Optional[List[List[str]]] = None,
        boundaries: Optional[List[List[int]]] = None,
    ) -> None:
        self.d = d
        self.grades = [] if grades is None else grades
        self.labels = [] if labels is None else labels
        self.boundaries = [] if boundaries is None else boundaries

    def _fields(self) -> tuple:
        return (self.d, self.grades, self.labels, self.boundaries)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Filtration:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "Filtration(d={!r}, grades={!r}, labels={!r}, boundaries={!r})".format(
            *self._fields()
        )


def _fail(line_no: int, msg: str) -> None:
    raise InputError(f"line {line_no}: {msg}")


def _read_simplex(line_no: int, line: str, d: int) -> Tuple[Tuple[int, ...], List[int]]:
    """The grade and the sorted facet ids of one simplex line, token by token."""
    tokens = line.split()
    if tokens[0] != "s":
        _fail(line_no, f"expected a simplex line starting with 's', got {line!r}")
    if ":" not in tokens:
        _fail(line_no, "missing ':' between grade and facet list")
    sep = tokens.index(":")
    g = read_grade(line_no, tokens[1:sep], d)
    facet_tokens = tokens[sep + 1 :]
    try:
        return g, sorted(map(read_int, facet_tokens))
    except ValueError:
        _fail(line_no, f"non-integer facet id in {facet_tokens}")


def _plain(d: int, group: str = "") -> str:
    """A plain simplex line: ASCII ``s``, d coordinates of at most 18 digits
    (so inside 64 bits), ``:`` and facet ids, split by spaces or tabs; the
    coordinates and the facets are groups, non-capturing if group is "?:".
    """
    return (
        rf"[ \t]*s({group}(?:[ \t]+-?[0-9]{{1,18}}){{{d}}})"
        rf"[ \t]+:({group}(?:[ \t]+[0-9]{{1,18}})*)[ \t]*"
    )


def _simplex_lines(
    text: str, after: int, d: int
) -> Iterator[Tuple[int, Tuple[int, ...], List[int]]]:
    """(line number, grade, sorted facet ids) of each simplex line after line ``after``.

    The integers of all ``_plain`` lines are read in one go: their tokens are
    what ``read_grade`` and ``read_int`` accept, with the values ``int`` gives.
    Every other line (comments, blank lines, other whitespace or digits,
    longer numbers, bad syntax) is read by ``_read_simplex``, as ever.
    """
    lines = text.splitlines()[after:]
    plain = re.compile(_plain(d)).fullmatch
    fields = list(map(plain, lines))
    vetted = list(filter(None, fields))
    coords = map(int, " ".join(map(itemgetter(1), vetted)).split())
    facets = map(sorted, map(map, repeat(int), map(str.split, map(itemgetter(2), vetted))))
    read = zip(zip(*[coords] * d), facets)
    for line_no, line, field in zip(count(after + 1), lines, fields):
        if field:
            yield (line_no, *next(read))
            continue
        line = line.split("#", 1)[0].strip()
        if line:
            yield (line_no, *_read_simplex(line_no, line, d))


def parse_filtration(text: str) -> Filtration:
    """Parse the mpfilt format; diagnostics carry 1-based line numbers.

    ``_bulk`` decides a plain file as a whole; any other text, and a plain
    file it declines, goes to ``_parse_lines``, which alone words refusals.
    """
    return _bulk(text) or _parse_lines(text)


def _bulk(text: str) -> Optional[Filtration]:
    """The filtration of a plain file that passes every check, else None.

    Plain: the exact header ``mpfilt 1``, ``params <d>``, then ``_plain``
    lines split by ``\\n`` alone.  A line of k facets claims dimension k - 1
    (0 if k = 0).  Per dimension q each check is one pass over a facet
    column: facets increasing, declared before the simplex, of dimension
    q - 1 and graded at most as it is, no facet set twice, boundaries that
    cancel.  So unsorted facets and lines of one facet are declined too.
    """
    head = re.match(r"mpfilt 1\nparams ([1-9][0-9]?)\n", text)
    if not head or int(head[1]) > MAX_PARAMS:
        return None
    d = int(head[1])
    body = text[head.end() :]
    if not re.fullmatch(rf"(?:{_plain(d, '?:')}\n)*{_plain(d, '?:')}\n?", body):
        return None
    # 's' and ':' occur only as separators: coordinates and facets alternate
    pieces = body.replace("s", ":").split(":")
    coords = list(map(int, " ".join(pieces[1::2]).split()))
    facets = list(map(str.split, pieces[2::2]))
    ks = list(map(len, facets))
    if 1 in ks:
        return None
    claimed = [k - 1 if k else 0 for k in ks]
    order = sorted(range(len(ks)), key=claimed.__getitem__)  # ids by dimension
    flat = list(map(int, chain.from_iterable(map(facets.__getitem__, order))))
    axes = [coords[a::d] for a in range(d)]
    F = Filtration(d)
    start = fstart = 0
    for q in range(max(claimed) + 1):
        end = start + claimed.count(q)
        ids = order[start:end]
        own = [list(map(ax.__getitem__, ids)) for ax in axes]
        F.grades.append(list(zip(*own)))
        F.labels.append(list(map(str, ids)))
        if not q:
            F.boundaries.append([0] * len(ids))
            start, below = end, ids
            continue
        fend = fstart + (end - start) * (q + 1)
        cols = [flat[fstart + j : fend : q + 1] for j in range(q + 1)]
        index = dict(zip(below, count()))  # (q-1)-simplex id -> position
        pos = list(map(index.get, flat[fstart:fend], repeat(-1)))
        if not (
            all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))
            and all(map(lt, cols[-1], ids))
            and min(pos, default=-1) >= 0
            and all(
                all(map(le, map(ax.__getitem__, col), mine))
                for ax, mine in zip(axes, own)
                for col in cols
            )
            and len(set(zip(*cols))) == len(ids)
        ):
            return None
        masks = closure = repeat(0)
        for j in range(q + 1):
            masks = map(or_, masks, map(lshift, repeat(1), pos[j :: q + 1]))
            closure = map(xor, closure, map(F.boundaries[q - 1].__getitem__, pos[j :: q + 1]))
        if q > 1 and any(closure):
            return None
        F.boundaries.append(list(masks))
        start, fstart, below = end, fend, ids
    return F


def _parse_lines(text: str) -> Filtration:
    """The line reader: ``_simplex_lines`` reads, then each line's checks run in order."""
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

    F = Filtration(d)
    grades, labels, boundaries = F.grades, F.labels, F.boundaries
    dim_of: List[int] = []  # per id: its dimension
    pos_of: List[int] = []  # per id: its position among the simplices of that dimension
    seen_facet_sets: Dict[Tuple[int, ...], int] = {}
    simplices = _simplex_lines(text, line_no, d)
    for next_id, (line_no, g, facets) in enumerate(simplices):
        if not facets:
            dim = boundary = 0
        else:
            if len(set(facets)) != len(facets):
                _fail(line_no, "facet listed twice")
            if facets[0] < 0 or facets[-1] >= next_id:
                f = next(f for f in facets if not 0 <= f < next_id)
                _fail(line_no, f"facet {f} not declared before simplex {next_id}")
            dims = set(map(dim_of.__getitem__, facets))
            if len(dims) != 1:
                _fail(line_no, "facets of one simplex must share a dimension")
            dim = dims.pop() + 1
            if len(facets) != dim + 1:
                _fail(
                    line_no,
                    f"a {dim}-simplex needs {dim + 1} facets, got {len(facets)}",
                )
            below = grades[dim - 1]
            below_boundaries = boundaries[dim - 1]
            boundary = 0
            closure = 0  # the boundary of the boundary, zero in a complex
            for f in facets:
                pos = pos_of[f]
                if not all(map(le, below[pos], g)):
                    _fail(
                        line_no,
                        f"grade {fmt(g)} of simplex {next_id} is not above grade "
                        f"{fmt(below[pos])} of its facet {f}",
                    )
                boundary |= 1 << pos
                closure ^= below_boundaries[pos]
            if closure:
                _fail(
                    line_no,
                    f"facets {facets} of simplex {next_id} do not close up: "
                    "their own boundaries do not cancel",
                )
            key = tuple(facets)
            if key in seen_facet_sets:
                _fail(
                    line_no,
                    f"simplex with facets {facets} already declared as id "
                    f"{seen_facet_sets[key]}; multi-critical input is not "
                    "supported, convert to a one-critical filtration first "
                    "(e.g. by a mapping telescope)",
                )
            seen_facet_sets[key] = next_id

        if dim == len(grades):
            grades.append([])
            labels.append([])
            boundaries.append([])
        dim_of.append(dim)
        pos_of.append(len(grades[dim]))
        grades[dim].append(g)
        labels[dim].append(str(next_id))
        boundaries[dim].append(boundary)
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
