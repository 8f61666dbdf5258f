from __future__ import annotations

import random
from pathlib import Path

import pytest

from mpdecomp import boundary_matrix, parse_filtration
from mpdecomp.errors import InputError
from reference import matmul

DATA = Path(__file__).resolve().parent.parent / "data"

GOOD = """
mpfilt 1
params 2
s 0 1 :
s 1 0 :
s 1 1 : 0 1
"""


def test_parse_minimal():
    filt = parse_filtration(GOOD)
    assert filt.d == 2
    assert [s.dim for s in filt.simplices] == [0, 0, 1]
    assert filt.simplices[2].facets == (0, 1)
    assert filt.simplices[2].grade == (1, 1)


def check_boundaries(filt) -> None:
    """Composite boundary maps vanish."""
    top = max((s.dim for s in filt.simplices), default=-1)
    for p in range(2, top + 1):
        product = matmul(boundary_matrix(filt, p - 1).mat, boundary_matrix(filt, p).mat)
        assert not any(product.cols), f"boundary of boundary is nonzero at dimension {p}"


def test_parse_data_files():
    for name in ("triangle.mpfilt", "suspension.mpfilt", "k23.mpfilt"):
        filt = parse_filtration((DATA / name).read_text())
        check_boundaries(filt)


def fails_with(text: str, fragment: str):
    with pytest.raises(InputError) as info:
        parse_filtration(text)
    assert fragment in str(info.value)


def test_parse_error_messages_carry_line_numbers():
    fails_with("mpfilt 2\n", "mpfilt 1")
    fails_with("mpfilt 1\nparams 0\n", "positive")
    fails_with("mpfilt 1\nparams 2\nx 0 0 :\n", "line 3")
    fails_with("mpfilt 1\nparams 2\ns 0 :\n", "expected 2 grade coordinates")
    fails_with("mpfilt 1\nparams 2\ns 0 0\n", "missing ':'")
    fails_with("mpfilt 1\nparams 2\ns 0 0 : 5\n", "not declared")
    fails_with("", "empty input")
    fails_with("mpfilt 1\n", "params")


def test_facet_count_must_match_dimension():
    fails_with(
        "mpfilt 1\nparams 2\ns 0 0 :\ns 0 0 :\ns 0 0 :\ns 1 1 : 0 1 2\n",
        "facets",
    )


def test_grade_monotonicity_enforced():
    fails_with(
        "mpfilt 1\nparams 2\ns 1 1 :\ns 0 0 :\ns 0 0 : 0 1\n",
        "not above",
    )


def test_grade_monotonicity_checks_every_coordinate():
    # the edge lies above its facets on one axis but not on the other
    for edge in ("2 0", "0 2"):
        fails_with(
            f"mpfilt 1\nparams 2\ns 0 1 :\ns 1 0 :\ns {edge} : 0 1\n",
            "not above",
        )


def test_duplicate_facet_set_rejected_with_hint():
    text = (
        "mpfilt 1\nparams 2\ns 0 0 :\ns 0 0 :\n"
        "s 0 1 : 0 1\ns 1 0 : 0 1\n"
    )
    fails_with(text, "one-critical")
    fails_with(text, "already declared")


def test_mixed_facet_dimensions_rejected():
    text = (
        "mpfilt 1\nparams 2\ns 0 0 :\ns 0 0 :\ns 0 0 : 0 1\n"
        "s 1 1 : 0 2\n"
    )
    fails_with(text, "share a dimension")


def test_boundary_matrix_shape_and_grades():
    filt = parse_filtration((DATA / "triangle.mpfilt").read_text())
    d1 = boundary_matrix(filt, 1)
    assert d1.n_rows == 3 and d1.n_cols == 3
    assert d1.row_grades == [(0, 1), (1, 0), (1, 1)]
    assert d1.col_grades == [(1, 1), (1, 2), (2, 1)]
    assert d1.mat.to_dense() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert d1.row_labels == ["0", "1", "2"]
    with pytest.raises(InputError):
        boundary_matrix(filt, 0)


def random_filtration(rng: random.Random) -> str:
    """Random small 1-critical complex in file form; used by replay tests."""
    n_vert = rng.randint(2, 5)
    lines = ["mpfilt 1", "params 2"]
    grades = []
    for _ in range(n_vert):
        g = (rng.randint(0, 2), rng.randint(0, 2))
        grades.append(g)
        lines.append(f"s {g[0]} {g[1]} :")
    edges = {}
    for a in range(n_vert):
        for b in range(a + 1, n_vert):
            if rng.random() < 0.6:
                g = (
                    max(grades[a][0], grades[b][0]) + rng.randint(0, 1),
                    max(grades[a][1], grades[b][1]) + rng.randint(0, 1),
                )
                edges[(a, b)] = (len(grades) + len(edges), g)
                lines.append(f"s {g[0]} {g[1]} : {a} {b}")
    for (a, b), _ in list(edges.items()):
        for c in range(b + 1, n_vert):
            if (a, c) in edges and (b, c) in edges and rng.random() < 0.5:
                ids = [edges[(a, b)][0], edges[(a, c)][0], edges[(b, c)][0]]
                gs = [edges[(a, b)][1], edges[(a, c)][1], edges[(b, c)][1]]
                g = (
                    max(x[0] for x in gs) + rng.randint(0, 1),
                    max(x[1] for x in gs) + rng.randint(0, 1),
                )
                lines.append(f"s {g[0]} {g[1]} : {ids[0]} {ids[1]} {ids[2]}")
    return "\n".join(lines) + "\n"


def test_boundary_of_boundary_vanishes_on_random_complexes():
    rng = random.Random(41)
    for _ in range(200):
        filt = parse_filtration(random_filtration(rng))
        check_boundaries(filt)
