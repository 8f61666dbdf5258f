from __future__ import annotations

import random
from pathlib import Path

import pytest

from mpdecomp import boundary_matrix, parse_filtration, parse_presentation
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
    # two vertices and an edge, whose boundary holds both vertices
    assert filt.labels == [["0", "1"], ["2"]]
    assert filt.boundaries == [[0, 0], [0b11]]
    assert filt.grades == [[(0, 1), (1, 0)], [(1, 1)]]


def check_boundaries(filt) -> None:
    """Composite boundary maps vanish."""
    top = len(filt.grades) - 1
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


def snapshot(M) -> tuple:
    return (M.n_rows, list(M.mat.cols), list(M.row_grades), list(M.col_grades),
            list(M.row_labels), list(M.col_labels), M.d)


def test_boundary_matrices_are_independent_of_the_filtration():
    rng = random.Random(43)
    names = ("triangle.mpfilt", "suspension.mpfilt", "k23.mpfilt")
    texts = [(DATA / name).read_text() for name in names]
    texts += [random_filtration(rng) for _ in range(50)]
    for text in texts:
        filt = parse_filtration(text)
        top = len(filt.grades) - 1
        for p in range(1, top + 1):
            M = boundary_matrix(filt, p)
            before = snapshot(M)
            if M.n_cols >= 2:
                M.mat.add_col(0, 1)
            M.row_grades.append((0,) * filt.d)
            M.col_grades.append((0,) * filt.d)
            M.row_labels.append("x")
            M.col_labels.append("y")
            assert snapshot(boundary_matrix(filt, p)) == before
        # above the top dimension: the top simplices with no cofaces, then nothing
        M = boundary_matrix(filt, top + 1)
        assert (M.n_rows, M.n_cols) == (len(filt.grades[top]), 0)
        assert M.row_grades == filt.grades[top] and M.row_labels == filt.labels[top]
        assert M.col_grades == [] and M.col_labels == [] and M.d == filt.d
        M = boundary_matrix(filt, top + 2)
        assert (M.n_rows, M.n_cols, M.d) == (0, 0, filt.d)
        assert M.row_grades == M.col_grades == M.row_labels == M.col_labels == []


def test_empty_text_is_refused_by_both_parsers():
    # the CLI refuses an input without content before either parser sees it
    for parse, message in (
        (parse_filtration, "empty input: missing 'mpfilt 1' header"),
        (parse_presentation, "unexpected end of input, expected 'mppres 1' header"),
    ):
        with pytest.raises(InputError) as info:
            parse("  # nothing\n")
        assert str(info.value) == message


# Line-level corners of the reader: what each input gave before plain ASCII
# lines got a reader of their own, kept so that both readers agree.
EDGE = [[(0, 0), (1, 0)], [(1, 1)]], [["0", "1"], ["2"]], [[0, 0], [0b11]]
H2 = "mpfilt 1\nparams 2\n"
READER_TABLE = {
    "crlf": ("mpfilt 1\r\nparams 2\r\ns 0 0 :\r\ns 1 0 :\r\ns 1 1 : 0 1\r\n", EDGE),
    "tabs": (H2 + "s\t0\t0\t:\ns 1 0\t:\ns\t1 1 :\t0\t1\n", EDGE),
    "comments": (H2 + "s 0 0 :\ns 1 0 : # a vertex\ns 1 1 : 0 1# an edge\n", EDGE),
    "blank lines": (H2 + "\n\ns 0 0 :\n   \n\t\ns 1 0 :\n\ns 1 1 : 0 1\n\n", EDGE),
    "no final newline": (H2 + "s 0 0 :\ns 1 0 :\ns 1 1 : 0 1", EDGE),
    "19-digit facet id": (H2 + "s 0 0 :\ns 1 0 :\ns 1 1 : 0000000000000000000 1\n", EDGE),
    "empty body": (H2, ([], [], [])),
    # \x0c breaks a line for splitlines, so the grade loses its ':'
    "form feed in a line": (
        H2 + "s 0 0 :\ns 1\x0c0 :\n", "line 4: missing ':' between grade and facet list"
    ),
    "form feed between lines": (
        H2 + "s 0 0 :\x0cs 1 0 :\n", ([[(0, 0), (1, 0)]], [["0", "1"]], [[0, 0]])
    ),
    "no-break space": (H2 + "s 0\xa00 :\n", ([[(0, 0)]], [["0"]], [[0]])),
    "arabic-indic three": (H2 + "s \u0663 0 :\n", ([[(3, 0)]], [["0"]], [[0]])),
    "19 digits": (H2 + "s 0000000000000000007 1 :\n", ([[(7, 1)]], [["0"]], [[0]])),
    "64-bit ends": (
        H2 + f"s {2**63 - 1} {-2**63} :\n", ([[(2**63 - 1, -2**63)]], [["0"]], [[0]])
    ),
    "2^63": (
        H2 + f"s {2**63} 0 :\n",
        "line 3: grade coordinate 9223372036854775808 outside 64-bit range",
    ),
    "-2^63-1": (
        H2 + f"s {-2**63 - 1} 0 :\n",
        "line 3: grade coordinate -9223372036854775809 outside 64-bit range",
    ),
    "-0": (
        H2 + "s -0 0 :\ns 0 -0 :\ns 0 0 : -0 1\n",
        ([[(0, 0), (0, 0)], [(0, 0)]], EDGE[1], EDGE[2]),
    ),
    "+1": (H2 + "s +1 0 :\n", "line 3: non-integer grade in ['+1', '0']"),
    "1_0": (H2 + "s 1_0 0 :\n", "line 3: non-integer grade in ['1_0', '0']"),
    "+0 facet": (
        H2 + "s 0 0 :\ns 1 0 :\ns 1 1 : +0 1\n", "line 5: non-integer facet id in ['+0', '1']"
    ),
    "-1 facet": (
        H2 + "s 0 0 :\ns 1 0 :\ns 1 1 : -1 1\n", "line 5: facet -1 not declared before simplex 2"
    ),
    "glued ':'": (H2 + "s 0 0:\n", "line 3: missing ':' between grade and facet list"),
    "short grade": (H2 + "s 0 :\n", "line 3: expected 2 grade coordinates, got 1"),
    "repeated facet": (H2 + "s 0 0 :\ns 1 0 :\ns 1 1 : 1 1\n", "line 5: facet listed twice"),
    "comment, then not monotone": (
        H2 + "s 0 0 :\n# note\ns 1 0 :\ns 0 0 : 0 1\n",
        "line 6: grade (0,0) of simplex 2 is not above grade (1,0) of its facet 1",
    ),
}


@pytest.mark.parametrize("name", list(READER_TABLE))
def test_reader_boundary_table(name):
    text, expected = READER_TABLE[name]
    if isinstance(expected, str):
        with pytest.raises(InputError) as info:
            parse_filtration(text)
        assert str(info.value) == expected
    else:
        filt = parse_filtration(text)
        assert (filt.d, filt.grades, filt.labels, filt.boundaries) == (2, *expected)
