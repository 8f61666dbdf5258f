from __future__ import annotations

import random
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from mpdecomp import (
    F2Matrix,
    GradedMatrix,
    boundary_matrix,
    format_presentation,
    kernel_gens,
    leq,
    minimize,
    parse_filtration,
    parse_presentation,
    pres_2param,
    pres_dparam,
    pres_h0,
    rewrite_in_basis,
    topo_order,
)
from mpdecomp.errors import InputError, InternalCheckError
from mpdecomp.f2 import bits
from mpdecomp.grades import check_grade
from mpdecomp.presentation import _cycles
from reference import from_dense, rewrite_by_elimination, row_echelon_rank, slice_kernel_gens
from test_certificate_output_identity import random_mpfilt

DATA = Path(__file__).resolve().parent.parent / "data"


def load(name: str):
    return parse_filtration((DATA / name).read_text())


# -- kernel computation -------------------------------------------------------


def test_kernel_basis_of_triangle_boundary():
    d1 = boundary_matrix(load("triangle.mpfilt"), 1)
    basis = kernel_gens(d1)
    assert basis.n_cols == 1
    assert basis.col_grades[0] == (2, 2)
    assert basis.mat.cols[0] == 0b111  # the full cycle br+bg+rg


def test_kernel_genset_registers_multiple_minimal_grades():
    d1 = boundary_matrix(load("k23.mpfilt"), 1)
    gens = kernel_gens(d1)
    assert gens_key(gens) == [
        ((0, 1, 1), 0b001111),
        ((1, 0, 1), 0b110011),
        ((1, 1, 0), 0b111100),
    ]


def test_basis_paths_require_two_parameters():
    # kernel generators form a basis only with two parameters, so the
    # construction that relies on one refuses other parameter counts
    filt = load("k23.mpfilt")
    with pytest.raises(InputError):
        pres_2param(filt, 1)


def random_graded_cols(rng: random.Random, d: int = 2, m_max: int = 6) -> GradedMatrix:
    n = rng.randint(1, 5)
    m = rng.randint(1, m_max)
    rows = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(n)]
    cols = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(m)]
    dense = [
        [rng.randint(0, 1) if leq(rows[i], cols[j]) else 0 for j in range(m)]
        for i in range(n)
    ]
    return GradedMatrix(from_dense(dense), rows, cols)


def gradewise_nullity(M: GradedMatrix, u) -> int:
    """Independent oracle: nullity of the active submatrix at u."""
    active = [j for j in range(M.n_cols) if leq(M.col_grades[j], u)]
    if not active:
        return 0
    dense = np.array(M.mat.to_dense(), dtype=np.uint8)[:, active]
    return len(active) - row_echelon_rank(dense)


def kernel_rank_at(M: GradedMatrix, gens: GradedMatrix, u) -> int:
    vecs = [z for g, z in gens_key(gens) if leq(g, u)]
    if not vecs:
        return 0
    dense = np.zeros((len(vecs), M.n_cols), dtype=np.uint8)
    for r, v in enumerate(vecs):
        for j in range(M.n_cols):
            dense[r, j] = (v >> j) & 1
    return row_echelon_rank(dense)


def grid_points(M: GradedMatrix):
    axes = [sorted({g[k] for g in M.col_grades}) for k in range(M.d)]
    for point in product(*axes):
        yield tuple(point)


def assert_kernel_sound_and_complete(M: GradedMatrix):
    gens = kernel_gens(M)
    for g, z in gens_key(gens):
        # soundness: the recorded combination really is a cycle at its grade
        acc = 0
        for j in range(M.n_cols):
            if (z >> j) & 1:
                assert leq(M.col_grades[j], g)
                acc ^= M.mat.cols[j]
        assert acc == 0
    for u in grid_points(M):
        assert kernel_rank_at(M, gens, u) == gradewise_nullity(M, u)
    if M.d == 2:
        # with two parameters the generators are a basis: globally independent
        top = tuple(max(g[k] for g in M.col_grades) for k in range(M.d))
        assert kernel_rank_at(M, gens, top) == gens.n_cols


def test_kernel_sound_complete_2param_random():
    rng = random.Random(101)
    for _ in range(300):
        assert_kernel_sound_and_complete(random_graded_cols(rng))


def test_kernel_sound_complete_dparam_random():
    rng = random.Random(103)
    for _ in range(150):
        assert_kernel_sound_and_complete(random_graded_cols(rng, d=3))
    for _ in range(150):
        assert_kernel_sound_and_complete(random_graded_cols(rng, d=2))


def per_point_kernel_gens(M: GradedMatrix, first_only: bool = False):
    """Reference sweep: re-reduce every active column at every grid point.

    This is the construction ``kernel_gens`` replaced with its slice sweep;
    it is kept here to pin the generators, their grades and their order.
    A column is recorded at every minimal grade where it dies, or with
    ``first_only`` at the first one only, which gives a basis when d == 2.
    Returns (grade, coordinates) per generator, as ``gens_key`` reads them.
    """
    order = topo_order(M.col_grades)
    axes = [sorted({g[k] for g in M.col_grades}) for k in range(M.d)]
    recorded = {}
    out = []
    for z in product(*axes):
        active = [j for j in order if leq(M.col_grades[j], z)]
        pivots = {}
        for j in active:
            cur = M.mat.cols[j]
            comb = 1 << j
            while cur:
                lw = cur.bit_length() - 1
                if lw in pivots:
                    pcol, pcomb = pivots[lw]
                    cur ^= pcol
                    comb ^= pcomb
                else:
                    pivots[lw] = (cur, comb)
                    break
            if cur:
                continue
            prior = recorded.setdefault(j, [])
            if (first_only and prior) or any(leq(zp, z) for zp in prior):
                continue
            prior.append(z)
            out.append((z, comb))
    return out


def gens_key(gens: GradedMatrix):
    """(grade, coordinates) of each generator, a column of ``kernel_gens``."""
    return list(zip(gens.col_grades, gens.mat.cols))


def test_kernel_slice_sweep_equals_per_point_sweep_random():
    rng = random.Random(109)
    checked = 0
    for _ in range(1200):
        d = rng.choice((1, 2, 3, 4))
        span = rng.randint(0, 3)  # few distinct coordinates: exact ties are common
        n, m = rng.randint(1, 6), rng.randint(0, 9)  # m = 0: an empty grid
        rows = [tuple(rng.randint(0, span) for _ in range(d)) for _ in range(n)]
        cols = [tuple(rng.randint(0, span) for _ in range(d)) for _ in range(m)]
        dense = [
            [rng.randint(0, 1) if leq(rows[i], cols[j]) else 0 for j in range(m)]
            for i in range(n)
        ]
        M = GradedMatrix(from_dense(dense), rows, cols)
        got = gens_key(kernel_gens(M))
        assert got == per_point_kernel_gens(M)
        checked += 1
        if d == 2:
            # a column's first death is its only minimal one
            assert got == per_point_kernel_gens(M, first_only=True)
            checked += 1
    assert checked > 1200


def random_graph_boundary(
    rng: random.Random, nv: int = 30, ne: int = 90, d: int = 2, span: int = 1000
) -> GradedMatrix:
    """Edge boundary matrix of a random graph with vertex grades in [0,span)^d.

    With the defaults it is shaped like the degree-1 inputs of the
    benchmark's export family: vertices at random grades, edges at the lub
    of their ends plus a jitter.
    """
    verts = [tuple(rng.randrange(span) for _ in range(d)) for _ in range(nv)]
    pairs = rng.sample([(u, v) for u in range(nv) for v in range(u + 1, nv)], ne)
    edge_grades = [
        tuple(max(verts[u][k], verts[v][k]) + rng.randint(0, 2) for k in range(d))
        for u, v in pairs
    ]
    return GradedMatrix(
        F2Matrix(nv, [(1 << u) | (1 << v) for u, v in pairs]), verts, edge_grades
    )


def test_kernel_slice_sweep_equals_per_point_sweep_on_graphs():
    rng = random.Random(113)
    for _ in range(3):
        M = random_graph_boundary(rng)
        expected = per_point_kernel_gens(M, first_only=True)
        assert len(expected) >= 90 - 30
        assert gens_key(kernel_gens(M)) == expected
        assert per_point_kernel_gens(M) == expected
    # three parameters over few coordinates: many columns share a row of the
    # slice grid, and a column can die at several minimal grades
    on_antichain = 0
    for _ in range(3):
        M = random_graph_boundary(rng, nv=20, ne=60, d=3, span=5)
        got = gens_key(kernel_gens(M))
        assert got == per_point_kernel_gens(M)
        on_antichain += len(got) > len(per_point_kernel_gens(M, first_only=True))
    assert on_antichain


def test_kernel_gens_equals_the_slice_sweep():
    # the echelon kept along each row against a fresh reduction per slice:
    # the same columns, grades and labels, ties and antichains included
    rng = random.Random(127)
    for _ in range(1500):
        d = rng.choice((1, 2, 3, 4))
        span = rng.randint(0, 3)
        n, m = rng.randint(1, 8), rng.randint(0, 14)
        rows = [tuple(rng.randint(0, span) for _ in range(d)) for _ in range(n)]
        cols = [tuple(rng.randint(0, span) for _ in range(d)) for _ in range(m)]
        dense = [
            [rng.randint(0, 1) if leq(rows[i], cols[j]) else 0 for j in range(m)]
            for i in range(n)
        ]
        M = GradedMatrix(from_dense(dense), rows, cols)
        assert kernel_gens(M) == slice_kernel_gens(M)
    for _ in range(8):
        for d in (2, 3, 4):
            filt = parse_filtration(random_mpfilt(rng, d))
            for p in (1, 2):
                M = boundary_matrix(filt, p)
                assert kernel_gens(M) == slice_kernel_gens(M)


# -- rewriting ----------------------------------------------------------------


def test_rewrite_in_basis_triangle_h1():
    filt = load("triangle.mpfilt")
    d1 = boundary_matrix(filt, 1)
    basis = kernel_gens(d1)
    d2 = boundary_matrix(filt, 2)  # no triangles: 3x0
    out = rewrite_in_basis(d2, basis)
    assert out.n_rows == 1 and out.n_cols == 0
    assert out.row_grades == [(2, 2)]
    assert out.row_labels == basis.col_labels == ["z0"]


def test_rewrite_respects_column_grades():
    # basis element born too late for the column -> not usable, so the
    # rewrite must fail loudly rather than produce an inhomogeneous result
    cols = GradedMatrix(from_dense([[1], [0]]),
                        [(0, 0), (0, 0)], [(1, 0)])

    def basis(grades, coords, n_rows=2, labels=()):
        row_grades = [(0,) * len(grades[0])] * n_rows
        return GradedMatrix(F2Matrix(n_rows, coords), row_grades, grades, col_labels=labels)

    late = basis([(0, 5), (0, 0)], [0b01, 0b10])
    with pytest.raises(InternalCheckError):
        rewrite_in_basis(cols, late)
    # a basis of the wrong d or over the wrong rows is refused by the rewrite
    with pytest.raises(InputError):
        rewrite_in_basis(cols, basis([(0, 0, 0)], [0b01]))
    with pytest.raises(InputError):
        rewrite_in_basis(cols, basis([(0, 0)], [0b100], n_rows=3))
    # coordinates outside the rows, a grade outside 64 bits and a wrong label
    # count are refused while the basis is built
    with pytest.raises(InputError):
        rewrite_in_basis(cols, basis([(0, 0)], [0b100]))
    with pytest.raises(InputError):
        rewrite_in_basis(cols, basis([(0, 1 << 63)], [0b01]))
    with pytest.raises(InputError):
        rewrite_in_basis(cols, basis([(0, 5), (0, 0)], [0b01, 0b10], labels=["z0"]))


def cycle_columns(rng: random.Random, M: GradedMatrix, m: int) -> GradedMatrix:
    """m random cycles of M, each a sum of up to three of its kernel
    generators at the least upper bound of their grades plus a jitter."""
    gens = gens_key(kernel_gens(M))
    grades, vecs = [], []
    for _ in range(m):
        picked = rng.sample(gens, min(len(gens), rng.randint(1, 3)))
        lub = [max(g[k] for g, _ in picked) for k in range(M.d)]
        grades.append(tuple(x + rng.randint(0, 2) for x in lub))
        v = 0
        for _, z in picked:
            v ^= z
        vecs.append(v)
    return GradedMatrix(F2Matrix(M.n_cols, vecs), M.col_grades, grades, d=M.d)


def test_rewrite_matches_elimination_with_two_parameters():
    # with two parameters the generators born at or below a grade are
    # independent, so back-substitution finds the one expression there is
    rng = random.Random(223)
    compared = 0
    for _ in range(80):
        nv = rng.randint(3, 8)
        F = graph_filtration(
            rng, nv, rng.randint(nv - 1, nv * (nv - 1) // 2), span=rng.choice([3, 1000]), tets=True
        )
        for p in (1, 2):
            gens = kernel_gens(boundary_matrix(F, p))
            cols = boundary_matrix(F, p + 1)
            assert rewrite_in_basis(cols, gens).mat.cols == rewrite_by_elimination(cols, gens)
            compared += cols.n_cols
    for _ in range(3):
        M = random_graph_boundary(rng)
        gens = kernel_gens(M)
        cols = cycle_columns(rng, M, 40)
        assert rewrite_in_basis(cols, gens).mat.cols == rewrite_by_elimination(cols, gens)
        compared += cols.n_cols
    assert compared > 500


def test_rewrite_expresses_columns_with_more_parameters():
    # with more parameters the generating set may be dependent and the
    # expression need not be the elimination's; it must still sum to the
    # column, from generators born at or below its grade
    rng = random.Random(227)
    checked = 0
    for k in range(60):
        d = 3 + k % 2
        nv = rng.randint(3, 7)
        F = graph_filtration(
            rng, nv, rng.randint(nv - 1, nv * (nv - 1) // 2), span=rng.choice([2, 5, 1000]),
            d=d, tets=True,
        )
        for p in (1, 2):
            gens = kernel_gens(boundary_matrix(F, p))
            cols = boundary_matrix(F, p + 1)
            out = rewrite_in_basis(cols, gens)
            for u, c, v in zip(cols.col_grades, cols.mat.cols, out.mat.cols):
                acc = 0
                for i in bits(v):
                    assert leq(gens.col_grades[i], u)
                    acc ^= gens.mat.cols[i]
                assert acc == c
            checked += cols.n_cols
    assert checked > 300


def test_rewrite_work_is_bounded_by_generators_used(monkeypatch):
    # each generator added in costs one grade comparison; an elimination per
    # column would compare the column's grade with every generator's
    import mpdecomp.presentation as presentation

    rng = random.Random(229)
    M = random_graph_boundary(rng)
    gens = kernel_gens(M)
    cols = cycle_columns(rng, M, 40)
    calls = 0

    def counting_le(a, b):
        nonlocal calls
        calls += 1
        return a <= b

    monkeypatch.setattr(presentation, "le", counting_le)
    out = rewrite_in_basis(cols, gens)
    used = sum(len(bits(v)) for v in out.mat.cols)
    assert used < 5 * cols.n_cols < gens.n_cols * cols.n_cols // 10
    assert calls <= 2 * used  # d coordinates per generator used


# -- presentation constructions ----------------------------------------------


def test_pres_h0_is_the_boundary_matrix():
    filt = load("triangle.mpfilt")
    P = pres_h0(filt)
    assert P.mat.to_dense() == boundary_matrix(filt, 1).mat.to_dense()


def test_pres_2param_suspension_minimizes_to_known_4x3():
    M = minimize(pres_2param(load("suspension.mpfilt"), 1))
    assert M.row_grades == [(0, 1), (1, 0), (1, 1), (2, 2)]
    assert sorted(M.col_grades) == [(1, 1), (1, 2), (2, 1)]
    by_grade = {M.col_grades[j]: bits(M.mat.cols[j]) for j in range(3)}
    assert by_grade == {(1, 1): [0, 1], (1, 2): [0, 2], (2, 1): [1, 2]}


def test_pres_dparam_k23_single_syzygy():
    P = pres_dparam(load("k23.mpfilt"), 1)
    assert P.n_rows == 3 and P.n_cols == 1
    assert P.col_grades == [(1, 1, 1)]
    assert P.mat.cols[0] == 0b111
    # already minimal: no generator grade equals the relation grade
    Q = minimize(P)
    assert Q.mat.to_dense() == P.mat.to_dense()


def graph_filtration(
    rng: random.Random, nv: int, ne: int, span: int, d: int = 2, tets: bool = False
):
    """The graph of ``random_graph_boundary`` with a triangle on every 3-cycle.

    A triangle enters at the least upper bound of its edges plus a jitter of
    0 or 1 per coordinate.  With ``tets`` each 4-clique of triangles is
    filled by a tetrahedron with probability one half, entering the same way.
    """
    M = random_graph_boundary(rng, nv, ne, d=d, span=span)
    lines = ["mpfilt 1", f"params {M.d}"]
    lines += ["s " + " ".join(map(str, g)) + " :" for g in M.row_grades]
    grades = list(M.row_grades)
    face_id = {}

    def add(face, facets):
        lub = [max(grades[i][k] for i in facets) for k in range(M.d)]
        g = [x + rng.randint(0, 1) for x in lub]
        face_id[face] = len(grades)
        grades.append(g)
        lines.append("s " + " ".join(map(str, g)) + " : " + " ".join(map(str, facets)))

    for g, c in zip(M.col_grades, M.mat.cols):
        face_id[tuple(bits(c))] = len(grades)
        grades.append(g)
        lines.append("s " + " ".join(map(str, g)) + " : " + " ".join(map(str, bits(c))))
    for t in combinations(range(nv), 3):
        ids = [face_id.get(e) for e in combinations(t, 2)]
        if None not in ids:
            add(t, ids)
    if tets:
        for q in combinations(range(nv), 4):
            ids = [face_id.get(t) for t in combinations(q, 3)]
            if None not in ids and rng.random() < 0.5:
                add(q, ids)
    return parse_filtration("\n".join(lines) + "\n")


def assert_valid_graded(M: GradedMatrix, d: int) -> None:
    """M passes every check the public constructor makes."""
    assert M.d == d
    assert len(M.row_grades) == len(M.row_labels) == M.n_rows
    assert len(M.col_grades) == len(M.col_labels) == M.n_cols
    for g in M.row_grades + M.col_grades:
        assert type(g) is tuple and check_grade(g) == g and len(g) == d
    M.validate_homogeneity()


def assert_cycles(M: GradedMatrix, Z: GradedMatrix) -> None:
    """Z is a generator matrix over M's columns: M times Z is zero."""
    assert (Z.row_grades, Z.row_labels) == (M.col_grades, M.col_labels)
    for z in Z.mat.cols:
        acc = 0
        for j in bits(z):
            acc ^= M.mat.cols[j]
        assert acc == 0


def test_internal_builders_emit_valid_matrices():
    # boundary matrices, cycle generators, their syzygies, rewritten cycles
    # and both constructions skip the constructor's checks, so their output
    # is checked here instead
    rng = random.Random(211)
    for k in range(320):
        d = 1 + k % 4
        nv = rng.randint(3, 7)
        ne = rng.randint(nv - 1, nv * (nv - 1) // 2)
        F = graph_filtration(rng, nv, ne, span=rng.choice([2, 6, 1000]), d=d, tets=True)
        for p in (1, 2, 3):
            assert_valid_graded(boundary_matrix(F, p), d)
        for p in (1, 2):
            gens, dbar = _cycles(F, p)
            assert_valid_graded(gens, d)
            assert_cycles(boundary_matrix(F, p), gens)
            syzygies = kernel_gens(gens)
            assert_valid_graded(syzygies, d)
            assert_cycles(gens, syzygies)
            assert_valid_graded(dbar, d)
            n_up = len(F.grades[p + 1]) if p + 1 < len(F.grades) else 0  # (p+1)-simplices
            assert dbar.n_rows == gens.n_cols and dbar.n_cols == n_up
            assert_valid_graded(pres_dparam(F, p), d)
            if d == 2:
                assert_valid_graded(pres_2param(F, p), d)


def test_pres_dparam_agrees_with_2param_on_suspension():
    filt = load("suspension.mpfilt")
    a = minimize(pres_2param(filt, 1))
    b = minimize(pres_dparam(filt, 1))
    assert sorted(a.row_grades) == sorted(b.row_grades)
    assert sorted(a.col_grades) == sorted(b.col_grades)
    # with two parameters the cycle generators are free, so the general
    # construction adds no syzygy and gives the same raw matrix
    rng = random.Random(31)
    filts = [filt] + [graph_filtration(rng, 10, 25, span=6) for _ in range(4)]
    for f in filts:
        for p in (1, 2):
            a, b = pres_2param(f, p), pres_dparam(f, p)
            assert a.mat == b.mat
            assert (a.row_grades, a.col_grades) == (b.row_grades, b.col_grades)
            assert (a.row_labels, a.col_labels) == (b.row_labels, b.col_labels)
    assert all(pres_2param(f, 1).n_cols > 0 for f in filts)


def test_degree_guards():
    filt = load("triangle.mpfilt")
    with pytest.raises(InputError):
        pres_2param(filt, 0)
    with pytest.raises(InputError):
        pres_dparam(filt, 0)
    with pytest.raises(InputError):
        pres_2param(load("k23.mpfilt"), 1)


# -- minimization -------------------------------------------------------------


def test_minimize_removes_unit_pivot():
    # generator at (1,1) cancels against the relation at (1,1)
    M = GradedMatrix(
        from_dense([[1, 1], [1, 0]]),
        [(1, 1), (0, 0)],
        [(1, 1), (2, 2)],
    )
    P = minimize(M)
    assert P.n_rows == 1 and P.n_cols == 1
    assert P.row_grades == [(0, 0)]
    assert P.col_grades == [(2, 2)]
    # the surviving relation keeps its image in the surviving generator
    assert P.mat.to_dense() == [[1]]


def test_minimize_drops_zero_columns():
    M = GradedMatrix(
        from_dense([[0, 1]]),
        [(0, 0)],
        [(1, 0), (1, 1)],
    )
    P = minimize(M)
    assert P.n_cols == 1
    assert P.col_grades == [(1, 1)]


def test_minimize_preserves_dimension_function():
    from mpdecomp import GradeBox, dimension_function

    rng = random.Random(107)
    for _ in range(200):
        M = random_graded_cols(rng, d=2, m_max=5)
        mini = minimize(M)
        box = GradeBox.span((0, 0), (4, 4))
        assert dimension_function(M, box) == dimension_function(mini, box)
        # minimality: no unit entry with equal grades remains
        for i, j in mini.mat.entries():
            assert mini.row_grades[i] != mini.col_grades[j]
        for j in range(mini.n_cols):
            assert mini.mat.cols[j] != 0


def test_minimize_work_is_bounded_by_tails_times_relations(monkeypatch):
    # the span test reduces once per grade tail that occurs, not once per
    # slice of the grid the tails span: with d = 4 and distinct coordinates
    # that grid has m^2 rows, and a sweep over it costs about m^2 times more
    import mpdecomp.presentation as presentation

    calls = 0

    def counting_le(a, b):
        nonlocal calls
        calls += 1
        return a <= b

    monkeypatch.setattr(presentation, "le", counting_le)
    rng = random.Random(109)
    m, n = 40, 20
    axes = [rng.sample(range(1, 1000), m) for _ in range(4)]
    cols = [tuple(axis[j] for axis in axes) for j in range(m)]
    vecs = [(1 << rng.randrange(n)) | (1 << rng.randrange(n)) for _ in range(m)]
    M = GradedMatrix(F2Matrix(n, vecs), [(0, 0, 0, 0)] * n, cols)
    P = minimize(M)
    assert P.n_cols < m  # some relation was redundant
    assert calls <= 3 * m * m  # d - 1 tail comparisons per (tail, relation)


# -- file format --------------------------------------------------------------


def test_parse_format_round_trip():
    text = (DATA / "triangle.mppres").read_text()
    P = parse_presentation(text)
    out = format_presentation(P)
    Q = parse_presentation(out)
    assert Q.mat == P.mat
    assert Q.row_grades == P.row_grades
    assert Q.col_grades == P.col_grades
    assert format_presentation(Q) == out


def test_parse_presentation_errors():
    with pytest.raises(InputError):
        parse_presentation("mppres 2\n")
    with pytest.raises(InputError):
        parse_presentation("mppres 1\nparams 2\nrows 1\nr 0\n")
    bad_idx = "mppres 1\nparams 1\nrows 1\nr 0\ncols 1\nc 1 : 3\n"
    with pytest.raises(InputError):
        parse_presentation(bad_idx)
    inhomogeneous = "mppres 1\nparams 1\nrows 1\nr 2\ncols 1\nc 1 : 0\n"
    with pytest.raises(InputError):
        parse_presentation(inhomogeneous)
