from __future__ import annotations

import math
import random
from itertools import product
from operator import add, le
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdecomp import (
    BettiTable,
    F2Matrix,
    GradeBox,
    GradedMatrix,
    Presentation,
    betti01,
    betti_higher_2param,
    blockcodes,
    default_box,
    dimension_function,
    leq,
    minimize,
    parse_filtration,
    persistent_betti,
    pres_h0,
    restrict_presentation,
    sort_by_grade,
    tot_diagonalize,
)
from mpdecomp.errors import InputError
from mpdecomp.invariants import MAX_BOX_POINTS
from mpdecomp.oracle import dim_oracle
from reference import betti_euler_function, from_dense, merge_tables, rank

DATA = Path(__file__).resolve().parent.parent / "data"


def triangle_pipeline():
    filt = parse_filtration((DATA / "triangle.mpfilt").read_text())
    pres = minimize(pres_h0(filt))
    sorted_matrix, _, _ = sort_by_grade(pres.matrix)
    diag = tot_diagonalize(sorted_matrix)
    final = Presentation(diag.matrix, case_tag=pres.case_tag, minimized=True)
    return final, diag


def test_grade_box_basics():
    box = GradeBox((0, 0), (2, 1))
    assert box.shape == (3, 2)
    pts = list(box.grades())
    assert pts[0] == (0, 0) and pts[-1] == (2, 1)
    assert len(pts) == 6
    with pytest.raises(InputError):
        GradeBox((1, 1), (0, 0))


def test_default_box_covers_all_grades():
    final, _ = triangle_pipeline()
    box = default_box(final)
    assert box.lo == (0, 0)
    assert box.hi == (3, 3)  # componentwise max + 1
    for g in list(final.matrix.row_grades) + list(final.matrix.col_grades):
        assert leq(box.lo, g) and leq(g, box.hi)
    empty = Presentation(
        GradedMatrix(F2Matrix(0), [], [], d=2), case_tag="RAW"
    )
    fallback = default_box(empty)
    assert fallback.lo == (0, 0) and fallback.hi == (1, 1)


def test_dimension_function_matches_hand_values():
    final, _ = triangle_pipeline()
    box = GradeBox((0, 0), (2, 2))
    dm = dimension_function(final, box)
    # dims of H0 of the triangle complex on the grid
    expected = [
        0, 1, 1,
        1, 2, 1,
        1, 1, 1,
    ]
    assert dm == expected
    assert dm[4] == 3 - 1  # at (1,1): three vertices, one edge merges two


def test_dimension_function_agrees_with_oracle_everywhere():
    final, _ = triangle_pipeline()
    box = default_box(final)
    dm = dimension_function(final, box)
    for u, v in zip(box.grades(), dm, strict=True):
        assert v == dim_oracle(final, u)


def test_dim_oracle_example_values():
    final, _ = triangle_pipeline()
    assert dim_oracle(final, (1, 1)) == 2
    assert dim_oracle(final, (0, 0)) == 0
    assert dim_oracle(final, (2, 2)) == 1


def test_box_must_cover_presentation():
    final, _ = triangle_pipeline()
    with pytest.raises(InputError):
        dimension_function(final, GradeBox((0, 0), (1, 1)))


def test_box_over_point_cap_rejected():
    final, diag = triangle_pipeline()
    side = int(MAX_BOX_POINTS**0.5) + 1  # just over the cap
    box = GradeBox((0, 0), (side - 1, side - 1))
    for call in (
        lambda: dimension_function(final, box),
        lambda: blockcodes(final, diag.blocks, box),
        lambda: blockcodes(final, [], box),
        lambda: betti_euler_function(BettiTable(), box),
    ):
        with pytest.raises(InputError, match=str(side * side)):
            call()


def test_betti01_requires_minimized():
    final, _ = triangle_pipeline()
    raw = Presentation(final.matrix, case_tag=final.case_tag, minimized=False)
    with pytest.raises(InputError):
        betti01(raw)


def test_persistent_betti_reproduces_reference_table():
    final, diag = triangle_pipeline()
    tables = persistent_betti(final, diag.blocks)
    assert len(tables) == 2
    (b1, t1), (b2, t2) = tables
    assert b1.rows == (0, 1) and b2.rows == (2,)
    assert sorted(t1.degree(0)) == [(0, 1), (1, 0)]
    assert t1.degree(1) == [(1, 1)]
    assert t1.degree(2) == []
    assert t2.degree(0) == [(1, 1)]
    assert sorted(t2.degree(1)) == [(1, 2), (2, 1)]
    assert t2.degree(2) == [(2, 2)]


def test_global_betti_is_sum_of_blocks():
    final, diag = triangle_pipeline()
    whole = betti01(final)
    merged = merge_tables(table for _, table in persistent_betti(final, diag.blocks))
    for deg in (0, 1):
        assert sorted(merged.degree(deg)) == sorted(whole.degree(deg))
    b2_whole = betti_higher_2param(final)
    assert sorted(b2_whole) == sorted(merged.degree(2))


def test_blockcode_reference_values():
    final, diag = triangle_pipeline()
    box = GradeBox((0, 0), (3, 3))
    codes = blockcodes(final, diag.blocks, box)
    assert len(codes) == 2
    m1, m2 = codes
    for u, v1, v2 in zip(box.grades(), m1.values, m2.values, strict=True):
        assert v1 == (1 if (leq((1, 0), u) or leq((0, 1), u)) else 0)
        assert v2 == (1 if u == (1, 1) else 0)


def test_dimension_function_additive_over_blocks():
    final, diag = triangle_pipeline()
    box = default_box(final)
    total = dimension_function(final, box)
    acc = [0] * len(total)
    for block in diag.blocks:
        sub = restrict_presentation(final, block)
        acc = list(map(add, acc, dimension_function(sub, box)))
    assert acc == total


def test_hilbert_consistency_betti_vs_dimension():
    final, diag = triangle_pipeline()
    box = default_box(final)
    for block in diag.blocks:
        sub = restrict_presentation(final, block)
        table = dict(persistent_betti(final, [block]))[block]
        assert betti_euler_function(table, box) == dimension_function(sub, box)


def test_persistent_betti_skips_free_columns_only_blocks():
    # a presentation with a dead relation column: the (), (t) block carries
    # no generators and must not contribute Betti entries
    M = GradedMatrix(
        from_dense([[1, 0]]),
        [(0, 0)],
        [(1, 0), (1, 1)],
    )
    P = Presentation(M, case_tag="RAW", minimized=True)
    diag = tot_diagonalize(M)
    rowless = [b for b in diag.blocks if not b.rows]
    assert rowless
    tables = persistent_betti(P, diag.blocks)
    assert all(block.rows for block, _ in tables)


def test_betti_table_merge_and_counts():
    t = BettiTable({})
    t.add(0, (0, 0))
    t.add(0, (0, 0))
    t.add(1, (1, 1))
    assert t.degree(0) == [(0, 0), (0, 0)]
    u = merge_tables([t, t])
    assert len(u.degree(0)) == 4


@st.composite
def presentation_and_box(draw):
    """Random presentation with repeated coordinates, and a box around it
    that reaches below and above its grades."""
    d = draw(st.sampled_from([2, 3]))
    coords = st.lists(st.integers(0, 3), min_size=d, max_size=d).map(
        lambda c: tuple(c)
    )
    rows = draw(st.lists(coords, min_size=1, max_size=4))
    cols = draw(st.lists(coords, max_size=4))
    dense = [
        [draw(st.integers(0, 1)) if leq(r, c) else 0 for c in cols] for r in rows
    ]
    mat = from_dense(dense) if cols else F2Matrix(len(rows))
    P = Presentation(GradedMatrix(mat, rows, cols), case_tag="RAW")
    grades = rows + cols
    below = draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))
    above = draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))
    lo = tuple(min(g[k] for g in grades) - below[k] for k in range(d))
    hi = tuple(max(g[k] for g in grades) + above[k] for k in range(d))
    return P, GradeBox(lo, hi)


@settings(max_examples=150, deadline=None)
@given(presentation_and_box())
def test_dimension_function_on_grid_cells_matches_oracle(case):
    P, box = case
    dm = dimension_function(P, box)
    assert len(dm) == math.prod(box.shape)
    for u, v in zip(box.grades(), dm):
        assert v == dim_oracle(P, u), str(u)


def random_presentation(rng, d, n_rows, n_cols, coords):
    """Random homogeneous presentation; coords(k) draws the k-th coordinates
    of all n_rows + n_cols grades, rows first."""
    axes = [coords(k) for k in range(d)]
    grades = [tuple(axis[i] for axis in axes) for i in range(n_rows + n_cols)]
    rows, cols = grades[:n_rows], grades[n_rows:]
    vecs = [
        sum(1 << i for i, r in enumerate(rows) if leq(r, c) and rng.random() < 0.5)
        for c in cols
    ]
    return Presentation(GradedMatrix(F2Matrix(n_rows, vecs), rows, cols), case_tag="RAW")


def assert_matches_oracle(P, box):
    dm = dimension_function(P, box)
    assert len(dm) == math.prod(box.shape)
    for u, v in zip(box.grades(), dm):
        assert v == dim_oracle(P, u), str(u)


def widened(box):
    return GradeBox(
        tuple(x - 1 for x in box.lo), tuple(x + 1 for x in box.hi)
    )


def test_dimension_function_on_wide_grid_matches_oracle():
    # 42 grades with pairwise distinct coordinates on both axes: every
    # column opens a slice of its own
    rng = random.Random(11)
    P = random_presentation(rng, 2, 12, 30, lambda k: rng.sample(range(50), 42))
    assert len({g[1] for g in P.matrix.col_grades}) == 30
    assert_matches_oracle(P, widened(default_box(P)))


@pytest.mark.parametrize("d", [1, 3])
def test_dimension_function_matches_oracle_in_one_and_three_parameters(d):
    rng = random.Random(d)
    for _ in range(20):
        n, m = rng.randint(1, 6), rng.randint(0, 10)
        P = random_presentation(
            rng, d, n, m, lambda k: [rng.randint(0, 4) for _ in range(n + m)]
        )
        assert_matches_oracle(P, widened(default_box(P)))


def test_dimension_function_at_the_64_bit_edge():
    top = 2**63 - 1
    rows = [(top - 3, -(2**63)), (top - 1, -(2**63) + 1)]
    cols = [(top - 1, -(2**63) + 2)]
    P = Presentation(GradedMatrix(F2Matrix(2, [0b11]), rows, cols), case_tag="RAW")
    box = GradeBox((top - 4, -(2**63)), (top, -(2**63) + 3))
    assert_matches_oracle(P, box)


def test_dimension_function_takes_no_rank(monkeypatch):
    def no_rank(self):
        raise AssertionError("F2Matrix.rank called")

    # raising=False: F2Matrix has no rank method, and must not grow one
    # that the sweep calls
    monkeypatch.setattr(F2Matrix, "rank", no_rank, raising=False)
    final, _ = triangle_pipeline()
    assert_matches_oracle(final, default_box(final))
    rng = random.Random(5)
    P = random_presentation(rng, 2, 6, 12, lambda k: rng.sample(range(20), 18))
    assert_matches_oracle(P, default_box(P))


# -- Betti numbers against rank counts on the input ----------------------------


def rank_betti01(M: GradedMatrix):
    """beta_0 and beta_1 at every point u of the grade grid, from ranks of M.

    With cols(<= u) the columns of grade <= u and cols(< u) those strictly
    below u, and unit(u) = rank M[rows at u, cols(<= u)]:
      beta_0(u) = #{rows at u} - unit(u)
      beta_1(u) = rank cols(<= u) - rank cols(< u) - unit(u)
    The second is Tor_1 read off 0 -> im M -> F_0 -> coker M -> 0; the unit
    term vanishes when no entry of M has equal row and column grade.
    """
    rows = M.row_grades
    cols = M.col_grades
    axes = [sorted({g[k] for g in rows + cols}) for k in range(M.d)]

    def col_rank(vecs):
        return rank(F2Matrix(M.n_rows, vecs))

    b0, b1 = {}, {}
    for u in product(*axes):
        le_u = [c for c, g in zip(M.mat.cols, cols) if all(map(le, g, u))]
        lt_u = [c for c, g in zip(M.mat.cols, cols) if all(map(le, g, u)) and g != u]
        at_u = [i for i, g in enumerate(rows) if g == u]
        unit = rank(F2Matrix(M.n_rows, le_u).submatrix(at_u, range(len(le_u))))
        b0[u] = len(at_u) - unit
        b1[u] = col_rank(le_u) - col_rank(lt_u) - unit
    return b0, b1


def test_betti01_of_minimize_matches_rank_counts():
    # d = 1 gives minimize's span test one empty grade tail; d = 4 gives it
    # tails of three coordinates, partially ordered
    rng = random.Random(4)
    for case in range(900):
        d = (2 if case % 3 else 3) if case < 600 else (1 if case % 2 else 4)
        span = rng.choice([1, 2])  # coordinates in 0..span: exact ties are common
        n, m = rng.randint(0, 6), rng.randint(0, 8)
        rows = [tuple(rng.randint(0, span) for _ in range(d)) for _ in range(n)]
        cols = [tuple(rng.randint(0, span) for _ in range(d)) for _ in range(m)]
        vecs = [
            sum(1 << i for i in range(n) if leq(rows[i], c) and rng.random() < 0.6)
            for c in cols
        ]
        M = GradedMatrix(F2Matrix(n, vecs), rows, cols, d=d)
        table = betti01(minimize(Presentation(M, case_tag="RAW")))
        b0, b1 = rank_betti01(M)
        for deg, want in ((0, b0), (1, b1)):
            got = {}
            for g in table.degree(deg):
                got[g] = got.get(g, 0) + 1
            assert got == {u: k for u, k in want.items() if k}, (case, deg)


def test_minimize_drops_relation_that_only_closes_a_cycle():
    # three vertices at (0,0); edges at (1,0) and (1,0) join them, so the
    # edge at (2,0) closing the cycle is a redundant relation
    filt = parse_filtration(
        "mpfilt 1\nparams 2\n"
        "s 0 0 :\ns 0 0 :\ns 0 0 :\n"
        "s 1 0 : 0 1\ns 1 0 : 1 2\ns 2 0 : 0 2\n"
    )
    table = betti01(minimize(pres_h0(filt)))
    assert table.degree(0) == [(0, 0)] * 3
    assert table.degree(1) == [(1, 0), (1, 0)]
