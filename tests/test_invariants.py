from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from collections import Counter
from itertools import product
from operator import add, le
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdecomp import (
    F2Matrix,
    GradeBox,
    GradedMatrix,
    blockcodes,
    default_box,
    dimension_function,
    kernel_gens,
    leq,
    minimize,
    parse_filtration,
    persistent_betti,
    pres_2param,
    pres_h0,
    sort_by_grade,
    summands,
    tied_pairs,
    tot_diagonalize,
)
from mpdecomp.cli import main
from mpdecomp.errors import InputError
from mpdecomp import invariants
from mpdecomp.invariants import MAX_BOX_POINTS, grade_grid
from reference import (
    betti_euler_function,
    betti_tables_per_summand,
    dim_oracle,
    from_dense,
    merge_tables,
    rank,
)
from test_certificate_output_identity import random_mpfilt
from test_diagonalize import equivalence_cases
from test_dimension_output_identity import random_mppres

DATA = Path(__file__).resolve().parent.parent / "data"


def triangle_pipeline():
    filt = parse_filtration((DATA / "triangle.mpfilt").read_text())
    pres = minimize(pres_h0(filt))
    diag = tot_diagonalize(sort_by_grade(pres))
    return diag.matrix, diag


def test_grade_box_basics():
    box = GradeBox.span((0, 0), (2, 1))
    assert box.axes == (range(0, 3), range(0, 2))
    assert box.shape == (3, 2)
    pts = list(box.grades())
    assert pts[0] == (0, 0) and pts[-1] == (2, 1)
    assert len(pts) == 6
    grid = GradeBox(([-5, 0, 7], [3]))
    assert grid.shape == (3, 1)
    assert list(grid.grades()) == [(-5, 3), (0, 3), (7, 3)]
    assert GradeBox.span((1, 1), (0, 0)).shape == (0, 0)


def test_default_box_covers_all_grades():
    final, _ = triangle_pipeline()
    box = default_box(final)
    assert box.axes == ([0, 1, 2], [0, 1, 2])  # the distinct coordinates
    grid = set(box.grades())
    for g in list(final.row_grades) + list(final.col_grades):
        assert g in grid
    empty = GradedMatrix(F2Matrix(0), [], [], d=2)
    assert default_box(empty).axes == ((), ())


def test_dimension_function_matches_hand_values():
    final, _ = triangle_pipeline()
    box = GradeBox.span((0, 0), (2, 2))
    dm = dimension_function(final, box)
    # dims of H0 of the triangle complex on the grid
    expected = [
        0, 1, 1,
        1, 2, 1,
        1, 1, 1,
    ]
    assert dm == expected
    assert dm[4] == 3 - 1  # at (1,1): three vertices, one edge merges two
    with pytest.raises(InputError, match="box has 1 axes but M has 2 parameters"):
        dimension_function(final, GradeBox.span((0,), (2,)))


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


@pytest.mark.parametrize("flag", ["0,0:1,1", "-3,-2:1,0", "2,1:5,4", "-2,4:0,6"])
def test_box_off_the_grades_matches_oracle(capsys, flag):
    # the triangle's grades span (0,0)..(2,2); each box leaves part of
    # them out or lies wholly below, above or beside them
    final, _ = triangle_pipeline()
    assert main(["decompose", str(DATA / "triangle.mpfilt"), f"--box={flag}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    lo, hi = (tuple(map(int, part.split(","))) for part in flag.split(":"))
    grid = [list(range(l, h + 1)) for l, h in zip(lo, hi)]
    with_rows = [b for b in payload["blocks"] if b["rows"]]
    assert with_rows and all(b["grid"] == grid for b in with_rows)
    values = [b["dim_function"] for b in with_rows]
    for u, *vs in zip(product(*grid), *values, strict=True):
        assert sum(vs) == dim_oracle(final, u), u


def off_grid_value(grid, values, u) -> int:
    """The value at u of a function given on a grid, by the rule of the README.

    0 when u lies below the grid on some axis, else the value at the
    greatest grid point <= u.
    """
    flat = 0
    for axis, x in zip(grid, u):
        k = bisect_right(axis, x) - 1
        if k < 0:
            return 0
        flat = flat * len(axis) + k
    return values[flat]


def test_values_off_a_summands_grid_follow_the_readme_rule(tmp_path, capsys):
    # each block's grid is its summand's own coordinates; every integer grade
    # from one below the whole presentation's grades to one above them,
    # on or off that grid, takes the value the rule reads off it
    rng = random.Random(83)
    path = tmp_path / "case.mppres"
    n_off = 0
    for case in range(60):
        path.write_text(random_mppres(rng, 1 + case % 3)[0])
        assert main(["decompose", str(path), "--perturb"]) == 0
        payload = json.loads(capsys.readouterr().out)
        m = payload["matrix"]
        M = GradedMatrix(
            F2Matrix(m["n_rows"], [sum(1 << i for i in c) for c in m["columns"]]),
            [tuple(g) for g in m["row_grades"]],
            [tuple(g) for g in m["col_grades"]],
            d=payload["d"],
        )
        with_rows = [b for b in payload["blocks"] if b["rows"]]
        if not with_rows:  # minimizing cancelled every generator
            continue
        subs = summands(M, [(b["rows"], b["cols"]) for b in with_rows])
        around = widened(M)
        for b, sub in zip(with_rows, subs, strict=True):
            assert b["grid"] == [list(axis) for axis in default_box(sub).axes]
            on_grid = set(product(*b["grid"]))
            for u in around.grades():
                n_off += u not in on_grid
                assert off_grid_value(b["grid"], b["dim_function"], u) == dim_oracle(sub, u)
    assert n_off > 5000


def test_box_over_point_cap_rejected():
    side = int(MAX_BOX_POINTS**0.5) + 1  # just over the cap
    with pytest.raises(InputError, match=str(side * side)):
        GradeBox.span((0, 0), (side - 1, side - 1))
    with pytest.raises(InputError, match=f"grid of {side}x{side} has {side * side}"):
        GradeBox((range(side), list(range(side))))
    # counted from the corners, so a box too large to list is refused too
    with pytest.raises(InputError, match=str(2**128)):
        GradeBox.span((-(2**63), -(2**63)), (2**63 - 1, 2**63 - 1))


def test_persistent_betti_reproduces_reference_table():
    final, diag = triangle_pipeline()
    tables = persistent_betti(final, diag.blocks)
    assert len(tables) == 2
    (b1, t1), (b2, t2) = zip(diag.blocks, tables)
    assert b1.rows == (0, 1) and b2.rows == (2,)
    assert t1[0] == [(0, 1), (1, 0)]
    assert t1[1] == [(1, 1)]
    assert t1[2] == []
    assert t2[0] == [(1, 1)]
    assert t2[1] == [(1, 2), (2, 1)]
    assert t2[2] == [(2, 2)]


def test_global_betti_is_sum_of_blocks():
    final, diag = triangle_pipeline()
    whole = [final.row_grades, final.col_grades]
    merged = merge_tables(persistent_betti(final, diag.blocks))
    for deg in (0, 1):
        assert merged[deg] == sorted(whole[deg])
    b2_whole = kernel_gens(final).col_grades
    assert sorted(b2_whole) == merged[2]


def test_blockcode_reference_values():
    final, diag = triangle_pipeline()
    box = GradeBox.span((0, 0), (3, 3))
    codes = blockcodes(final, diag.blocks, persistent_betti(final, diag.blocks), [box] * 2)
    assert len(codes) == 2
    m1, m2 = codes
    for u, v1, v2 in zip(box.grades(), m1, m2, strict=True):
        assert v1 == (1 if (leq((1, 0), u) or leq((0, 1), u)) else 0)
        assert v2 == (1 if u == (1, 1) else 0)


def test_dimension_function_additive_over_blocks():
    final, diag = triangle_pipeline()
    box = default_box(final)
    total = dimension_function(final, box)
    acc = [0] * len(total)
    tables = persistent_betti(final, diag.blocks)
    for values in blockcodes(final, diag.blocks, tables, [box] * len(tables)):
        acc = list(map(add, acc, values))
    assert acc == total


def test_hilbert_consistency_betti_vs_dimension():
    final, diag = triangle_pipeline()
    subs = summands(final, diag.blocks)
    tables = persistent_betti(final, diag.blocks)
    # on the whole presentation's grid and on each summand's own grid
    for boxes in ([default_box(final)] * len(subs), list(map(default_box, subs))):
        codes = blockcodes(final, diag.blocks, tables, boxes)
        for sub, table, box, values in zip(subs, tables, boxes, codes, strict=True):
            assert betti_euler_function(table, box) == values
            assert dimension_function(sub, box) == values


def test_persistent_betti_skips_free_columns_only_blocks():
    # a presentation with a dead relation column: the (), (t) block carries
    # no generators and must not contribute Betti entries
    M = GradedMatrix(
        from_dense([[1, 0]]),
        [(0, 0)],
        [(1, 0), (1, 1)],
    )
    diag = tot_diagonalize(M)
    rowless = [b for b in diag.blocks if not b.rows]
    assert rowless
    subs = summands(M, diag.blocks)
    assert all(sub.n_rows for sub in subs)
    assert len(persistent_betti(M, diag.blocks)) == len(diag.blocks) - len(rowless)


def test_betti_table_merge_and_counts():
    t = [[(0, 0), (0, 0)], [(1, 1)]]
    u = merge_tables([t, [[(0, 1)], [], [(2, 2)]], t])
    assert u[0] == [(0, 0)] * 4 + [(0, 1)]
    assert u[1] == [(1, 1), (1, 1)]
    assert u[2] == [(2, 2)]


@st.composite
def presentation_and_box(draw):
    """Random presentation with repeated coordinates, and a box that may
    reach below or above its grades or leave some of them out."""
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
    P = GradedMatrix(mat, rows, cols)
    grades = rows + cols
    below = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    above = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    lo = tuple(min(g[k] for g in grades) - below[k] for k in range(d))
    hi = tuple(max(g[k] for g in grades) + above[k] for k in range(d))
    return P, GradeBox.span(lo, hi)


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
    return GradedMatrix(F2Matrix(n_rows, vecs), rows, cols)


def assert_matches_oracle(P, box):
    dm = dimension_function(P, box)
    assert len(dm) == math.prod(box.shape)
    for u, v in zip(box.grades(), dm):
        assert v == dim_oracle(P, u), str(u)


def widened(P):
    """Every integer grade from one below P's grades to one above them."""
    axes = default_box(P).axes
    return GradeBox.span(tuple(a[0] - 1 for a in axes), tuple(a[-1] + 1 for a in axes))


def partial_boxes(P):
    """Boxes that meet only part of P's grid: a single point, a box strictly
    inside the grades, one wholly below them and one wholly above."""
    axes = default_box(P).axes
    lo = [a[0] for a in axes]
    hi = [a[-1] for a in axes]
    mid = [a[len(a) // 2] for a in axes]
    return [
        GradeBox.span(mid, mid),
        GradeBox.span([x + 1 for x in lo], [x - 1 for x in hi]),
        GradeBox.span([x - 3 for x in lo], [x - 1 for x in lo]),
        GradeBox.span([x + 1 for x in hi], [x + 3 for x in hi]),
    ]


def wide_grid_presentation():
    # 42 grades with pairwise distinct coordinates on both axes: every
    # column opens a slice of its own
    rng = random.Random(11)
    return random_presentation(rng, 2, 12, 30, lambda k: rng.sample(range(50), 42))


def test_dimension_function_on_wide_grid_matches_oracle():
    P = wide_grid_presentation()
    assert len({g[1] for g in P.col_grades}) == 30
    for box in [widened(P)] + partial_boxes(P):
        assert_matches_oracle(P, box)


@pytest.mark.parametrize("d", [1, 3])
def test_dimension_function_matches_oracle_in_one_and_three_parameters(d):
    rng = random.Random(d)
    for _ in range(20):
        n, m = rng.randint(1, 6), rng.randint(0, 10)
        P = random_presentation(
            rng, d, n, m, lambda k: [rng.randint(0, 4) for _ in range(n + m)]
        )
        for box in [widened(P)] + partial_boxes(P):
            assert_matches_oracle(P, box)


def test_one_point_box_sweeps_one_slice(monkeypatch):
    P = wide_grid_presentation()
    calls = []
    real = invariants.reduce_into

    def counted(pivots, c, low=0):
        calls.append(c)
        return real(pivots, c, low)

    monkeypatch.setattr(invariants, "reduce_into", counted)
    top = [a[-1] for a in default_box(P).axes]
    assert_matches_oracle(P, GradeBox.span(top, top))
    assert len(calls) <= P.n_cols  # one slice: each column at most once
    calls.clear()
    dimension_function(P, default_box(P))
    assert len(calls) > 10 * P.n_cols  # the whole grid sweeps every slice


def test_dimension_function_at_the_64_bit_edge():
    top = 2**63 - 1
    rows = [(top - 3, -(2**63)), (top - 1, -(2**63) + 1)]
    cols = [(top - 1, -(2**63) + 2)]
    P = GradedMatrix(F2Matrix(2, [0b11]), rows, cols)
    box = GradeBox.span((top - 4, -(2**63)), (top, -(2**63) + 3))
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


# -- tables from one kernel sweep, values read off them -------------------------


def tied_d2_presentations():
    """Minimized, sorted H0 and H1 presentations of d = 2 complexes with tied grades."""
    for seed in range(12):
        filt = parse_filtration(random_mpfilt(random.Random(seed), 2))
        for P in (pres_h0(filt), pres_2param(filt, 1)):
            yield sort_by_grade(minimize(P))


def d1_presentations(rng):
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(0, 8)
        P = random_presentation(rng, 1, n, m, lambda k: [rng.randint(0, 4) for _ in range(n + m)])
        yield sort_by_grade(P)
        yield sort_by_grade(minimize(P))


def test_tables_from_one_sweep_equal_the_per_summand_tables():
    # equivalence_cases holds d = 2 and d = 3 inputs, minimal or not, ties
    # included; every diagonalization breaks ties by index, as --perturb does
    cases = [*equivalence_cases(), *tied_d2_presentations(), *d1_presentations(random.Random(25))]
    per_d = Counter()
    n_tied = n_beta2 = 0
    for M in cases:
        diag = tot_diagonalize(M, perturb_ties=True)
        tables = persistent_betti(diag.matrix, diag.blocks)
        assert tables == betti_tables_per_summand(summands(diag.matrix, diag.blocks))
        per_d[M.d] += 1
        n_tied += M.d == 2 and bool(tied_pairs(M.row_grades) or tied_pairs(M.col_grades))
        n_beta2 += sum(len(t[2]) for t in tables if M.d == 2)
    assert min(per_d[d] for d in (1, 2, 3)) >= 60, per_d
    assert n_tied > 20 and n_beta2 > 100, (n_tied, n_beta2)


def zero_column_presentation():
    """Not minimal: the column at (1,1) is zero, a block without rows.

    In row 0's block the relations at (1,0) and (0,1) sum to a kernel
    generator at (1,1); row 1's block, one relation, has none; the zero
    column is a kernel generator at (1,1) of its own that belongs to no
    summand.
    """
    return GradedMatrix(
        from_dense([[1, 1, 0, 1], [0, 0, 0, 1]]),
        [(0, 0), (0, 1)],
        [(1, 0), (0, 1), (1, 1), (2, 1)],
    )


def test_tables_drop_the_kernel_of_a_zero_column():
    M = sort_by_grade(zero_column_presentation())
    diag = tot_diagonalize(M)
    assert any(not b.rows for b in diag.blocks)
    assert len(kernel_gens(diag.matrix).col_grades) == 2  # one of them on the zero column
    tables = persistent_betti(diag.matrix, diag.blocks)
    assert tables == [[[(0, 0)], [(0, 1), (1, 0)], [(1, 1)]], [[(0, 1)], [(2, 1)], []]]
    subs = summands(diag.matrix, diag.blocks)
    assert tables == betti_tables_per_summand(subs)
    boxes = [default_box(sub) for sub in subs]
    codes = blockcodes(diag.matrix, diag.blocks, tables, boxes)
    assert codes == [dimension_function(sub, box) for sub, box in zip(subs, boxes)]


def test_values_read_off_the_tables_equal_the_sweep_and_the_oracle():
    # on each summand's own grid and on a span from two below its grades to
    # two above; this kills two mutants of the alternating count: dropping
    # beta2 (the summands with a kernel) and bisect_right for bisect_left (a
    # grade on a box coordinate would land one cell too high)
    rng = random.Random(26)
    n_no_cols = n_beta2 = 0
    for case in range(200):
        n, m = rng.randint(1, 6), rng.randint(0, 9)
        top = rng.choice([2, 4, 8])
        P = random_presentation(rng, 2, n, m, lambda k: [rng.randint(0, top) for _ in range(n + m)])
        diag = tot_diagonalize(sort_by_grade(minimize(P)), perturb_ties=True)
        M, blocks = diag.matrix, diag.blocks
        tables = persistent_betti(M, blocks)
        subs = summands(M, blocks)
        own = [default_box(sub) for sub in subs]
        assert own == [grade_grid(t[0] + t[1], 2) for t in tables]
        spans = [
            GradeBox.span([a[0] - 2 for a in box.axes], [a[-1] + 2 for a in box.axes])
            for box in own
        ]
        for boxes in (own, spans):
            codes = blockcodes(M, blocks, tables, boxes)
            for sub, box, values in zip(subs, boxes, codes, strict=True):
                assert values == dimension_function(sub, box)
                assert values == [dim_oracle(sub, u) for u in box.grades()]
        n_no_cols += sum(not t[1] for t in tables)
        n_beta2 += sum(bool(t[2]) for t in tables)
    assert n_no_cols > 50 and n_beta2 > 20, (n_no_cols, n_beta2)


def test_one_kernel_sweep_per_decompose(monkeypatch, capsys, tmp_path):
    # d = 2: one kernel_gens call for all tables and no dimension_function;
    # d = 1 and d = 3: no kernel sweep, one dimension_function per summand
    calls = Counter()
    for name in ("kernel_gens", "dimension_function"):

        def spy(*args, _real=getattr(invariants, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(invariants, name, spy)
    d1 = tmp_path / "d1.mppres"
    d1.write_text("mppres 1\nparams 1\nrows 3\nr 0\nr 1\nr 1\ncols 2\nc 2 : 0 1\nc 3 : 2\n")
    cases = [
        (["decompose", str(DATA / "suspension.mpfilt"), "--dim", "1"], 2, "--box=-1,0:3,3"),
        (["decompose", str(DATA / "triangle.mpfilt")], 2, "--box=0,0:2,2"),
        (["decompose", str(DATA / "k23.mpfilt"), "--perturb"], 3, "--box=0,0,0:1,1,1"),
        (["decompose", str(d1), "--perturb"], 1, "--box=-1:4"),
    ]
    for argv, d, box in cases:
        n_summands = None
        for extra in (["--format", "betti"], [], ["--format", "csv"], [box]):
            calls.clear()
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            if n_summands is None:  # the betti text comes first
                n_summands = out.count("\nblock ") + out.startswith("block ")
            if d == 2:
                assert calls == {"kernel_gens": 1}, (argv, extra)
            else:
                want = {} if extra[-1:] == ["betti"] else {"dimension_function": n_summands}
                assert calls == want, (argv, extra)
        assert n_summands >= 2, argv


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
        mini = minimize(M)
        b0, b1 = rank_betti01(M)
        for deg, (grades, want) in enumerate(((mini.row_grades, b0), (mini.col_grades, b1))):
            got = {}
            for g in grades:
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
    mini = minimize(pres_h0(filt))
    assert sorted(mini.row_grades) == [(0, 0)] * 3
    assert sorted(mini.col_grades) == [(1, 0), (1, 0)]
