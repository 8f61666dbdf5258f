"""Acceptance gate: one end-to-end check per shipped capability.

Run with -s to get a one-line PASS/FAIL verdict per criterion.  Expected
values are frozen from hand-checked computations on the datasets in data/
and cross-checked against independent brute-force oracles; nothing in here
trusts the code path it is checking.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stdout
from itertools import product
from operator import add
from pathlib import Path

import numpy as np

from mpdecomp import (
    GradeBox,
    GradedMatrix,
    blockcodes,
    boundary_matrix,
    default_box,
    dimension_function,
    kernel_gens,
    leq,
    minimize,
    parse_filtration,
    persistent_betti,
    pres_2param,
    pres_dparam,
    pres_h0,
    replay_certificate,
    sort_by_grade,
    summands,
    tot_diagonalize,
)
from mpdecomp.cli import main
from mpdecomp.oracle import brute_force_finest
from reference import betti_euler_function, from_dense, matmul, merge_tables, row_echelon_rank

DATA = Path(__file__).resolve().parent.parent / "data"


@contextmanager
def verdict(num: int, what: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"acceptance {num}/8 FAIL  {what}")
        raise
    print(f"acceptance {num}/8 PASS  {what} ({time.perf_counter() - t0:.2f}s)")


def h0_pipeline(name: str):
    filt = parse_filtration((DATA / name).read_text())
    diag = tot_diagonalize(sort_by_grade(minimize(pres_h0(filt))))
    return diag.matrix, diag


# -- 1: worked example, end to end through the CLI ----------------------------


def test_1_worked_example_end_to_end():
    with verdict(1, "worked example decomposes into the two known blocks"):
        t0 = time.perf_counter()
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["decompose", str(DATA / "triangle.mpfilt"), "--dim", "0"])
        elapsed = time.perf_counter() - t0
        assert code == 0
        payload = json.loads(buf.getvalue())
        blocks = {
            (tuple(b["row_labels"]), tuple(b["col_labels"]))
            for b in payload["blocks"]
        }
        # {v_b, v_r | e_r} and {v_g | e_b, e_g}, by simplex id
        assert blocks == {(("0", "1"), ("3",)), (("2",), ("4", "5"))}
        # diagonalized matrix, bit for bit, in the canonical grade order
        assert payload["matrix"]["columns"] == [[0, 1], [2], [2]]
        assert payload["matrix"]["row_grades"] == [[0, 1], [1, 0], [1, 1]]
        assert payload["matrix"]["col_grades"] == [[1, 1], [1, 2], [2, 1]]
        assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"


# -- 2: persistent graded Betti tables ----------------------------------------


def test_2_persistent_betti_tables():
    with verdict(2, "per-summand Betti tables match the hand computation"):
        final, diag = h0_pipeline("triangle.mpfilt")
        blocks = [b for b in diag.blocks if b.rows]
        tables = {
            tuple(b.rows): t
            for b, t in zip(blocks, persistent_betti(final, blocks))
        }
        assert set(tables) == {(0, 1), (2,)}
        m1, m2 = tables[(0, 1)], tables[(2,)]
        assert len(m1) == 3 and len(m2) == 3
        assert m1 == [[(0, 1), (1, 0)], [(1, 1)], []]
        assert m2 == [[(1, 1)], [(1, 2), (2, 1)], [(2, 2)]]


# -- 3: blockcodes on a fixed box ----------------------------------------------


def test_3_blockcodes_closed_form():
    with verdict(3, "blockcodes equal their closed forms on (0,0)..(3,3)"):
        final, diag = h0_pipeline("triangle.mpfilt")
        box = GradeBox.span((0, 0), (3, 3))
        blocks = [b for b in diag.blocks if b.rows]
        codes = {
            tuple(block.rows): values
            for block, values in zip(
                blocks, blockcodes(final, blocks, persistent_betti(final, blocks), [box] * 2)
            )
        }
        m1, m2 = codes[(0, 1)], codes[(2,)]
        for u, v1, v2 in zip(box.grades(), m1, m2, strict=True):
            expect1 = 1 if (leq((1, 0), u) or leq((0, 1), u)) else 0
            expect2 = 1 if u == (1, 1) else 0
            assert v1 == expect1, str(u)
            assert v2 == expect2, str(u)


# -- 4: degree-1 pipeline on the two-parameter suspension ----------------------


def test_4_suspension_degree_one():
    with verdict(4, "suspension H1 gives the known 4x3 and three summands"):
        filt = parse_filtration((DATA / "suspension.mpfilt").read_text())
        M = sort_by_grade(minimize(pres_2param(filt, 1)))
        assert M.row_grades == [(0, 1), (1, 0), (1, 1), (2, 2)]
        assert M.col_grades == [(1, 1), (1, 2), (2, 1)]
        assert M.mat.to_dense() == [
            [1, 1, 0],
            [1, 0, 1],
            [0, 1, 1],
            [0, 0, 0],
        ]
        diag = tot_diagonalize(M)
        parts = {(b.rows, b.cols) for b in diag.blocks}
        assert parts == {((0, 1), (0,)), ((2,), (1, 2)), ((3,), ())}
        # independent confirmation of the block structure
        assert {(b.rows, b.cols) for b in brute_force_finest(M)} == parts


# -- 5: three-parameter presentation -------------------------------------------


def test_5_three_parameter_single_block():
    with verdict(5, "three-parameter H1 is one 3x1 block at (1,1,1)"):
        filt = parse_filtration((DATA / "k23.mpfilt").read_text())
        M = pres_dparam(filt, 1)
        assert (M.n_rows, M.n_cols) == (3, 1)
        assert M.col_grades == [(1, 1, 1)]
        assert sorted(M.row_grades) == [
            (0, 1, 1),
            (1, 0, 1),
            (1, 1, 0),
        ]
        assert M.mat.cols == [0b111]
        sortedM = sort_by_grade(minimize(M))
        diag = tot_diagonalize(sortedM)
        assert len(diag.blocks) == 1
        assert diag.blocks[0].rows == (0, 1, 2)
        assert diag.blocks[0].cols == (0,)


# -- 6: agreement with the brute-force oracle -----------------------------------


def random_distinct_graded(rng: random.Random) -> GradedMatrix:
    n, m = rng.randint(1, 4), rng.randint(1, 5)
    pts = rng.sample([(x, y) for x in range(4) for y in range(4)], n + m)
    rows = [tuple(p) for p in pts[:n]]
    cols = [tuple(p) for p in pts[n:]]
    dense = [
        [rng.randint(0, 1) if leq(rows[i], cols[j]) else 0 for j in range(m)]
        for i in range(n)
    ]
    return GradedMatrix(from_dense(dense), rows, cols)


def test_6_oracle_agreement_200():
    with verdict(6, "finest partition matches brute force on 200/200 instances"):
        t0 = time.perf_counter()
        rng = random.Random(20260816)
        for case in range(200):
            M = sort_by_grade(random_distinct_graded(rng))
            mine = {(b.rows, b.cols) for b in tot_diagonalize(M).blocks}
            ref = {(b.rows, b.cols) for b in brute_force_finest(M)}
            assert mine == ref, f"disagreement on case {case}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


# -- 7: property suites, 500 randomized cases each ------------------------------


def random_graded(rng: random.Random, d: int = 2, max_cols: int = 5) -> GradedMatrix:
    n, m = rng.randint(1, 5), rng.randint(1, max_cols)
    rows = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(n)]
    cols = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(m)]
    dense = [
        [rng.randint(0, 1) if leq(rows[i], cols[j]) else 0 for j in range(m)]
        for i in range(n)
    ]
    return GradedMatrix(from_dense(dense), rows, cols)


def random_filtration_text(rng: random.Random) -> str:
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


def random_pipeline(rng: random.Random):
    filt = parse_filtration(random_filtration_text(rng))
    diag = tot_diagonalize(sort_by_grade(minimize(pres_h0(filt))), perturb_ties=True)
    return diag.matrix, diag


def gradewise_nullity(M: GradedMatrix, u) -> int:
    active = [j for j in range(M.n_cols) if leq(M.col_grades[j], u)]
    if not active:
        return 0
    dense = np.array(M.mat.to_dense(), dtype=np.uint8)[:, active]
    return len(active) - row_echelon_rank(dense)


def kernel_rank_at(M: GradedMatrix, gens: GradedMatrix, u) -> int:
    vecs = [z for g, z in zip(gens.col_grades, gens.mat.cols) if leq(g, u)]
    if not vecs:
        return 0
    dense = np.zeros((len(vecs), M.n_cols), dtype=np.uint8)
    for r, v in enumerate(vecs):
        for j in range(M.n_cols):
            dense[r, j] = (v >> j) & 1
    return row_echelon_rank(dense)


def check_kernel(M: GradedMatrix) -> None:
    gens = kernel_gens(M)
    for g, z in zip(gens.col_grades, gens.mat.cols):
        acc = 0
        for j in range(M.n_cols):
            if (z >> j) & 1:
                assert leq(M.col_grades[j], g)
                acc ^= M.mat.cols[j]
        assert acc == 0
    axes = [sorted({g[k] for g in M.col_grades}) for k in range(M.d)]
    for point in product(*axes):
        u = tuple(point)
        assert kernel_rank_at(M, gens, u) == gradewise_nullity(M, u)
    if M.d == 2:
        # with two parameters the generators are a basis
        top = tuple(max(g[k] for g in M.col_grades) for k in range(M.d))
        assert kernel_rank_at(M, gens, top) == gens.n_cols


def test_7_property_suites():
    with verdict(7, "six property suites hold on 500 randomized cases each"):
        # homogeneity survives any sequence of admissible operations
        rng = random.Random(71)
        for _ in range(500):
            M = random_graded(rng)
            for _ in range(20):
                if rng.random() < 0.5 and M.n_cols > 1:
                    i, j = rng.sample(range(M.n_cols), 2)
                    if leq(M.col_grades[i], M.col_grades[j]):
                        M.add_col(i, j)
                elif M.n_rows > 1:
                    l, k = rng.sample(range(M.n_rows), 2)
                    if leq(M.row_grades[k], M.row_grades[l]):
                        M.add_row(l, k)
            M.validate_homogeneity()

        # replaying the certificate reproduces the diagonalized matrix
        rng = random.Random(72)
        for _ in range(500):
            M = sort_by_grade(random_distinct_graded(rng))
            diag = tot_diagonalize(M)
            assert replay_certificate(M, diag.certificate).mat.cols == diag.matrix.mat.cols

        # boundary of a boundary vanishes
        rng = random.Random(73)
        for _ in range(500):
            filt = parse_filtration(random_filtration_text(rng))
            d1 = boundary_matrix(filt, 1)
            d2 = boundary_matrix(filt, 2)
            assert all(c == 0 for c in matmul(d1.mat, d2.mat).cols)

        # kernel generators are sound and complete on every grid point
        rng = random.Random(74)
        for _ in range(300):
            check_kernel(random_graded(rng, d=2, max_cols=6))
        for _ in range(200):
            check_kernel(random_graded(rng, d=3, max_cols=6))

        # Betti tables and dimension functions add up over the summands
        rng = random.Random(75)
        for _ in range(500):
            final, diag = random_pipeline(rng)
            box = default_box(final)
            total = dimension_function(final, box)
            acc = [0] * len(total)
            tables = persistent_betti(final, diag.blocks)
            for values in blockcodes(final, diag.blocks, tables, [box] * len(tables)):
                acc = list(map(add, acc, values))
            assert acc == total
            merged = merge_tables(tables)
            # the presentation is minimal, so no relation is redundant:
            # diagonalizing zeroes none, and the per-summand tables add up
            # to the table of the whole presentation
            assert all(final.mat.cols)
            assert merged[0] == sorted(final.row_grades)
            assert merged[1] == sorted(final.col_grades)
            assert merged[2] == sorted(kernel_gens(final).col_grades)

        # alternating Betti sums reproduce the dimension function (d = 2),
        # on the grid of the whole presentation and on each summand's own:
        # blockcodes reads them off the table, dimension_function sweeps
        rng = random.Random(76)
        for _ in range(500):
            final, diag = random_pipeline(rng)
            subs = summands(final, diag.blocks)
            tables = persistent_betti(final, diag.blocks)
            for boxes in ([default_box(final)] * len(subs), list(map(default_box, subs))):
                codes = blockcodes(final, diag.blocks, tables, boxes)
                for sub, table, box, values in zip(subs, tables, boxes, codes, strict=True):
                    assert betti_euler_function(table, box) == values
                    assert dimension_function(sub, box) == values


# -- 8: runtime envelope on a doubling family ------------------------------------


def merge_chain(n: int) -> GradedMatrix:
    """Path on n vertices with totally ordered grades; H0 boundary matrix."""
    rows = [(i, i) for i in range(n)]
    cols = [(i + 1, i + 1) for i in range(n - 1)]
    dense = [[1 if i in (j, j + 1) else 0 for j in range(n - 1)] for i in range(n)]
    return GradedMatrix(from_dense(dense), rows, cols)


def test_8_doubling_runtime_envelope():
    with verdict(8, "doubling a chain stays inside the x64 runtime envelope"):
        def timed(n: int) -> float:
            M = sort_by_grade(merge_chain(n))
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                diag = tot_diagonalize(M)
                best = min(best, time.perf_counter() - t0)
            assert len([b for b in diag.blocks if b.rows]) == n
            return best

        t_small = timed(12)
        t_big = timed(24)
        floor = max(t_small, 0.005)  # absorb timer noise on trivial runs
        assert t_big <= 64 * floor, f"{t_big:.3f}s vs {t_small:.3f}s"
