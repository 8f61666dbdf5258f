from __future__ import annotations

import json
import random
from itertools import combinations

import pytest

from mpdecomp import (
    F2Matrix,
    GradedMatrix,
    IndexBlock,
    Op,
    block_reduce,
    minimize,
    parse_filtration,
    pres_2param,
    pres_dparam,
    pres_h0,
    replay_certificate,
    sort_by_grade,
    summands,
    tot_diagonalize,
)
from mpdecomp import diagonalize
from mpdecomp.cli import main
from mpdecomp.errors import InputError, TiedGradesError
from mpdecomp.graded import admissible_ops
from mpdecomp.grades import tied_pairs
from mpdecomp.oracle import brute_force_finest, op_pairs
from reference import barcode, block_reduce_lin, from_dense, lin
from test_acceptance import merge_chain, random_filtration_text
from test_graded_matrix import random_graded
from test_presentation import graph_filtration, random_graph_boundary


def triangle_matrix() -> GradedMatrix:
    return GradedMatrix(
        from_dense([[1, 1, 0], [1, 0, 1], [0, 1, 1]]),
        [(0, 1), (1, 0), (1, 1)],
        [(1, 1), (1, 2), (2, 1)],
        ["b", "r", "g"],
        ["br", "bg", "rg"],
    )


def random_sorted_graded(rng: random.Random, n_max=4, m_max=5) -> GradedMatrix:
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    pool = [(a, b) for a in range(4) for b in range(4)]
    picks = rng.sample(pool, n + m)
    rows = [tuple(c) for c in picks[:n]]
    cols = [tuple(c) for c in picks[n:]]
    dense = [
        [
            rng.randint(0, 1)
            if all(x <= y for x, y in zip(rows[i], cols[j]))
            else 0
            for j in range(m)
        ]
        for i in range(n)
    ]
    M = GradedMatrix(from_dense(dense), rows, cols)
    S = sort_by_grade(M)
    return S


def lin_inv(v: int, rows, cols) -> F2Matrix:
    """Reference inverse of lin: rebuild the region as a len(rows) x len(cols) matrix."""
    n_rt, n_ct = len(rows), len(cols)
    assert 0 <= v and not v >> (n_rt * n_ct), "flattened vector longer than the region"
    return F2Matrix(
        n_rt,
        [(v >> ((n_ct - 1 - cpos) * n_rt)) & ((1 << n_rt) - 1) for cpos in range(n_ct)],
    )


def test_lin_orders_last_column_first():
    # bit significance: a later column beats any row position
    mat = from_dense([[1, 0], [0, 1]])
    v = lin(mat, [0, 1], [0, 1])
    # col 1 occupies the low bits (rows ascending), col 0 the high bits
    assert v == (0b01 << 2) | 0b10
    back = lin_inv(v, [0, 1], [0, 1])
    assert back.to_dense() == mat.to_dense()


def test_lin_round_trip_random():
    rng = random.Random(3)
    for _ in range(100):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        dense = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        mat = from_dense(dense)
        rows = sorted(rng.sample(range(n), rng.randint(1, n)))
        cols = sorted(rng.sample(range(m), rng.randint(1, m)))
        sub = mat.submatrix(rows, cols)
        v = lin(mat, rows, cols)
        assert lin_inv(v, rows, cols).to_dense() == sub.to_dense()


def test_worked_example_diagonalization():
    M = triangle_matrix()
    diag = tot_diagonalize(M)
    assert diag.matrix.mat.to_dense() == [[1, 0, 0], [1, 0, 0], [0, 1, 1]]
    assert diag.blocks == [
        IndexBlock((0, 1), (0,)),
        IndexBlock((2,), (1, 2)),
    ]
    assert not diag.perturbed
    replayed = replay_certificate(M, diag.certificate)
    assert replayed.mat == diag.matrix.mat


def test_zero_matrix_gives_singletons():
    M = GradedMatrix(
        F2Matrix(2, [0, 0]),
        [(0, 0), (0, 1)],
        [(1, 0), (1, 1)],
    )
    diag = tot_diagonalize(M)
    assert diag.blocks == [
        IndexBlock((0,), ()),
        IndexBlock((1,), ()),
        IndexBlock((), (0,)),
        IndexBlock((), (1,)),
    ]
    assert diag.certificate == []


def test_blocks_with_rows_by_lowest_row_then_zero_columns():
    # rows 0 and 2 join at column 2, after row 1's block formed at column 1;
    # columns 0 and 3 are zero.  The invariants pair the blocks with rows,
    # in this order, with their summand presentations
    M = GradedMatrix(
        from_dense([[0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        [(0, 1), (0, 2), (1, 0)],
        [(0, 0), (0, 3), (1, 1), (5, 5)],
    )
    diag = tot_diagonalize(M)
    assert diag.blocks == [
        IndexBlock((0, 2), (2,)),
        IndexBlock((1,), (1,)),
        IndexBlock((), (0,)),
        IndexBlock((), (3,)),
    ]
    subs = summands(diag.matrix, diag.blocks)
    assert [sub.row_grades for sub in subs] == [[(0, 1), (1, 0)], [(0, 2)]]


def test_incomparable_column_cannot_split():
    # single relation involving three incomparable generators stays whole
    M = GradedMatrix(
        from_dense([[1], [1], [1]]),
        [(0, 0, 2), (0, 2, 0), (2, 0, 0)],
        [(2, 2, 2)],
    )
    diag = tot_diagonalize(M)
    assert diag.blocks == [IndexBlock((0, 1, 2), (0,))]


def test_unsorted_input_rejected():
    M = GradedMatrix(
        F2Matrix(2, [0]),
        [(1, 1), (0, 0)],
        [(2, 2)],
    )
    with pytest.raises(InputError):
        tot_diagonalize(M)


def test_tied_grades_rejected_then_perturbed():
    M = GradedMatrix(
        from_dense([[1], [1]]),
        [(0, 0), (0, 0)],
        [(1, 1)],
    )
    with pytest.raises(TiedGradesError) as info:
        tot_diagonalize(M)
    assert info.value.pairs == [(0, 1, (0, 0))]
    diag = tot_diagonalize(M, perturb_ties=True)
    assert diag.perturbed
    assert len(diag.blocks) == 2
    replayed = replay_certificate(M, diag.certificate)
    assert replayed.mat == diag.matrix.mat


def test_certificate_ops_are_admissible_on_original():
    rng = random.Random(17)
    for _ in range(100):
        M = random_sorted_graded(rng)
        colop, rowop = op_pairs(admissible_ops(M))
        diag = tot_diagonalize(M)
        for op in diag.certificate:
            pair = (op.source, op.target)
            assert pair in (colop if op.kind == "col" else rowop)


def test_diagonalization_is_idempotent():
    rng = random.Random(23)
    for _ in range(50):
        M = random_sorted_graded(rng)
        first = tot_diagonalize(M)
        second = tot_diagonalize(first.matrix)
        assert second.blocks == first.blocks
        assert second.matrix.mat == first.matrix.mat


def test_earlier_columns_never_regress(monkeypatch):
    # once iteration t starts, columns < t stay fixed for the rest: they
    # equal the final matrix's before and after every block_reduce at t
    real = diagonalize.block_reduce
    seen = []

    def watched(A, ops, T, t, certificate=None):
        before = A.mat.cols[:t]
        ok = real(A, ops, T, t, certificate)
        seen.append((t, before, A.mat.cols[:t]))
        return ok

    monkeypatch.setattr(diagonalize, "block_reduce", watched)
    rng = random.Random(29)
    cases = [random_sorted_graded(rng, n_max=4, m_max=4) for _ in range(50)]
    # H0 of random graphs: clearing their blocks also takes column
    # additions into columns before t, which undo the row additions there
    for _ in range(30):
        cases.append(sort_by_grade(minimize(random_graph_boundary(rng, 10, 20))))
    calls = 0
    for M in cases:
        seen.clear()
        final = tot_diagonalize(M, perturb_ties=True).matrix.mat.cols
        calls += len(seen)
        for t, before, after in seen:
            assert before == final[:t] and after == final[:t]
    assert calls > 500


def test_block_reduce_splits_worked_example_block():
    # testing block B = ({b,r},{br}) at t=1: the bg column can be cleared
    # on the rows of B, so B survives and bg attaches to g alone
    M = triangle_matrix()
    ops = admissible_ops(M)
    T = IndexBlock((0, 1), (1, 2))
    certificate: list = []
    ok = block_reduce(M, ops, T, 1, certificate)
    assert ok
    assert M.mat.cols[1] & 0b011 == 0
    assert replay_certificate(triangle_matrix(), certificate).mat == M.mat


def test_replay_certificate_rejects_illegal_ops():
    M = triangle_matrix()
    with pytest.raises(InputError):
        replay_certificate(M, [Op("col", 1, 2)])  # (1,2) onto (2,1)


# -- refusing a target that no source reaches -----------------------------------


def two_source_block(row_1_in_t: bool = True) -> GradedMatrix:
    """Rows 0 and 2 with columns 0 and 1 form a block B; column 2 is t.

    In column t, the entry of row 2 can only be cleared by adding column 1,
    B's column below t, and the entry of row 0 only by adding row 1, the row
    outside B above row 0, which needs row 1's own entry in column t.
    """
    return GradedMatrix(
        from_dense([[1, 0, 1], [0, 0, int(row_1_in_t)], [1, 1, 1]]),
        [(0, 1), (0, 2), (1, 0)],
        [(1, 3), (2, 0), (4, 2)],
    )


def test_block_reduce_clears_entries_each_reached_by_one_kind_of_source():
    M = two_source_block()
    certificate: list = []
    assert block_reduce(M, admissible_ops(M), IndexBlock((0, 2), (2,)), 2, certificate)
    assert certificate == [Op("col", 1, 2), Op("row", 1, 0)]
    assert M.mat.cols[2] == 0b010
    assert replay_certificate(two_source_block(), certificate).mat == M.mat
    diag = tot_diagonalize(two_source_block())
    assert diag.blocks == [IndexBlock((0, 2), (0, 1)), IndexBlock((1,), (2,))]
    assert blocks_of(diag) == {(b.rows, b.cols) for b in brute_force_finest(diag.matrix)}


def test_block_reduce_refuses_an_unreachable_entry_before_building_the_system(monkeypatch):
    def no_system(S, c):
        raise AssertionError("col_reduce called for an unreachable target")

    T = IndexBlock((0, 2), (2,))
    ref = two_source_block(row_1_in_t=False)
    assert not block_reduce_lin(ref, admissible_ops(ref), T, 2, [])
    monkeypatch.setattr(diagonalize, "col_reduce", no_system)
    M = two_source_block(row_1_in_t=False)
    before = list(M.mat.cols)
    certificate = [Op("row", 1, 0)]
    assert not block_reduce(M, admissible_ops(M), T, 2, certificate)
    assert M.mat.cols == before
    assert certificate == [Op("row", 1, 0)]


# -- d = 1: the decomposition is the barcode ---------------------------------------


def d1_filtration_text(rng: random.Random, nv: int, ties: bool) -> str:
    """A random one-parameter clique complex up to triangles.

    Each simplex enters at the latest base grade of its facets plus a step of
    0 to 2.  With ties the grade is that base, so grades tie often; without,
    it is the base scaled past the simplex count plus the simplex's id, so
    no two grades tie and faces still come first.
    """
    lines = ["mpfilt 1", "params 1"]
    bases: list = []

    def add(facets) -> int:
        base = max((bases[f] for f in facets), default=0) + rng.randint(0, 2)
        grade = base if ties else base * 1000 + len(bases)
        lines.append(" ".join(["s", str(grade), ":", *map(str, facets)]))
        bases.append(base)
        return len(bases) - 1

    for _ in range(nv):
        add(())
    edge = {e: add(e) for e in combinations(range(nv), 2) if rng.random() < 0.6}
    for a, b, c in combinations(range(nv), 3):
        facets = [edge.get(e) for e in ((a, b), (a, c), (b, c))]
        if None not in facets and rng.random() < 0.5:
            add(facets)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
def test_d1_decompositions_are_the_barcode(tmp_path, capsys, ties):
    # at d = 1 every summand is an interval: one row, its birth, and at
    # most one column, its death; the multiset of intervals is the barcode
    # of the textbook persistence algorithm
    rng = random.Random(71 + ties)
    path = tmp_path / "d1.mpfilt"
    n_bars = n_finite = 0
    for _ in range(40):
        text = d1_filtration_text(rng, rng.randint(4, 10), ties)
        path.write_text(text)
        F = parse_filtration(text)
        for p in (0, 1):
            argv = ["decompose", str(path), "--dim", str(p)] + ["--perturb"] * ties
            assert main(argv) == 0
            blocks = [b for b in json.loads(capsys.readouterr().out)["blocks"] if b["rows"]]
            assert all(len(b["rows"]) == 1 and len(b["cols"]) <= 1 for b in blocks)
            bars = [
                (tuple(b["row_grades"][0]), tuple(b["col_grades"][0]) if b["cols"] else None)
                for b in blocks
            ]
            want = barcode(F, p)
            assert sorted(bars, key=lambda bar: (bar[0], bar[1] is None, bar[1] or ())) == want
            n_bars += len(want)
            n_finite += sum(1 for _, death in want if death is not None)
    assert n_bars > 300 and n_finite > 200


# -- cost of the per-column BlockReduce ------------------------------------------


def cost_cases():
    """The merge chain, then random H0 presentations the oracle can check."""
    yield from (merge_chain(n) for n in range(2, 6))
    rng = random.Random(53)
    n_random = 0
    while n_random < 60:
        M = sort_by_grade(minimize(pres_h0(parse_filtration(random_filtration_text(rng)))))
        if tied_pairs(M.row_grades) or tied_pairs(M.col_grades):
            continue
        colop, rowop = op_pairs(admissible_ops(M))
        if len(colop) + len(rowop) > 14:
            continue
        n_random += 1
        yield M


def blocks_of(diag):
    return {(b.rows, b.cols) for b in diag.blocks}


def test_block_reduce_skips_blocks_clear_in_column_t(monkeypatch):
    real = diagonalize.block_reduce
    calls = []

    def watched(A, ops, T, t, certificate=None):
        mask = sum(1 << i for i in T.rows)
        assert A.mat.cols[t] & mask, f"rows {T.rows} are clear in column {t}"
        calls.append(t)
        return real(A, ops, T, t, certificate)

    monkeypatch.setattr(diagonalize, "block_reduce", watched)
    for M in cost_cases():
        diag = tot_diagonalize(M)
        assert blocks_of(diag) == {(b.rows, b.cols) for b in brute_force_finest(M)}
    assert len(calls) > 100


def test_col_reduce_sees_only_columns_up_to_t(monkeypatch):
    real_block_reduce = diagonalize.block_reduce
    real_col_reduce = diagonalize.col_reduce
    region_bits = []
    sizes = []

    def block_reduce_spy(A, ops, T, t, certificate=None):
        region_bits.append(len(T.rows) * sum(1 for j in T.cols if j <= t))
        try:
            return real_block_reduce(A, ops, T, t, certificate)
        finally:
            region_bits.pop()

    def col_reduce_spy(S, c):
        assert S.n_rows <= region_bits[-1]
        sizes.append(S.n_rows)
        return real_col_reduce(S, c)

    monkeypatch.setattr(diagonalize, "block_reduce", block_reduce_spy)
    monkeypatch.setattr(diagonalize, "col_reduce", col_reduce_spy)
    for M in cost_cases():
        diag = tot_diagonalize(M)
        assert blocks_of(diag) == {(b.rows, b.cols) for b in brute_force_finest(M)}
    # a longer chain, past the oracle's budget: every vertex is a summand
    diag = tot_diagonalize(merge_chain(24))
    assert len([b for b in diag.blocks if b.rows]) == 24
    assert len(sizes) > 100


def equivalence_cases():
    """Sorted inputs of every kind the library diagonalizes, ties included."""
    rng = random.Random(61)
    for _ in range(80):
        yield random_sorted_graded(rng, n_max=6, m_max=7)
    for _ in range(80):  # few coordinates: exact ties between rows and columns
        yield sort_by_grade(random_graded(rng, n_max=6, m_max=6, coord_max=2))
    for _ in range(30):
        M = random_graph_boundary(rng, 10, 24, span=12)
        yield sort_by_grade(M)
        yield sort_by_grade(minimize(M))
    for _ in range(20):
        P = pres_2param(graph_filtration(rng, 7, 14, span=8), 1)
        yield sort_by_grade(P)
        yield sort_by_grade(minimize(P))
    for _ in range(15):  # d = 3
        F = graph_filtration(rng, 6, 12, span=4, d=3, tets=True)
        for P in (pres_h0(F), pres_dparam(F, 1)):
            yield sort_by_grade(P)
            yield sort_by_grade(minimize(P))


def test_block_reduce_matches_lin_reference(monkeypatch):
    # every call also runs the row-by-row, source-by-source restatement on
    # a copy: same answer, same matrix, same certificate entries
    real = diagonalize.block_reduce
    calls = 0

    def checked(A, ops, T, t, certificate=None):
        nonlocal calls
        ref = A.copy()
        ref_cert = []
        expected = block_reduce_lin(ref, ops, T, t, ref_cert)
        start = len(certificate)
        ok = real(A, ops, T, t, certificate)
        assert ok == expected
        assert A.mat.cols == ref.mat.cols
        assert certificate[start:] == ref_cert
        calls += 1
        return ok

    monkeypatch.setattr(diagonalize, "block_reduce", checked)
    n_inputs = 0
    for M in equivalence_cases():
        diag = tot_diagonalize(M, perturb_ties=True)
        assert replay_certificate(M, diag.certificate).mat == diag.matrix.mat
        n_inputs += 1
    assert n_inputs >= 300
    assert calls > 2000


def test_ops_built_only_for_applied_operations(monkeypatch):
    built = 0

    class CountingOp(Op):
        __slots__ = ()

        def __new__(cls, *args):
            nonlocal built
            built += 1
            return super().__new__(cls, *args)

    monkeypatch.setattr(diagonalize, "Op", CountingOp)
    rng = random.Random(67)
    applied = 0
    for _ in range(30):
        pres = minimize(random_graph_boundary(rng, 10, 20))
        diag = tot_diagonalize(sort_by_grade(pres), perturb_ties=True)
        applied += len(diag.certificate)
    assert applied > 100
    assert built == applied
