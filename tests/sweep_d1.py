"""Hand-run sweep: tot_diagonalize at d = 1 against the textbook barcode.

Run from the repository root::

    PYTHONPATH=src python tests/sweep_d1.py [nv ...]

For each vertex count (default 160, 320, 640 and 1000), degree 0 and 1,
and distinct and tied grades, it builds one ``sparse_d1_filtration_text``
complex (seed ``d1:{nv}``, or ``d1:{nv}:tied``), minimizes and sorts its
presentation, and times ``tot_diagonalize`` on it against
``reference.barcode``, the textbook column reduction of the whole complex.
For degree 0 it also times that reduction on the graph alone, triangles
dropped, which is all degree 0 needs ("graph" columns, "-" for degree 1).
Every summand must be one of the barcode's intervals; a mismatch stops the
sweep with an AssertionError.  Each time is the best of ``--repeat`` runs
(3 by default).  The file is not a test module, so pytest does not collect
it.
"""
from __future__ import annotations

import argparse
import random
import time

from mpdecomp import minimize, parse_filtration, pres_dparam, pres_h0, sort_by_grade, tot_diagonalize
from mpdecomp.filtration import Filtration
from reference import barcode
from test_diagonalize import sparse_d1_filtration_text


def best_of(repeat: int, fn):
    """(result of the last call, least wall time over ``repeat`` calls)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return out, best


def diagonalized_bars(M, ties: bool) -> list:
    """The (birth, death or None) of every summand of sorted M, sorted."""
    diag = tot_diagonalize(M, perturb_ties=ties)
    A = diag.matrix
    bars = []
    for b in diag.blocks:
        if not b.rows:
            continue
        assert len(b.rows) == 1 and len(b.cols) <= 1, b
        bars.append((A.row_grades[b.rows[0]], A.col_grades[b.cols[0]] if b.cols else None))
    return sorted(bars, key=lambda bar: (bar[0], bar[1] is None, bar[1] or ()))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("nv", nargs="*", type=int, default=[160, 320, 640, 1000])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    print(f"{'nv':>5} {'p':>2} {'grades':>8} {'matrix':>10} {'tot_diag s':>11} "
          f"{'barcode s':>10} {'ratio':>6} {'graph s':>8} {'ratio':>6}")
    for nv in args.nv:
        for ties in (False, True):
            rng = random.Random(f"d1:{nv}" + ":tied" * ties)
            F = parse_filtration(sparse_d1_filtration_text(rng, nv, ties))
            graph = Filtration(F.d, F.grades[:2], F.labels[:2], F.boundaries[:2])
            for p in (0, 1):
                M = sort_by_grade(minimize(pres_h0(F) if p == 0 else pres_dparam(F, 1)))
                got, t_diag = best_of(args.repeat, lambda: diagonalized_bars(M, ties))
                want, t_bar = best_of(args.repeat, lambda: barcode(F, p))
                assert got == want, f"nv={nv} p={p} ties={ties}: bars differ"
                graph_cols = f"{'-':>8} {'-':>6}"
                if p == 0:
                    assert barcode(graph, 0) == want
                    _, t_graph = best_of(args.repeat, lambda: barcode(graph, 0))
                    graph_cols = f"{t_graph:>8.4f} {t_diag / t_graph:>6.1f}"
                print(f"{nv:>5} {p:>2} {'tied' if ties else 'distinct':>8} "
                      f"{f'{M.n_rows}x{M.n_cols}':>10} {t_diag:>11.4f} {t_bar:>10.4f} "
                      f"{t_diag / t_bar:>6.1f} {graph_cols}")


if __name__ == "__main__":
    main()
