"""Degree-1 presentation over three parameters.

With more than two parameters a graded kernel basis need not exist, so the
construction switches to a generating set: a kernel column can become zero
at several incomparable grades and is then recorded once per minimal grade.
K_{2,3} filtered along the three axes is the smallest example: its two
independent cycles need three generators whose unique syzygy sits at (1,1,1).

Run:  python3 demos/03_three_parameters.py
"""
from __future__ import annotations

from pathlib import Path

from mpdecomp import (
    boundary_matrix,
    kernel_gens,
    minimize,
    parse_filtration,
    pres_dparam,
    sort_by_grade,
    tot_diagonalize,
)
from mpdecomp.f2 import bits
from mpdecomp.grades import fmt

DATA = Path(__file__).resolve().parent.parent / "data" / "k23.mpfilt"


def main() -> None:
    filt = parse_filtration(DATA.read_text())
    d1 = boundary_matrix(filt, 1)

    # a column per generator at its birth grade, a row per edge of d1
    Z = kernel_gens(d1)
    print("cycle generators (grade, support over edge columns):")
    for g, z in zip(Z.col_grades, Z.mat.cols):
        names = [Z.row_labels[i] for i in bits(z)]
        print(f"  {fmt(g)}  {names}")
    print()

    pres = minimize(pres_dparam(filt, 1))
    print("minimal presentation of H_1:")
    for i, g in enumerate(pres.row_grades):
        print(f"  generator {pres.row_labels[i]} at {fmt(g)}")
    for j, g in enumerate(pres.col_grades):
        rows = bits(pres.mat.cols[j])
        print(f"  relation {pres.col_labels[j]} at {fmt(g)} over rows {rows}")
    print()

    sorted_matrix = sort_by_grade(pres)
    diag = tot_diagonalize(sorted_matrix)
    print(f"the presentation is a single indecomposable block: {diag.blocks}")


if __name__ == "__main__":
    main()
