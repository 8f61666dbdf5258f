"""Walk through one total diagonalization step by step.

The input is the boundary matrix of a small filtered triangle graph: three
vertices entering at (0,1), (1,0), (1,1) and three edges closing the cycle.
Over two parameters the degree-0 module of this complex is NOT an interval
module, and the matrix below splits into two blocks rather than three.

Run:  python3 demos/01_total_diagonalization.py
"""
from __future__ import annotations

from mpdecomp import (
    F2Matrix,
    GradedMatrix,
    admissible_ops,
    replay_certificate,
    tot_diagonalize,
)
from mpdecomp.grades import fmt
from mpdecomp.oracle import op_pairs


def show(M: GradedMatrix, title: str) -> None:
    print(title)
    heads = [f"{lab}@{fmt(g)}" for lab, g in zip(M.col_labels, M.col_grades)]
    print("      " + " ".join(heads))
    for i, row in enumerate(M.mat.to_dense()):
        cells = " ".join(str(v).center(len(h)) for v, h in zip(row, heads))
        print(f"{M.row_labels[i]}@{fmt(M.row_grades[i])} {cells}")
    print()


def main() -> None:
    rows = [(0, 1), (1, 0), (1, 1)]
    cols = [(1, 1), (1, 2), (2, 1)]
    # one int per column, bit i = row i: br meets b and r, bg b and g, rg r and g
    mat = F2Matrix(3, [0b011, 0b101, 0b110])
    M = GradedMatrix(mat, rows, cols, ["b", "r", "g"], ["br", "bg", "rg"])
    show(M, "input matrix (rows = vertices, cols = edges):")

    colop, rowop = op_pairs(admissible_ops(M))
    print("admissible column additions (src -> dst):", sorted(colop))
    print("admissible row additions   (src -> dst):", sorted(rowop))
    print()

    # Grades are already totally ordered row- and column-wise, so we can
    # diagonalize directly.  The certificate records every applied addition.
    diag = tot_diagonalize(M)
    show(diag.matrix, "after total diagonalization:")
    print("certificate:", diag.certificate)
    print("blocks:")
    for b in diag.blocks:
        row_names = [M.row_labels[i] for i in b.rows]
        col_names = [M.col_labels[j] for j in b.cols]
        print(f"  rows {row_names}  cols {col_names}")
    print()

    # Replaying the certificate on the input reproduces the diagonal form,
    # so the block structure is reached by admissible operations only.
    replayed = replay_certificate(M, diag.certificate)
    assert replayed.mat == diag.matrix.mat
    print("certificate replay matches, the decomposition is certified")


if __name__ == "__main__":
    main()
