"""From a filtered complex to bigraded Betti numbers and blockcodes.

The input complex is a suspension whose degree-1 homology is a direct sum
of two staircase summands and a free summand.  The pipeline is:

    parse -> presentation of H_1 -> minimize -> diagonalize -> invariants

Run:  python3 demos/02_betti_and_blockcodes.py
"""
from __future__ import annotations

from pathlib import Path

from mpdecomp import (
    blockcodes,
    minimize,
    parse_filtration,
    persistent_betti,
    pres_2param,
    sort_by_grade,
    tot_diagonalize,
)
from mpdecomp.grades import fmt
from mpdecomp.invariants import grade_grid

DATA = Path(__file__).resolve().parent.parent / "data" / "suspension.mpfilt"


def main() -> None:
    filt = parse_filtration(DATA.read_text())
    top = len(filt.grades) - 1  # grades[p] lists the p-simplices' grades
    print(f"complex: {sum(map(len, filt.grades))} simplices, max dim {top}")

    pres = minimize(pres_2param(filt, 1))
    print(f"minimal presentation of H_1: {pres.n_rows} generators, "
          f"{pres.n_cols} relations")

    # the invariants read the minimal presentation, diagonalized
    diag = tot_diagonalize(sort_by_grade(pres))
    final = diag.matrix
    print(f"{len(diag.blocks)} indecomposable summands\n")

    # one Betti table per block with rows, in block order; with two
    # parameters one kernel sweep of the whole matrix gives every degree 2
    blocks = [b for b in diag.blocks if b.rows]
    tables = persistent_betti(final, blocks)
    for block, table in zip(blocks, tables):
        print(f"summand generated by {[final.row_labels[i] for i in block.rows]}:")
        for deg, grades in enumerate(table):  # the sorted grades of each degree
            print(f"  beta_{deg} supported at {[fmt(g) for g in grades]}")

    # a summand's dimension function is constant on the cells of the grid
    # of its own distinct grade coordinates, so its values at those grid
    # points are all, as ``decompose`` writes them; with two parameters the
    # table is a free resolution and each value is its alternating count
    print("\ndimension functions, each on its summand's own grade grid\n"
          "(x1 grows downwards, x2 to the right; a grade between grid points\n"
          "takes the value of the grid point at or below it, and a grade\n"
          "below the grid on some axis the value 0):")
    boxes = [grade_grid(table[0] + table[1], final.d) for table in tables]
    for block, box, values in zip(blocks, boxes, blockcodes(final, blocks, tables, boxes)):
        xs, ys = (list(axis) for axis in box.axes)
        print(f"  block rows={list(block.rows)}, x1 in {xs}, x2 in {ys}:")
        width = box.shape[-1]  # values are flat, last coordinate fastest
        for start in range(0, len(values), width):
            print("    " + " ".join(str(v) for v in values[start : start + width]))


if __name__ == "__main__":
    main()
