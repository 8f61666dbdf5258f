"""Cross-check the diagonalizer against exhaustive search.

For small matrices every combination of admissible row and column additions
can be enumerated outright; the finest block partition found that way must
match what total diagonalization produces.  This is the same check exposed
as `mpdecomp check`, run here on a batch of random instances.

Run:  python3 demos/04_brute_force_check.py
"""
from __future__ import annotations

import random

from mpdecomp import (
    F2Matrix,
    GradedMatrix,
    sort_by_grade,
    tot_diagonalize,
)
from mpdecomp.oracle import block_partition, brute_force_finest


def random_instance(rng: random.Random) -> GradedMatrix:
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    # distinct grades keep the instance in the guaranteed regime
    pool = rng.sample([(a, b) for a in range(6) for b in range(6)], n + m)
    rows = [tuple(c) for c in pool[:n]]
    cols = [tuple(c) for c in pool[n:]]
    vecs = [0] * m  # one int per column, bit i = row i
    for i in range(n):
        for j in range(m):
            if all(a <= b for a, b in zip(rows[i], cols[j])):
                vecs[j] |= rng.randint(0, 1) << i
    return GradedMatrix(F2Matrix(n, vecs), rows, cols)


def main() -> None:
    rng = random.Random(7)
    agreements = 0
    for k in range(25):
        M, _, _ = sort_by_grade(random_instance(rng))
        diag = tot_diagonalize(M)
        expected = sorted((b.rows, b.cols) for b in brute_force_finest(M))
        got = sorted((b.rows, b.cols) for b in diag.blocks)
        assert got == expected, f"instance {k}: {got} != {expected}"
        assert block_partition(diag.matrix.mat) == diag.blocks
        agreements += 1
    print(f"{agreements}/25 random instances: diagonalizer matches brute force")


if __name__ == "__main__":
    main()
