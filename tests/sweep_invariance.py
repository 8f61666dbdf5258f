"""Hand-run sweep: summand types under random conjugation, at sizes tier-1 skips.

Run from the repository root::

    PYTHONPATH=src python tests/sweep_invariance.py [nv ...]

For each vertex count (default 40, 80 and 160), degree 0 and 1, and
``--seeds`` seeds (2 by default), it builds one ``random_complex`` of
``test_invariance.py`` (seed ``inv:{nv}:{seed}``, coordinates in
[0, 1000)), minimizes and sorts its presentation, and compares
``reference.summand_types`` of it with that of ``--trials`` random
admissible conjugations (4 by default), as
``test_distinct_grades_keep_their_summand_types`` does at 10 vertices.
It prints, per input, the matrix, whether its grades tie, the trials whose
multiset of summand types agrees and differs, and the mean wall time of
one ``summand_types`` call.  A differing trial is counted, not raised.
The file is not a test module, so pytest does not collect it.
"""
from __future__ import annotations

import argparse
import random
import time

from mpdecomp import tied_pairs
from reference import summand_types
from test_invariance import conjugate, presentation, random_complex


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("nv", nargs="*", type=int, default=[40, 80, 160])
    ap.add_argument("--seeds", type=int, default=2)
    ap.add_argument("--trials", type=int, default=4)
    args = ap.parse_args()
    print(f"{'nv':>4} {'p':>2} {'seed':>4} {'matrix':>9} {'tied':>5} "
          f"{'agree':>5} {'differ':>6} {'types s':>8}")
    totals = [0, 0]
    for nv in args.nv:
        for p in (0, 1):
            for seed in range(args.seeds):
                M = presentation(random_complex(random.Random(f"inv:{nv}:{seed}"), nv, 1000), p)
                tied = bool(tied_pairs(M.row_grades) or tied_pairs(M.col_grades))
                want, spent = timed(summand_types, M)
                agree = 0
                for trial in range(args.trials):
                    got, t = timed(summand_types, conjugate(M, seed, p, trial))
                    agree += got == want
                    spent += t
                differ = args.trials - agree
                totals[0] += agree
                totals[1] += differ
                print(f"{nv:>4} {p:>2} {seed:>4} {f'{M.n_rows}x{M.n_cols}':>9} "
                      f"{'yes' if tied else 'no':>5} {agree:>5} {differ:>6} "
                      f"{spent / (args.trials + 1):>8.3f}")
    print(f"total: {totals[0]} agree, {totals[1]} differ")


if __name__ == "__main__":
    main()
