"""Reference helpers the tests check the library against.

Plain restatements of definitions, kept out of the package because no
part of the program needs them.
"""
from __future__ import annotations

from typing import List

from mpdecomp import BettiTable, F2Matrix, GradeBox, leq


def rank(M: F2Matrix) -> int:
    """Rank over F2 by column elimination; counts pivot lows."""
    pivots: dict = {}
    for cur in M.cols:
        while cur:
            lw = cur.bit_length() - 1
            if lw in pivots:
                cur ^= pivots[lw]
            else:
                pivots[lw] = cur
                break
    return len(pivots)


def betti_euler_function(table: BettiTable, box: GradeBox) -> List[int]:
    """Alternating cumulative sum of a Betti table over a box, flat in C order.

    Equals the dimension function whenever the table covers the full
    resolution, which is the case for d == 2 tables from the library.
    """
    box.check_size()
    return [
        sum(
            cnt if deg % 2 == 0 else -cnt
            for (deg, g), cnt in table.entries.items()
            if leq(g, u)
        )
        for u in box.grades()
    ]
