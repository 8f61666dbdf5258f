"""Brute-force reference answers for small instances.

Everything in here is deliberately independent of the main algorithms: the
finest block structure is found by enumerating admissible transformation
pairs rather than by reduction, and blocks are read off as connected
components of the nonzero entries.  No F2Matrix arithmetic is used.  Slow
and simple on purpose; ``check`` runs it against ``tot_diagonalize``.
"""
from __future__ import annotations

from operator import xor
from typing import Dict, FrozenSet, List, Set, Tuple

from .diagonalize import IndexBlock, _block_key
from .errors import InputError, InternalCheckError
from .f2 import F2Matrix, bits
from .graded import AdmissibleOps, GradedMatrix, admissible_ops


def block_partition(M: F2Matrix) -> List[IndexBlock]:
    """Connected components of the row/column incidence of nonzero entries.

    Untouched rows and columns come out as singleton blocks with the other
    side empty.
    """
    n, m = M.n_rows, M.n_cols
    parent = list(range(n + m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    touched_rows: Set[int] = set()
    touched_cols: Set[int] = set()
    for i, j in M.entries():
        union(i, n + j)
        touched_rows.add(i)
        touched_cols.add(j)

    groups: Dict[int, Tuple[List[int], List[int]]] = {}
    for i in sorted(touched_rows):
        groups.setdefault(find(i), ([], []))[0].append(i)
    for j in sorted(touched_cols):
        groups.setdefault(find(n + j), ([], []))[1].append(j)

    blocks = [IndexBlock(tuple(rows), tuple(cols)) for rows, cols in groups.values()]
    blocks.extend(IndexBlock((i,), ()) for i in range(n) if i not in touched_rows)
    blocks.extend(IndexBlock((), (j,)) for j in range(m) if j not in touched_cols)
    return sorted(blocks, key=_block_key)


def op_pairs(ops: AdmissibleOps) -> Tuple[FrozenSet, FrozenSet]:
    """All admissible additions as pairs: (colop, rowop).

    colop holds (i, j) when column i may be added into column j, rowop
    holds (l, k) when row l may be added into row k.
    """
    colop = frozenset((i, j) for j, m in enumerate(ops.col_mask) for i in bits(m))
    rowop = frozenset((l, k) for k, m in enumerate(ops.row_mask) for l in bits(m))
    return colop, rowop


def brute_force_finest(M: GradedMatrix, budget: int = 20) -> List[IndexBlock]:
    """Finest block partition over all admissible transformation pairs.

    Enumerates every matrix I + sum of admissible elementary deltas on
    each side (closure under products makes that exhaustive), transforms M,
    and takes the partition with the most blocks.  All maximizers must
    induce the same partition, otherwise something is deeply wrong and an
    internal error is raised.
    """
    colop, rowop = map(sorted, op_pairs(admissible_ops(M)))
    n_bits = len(rowop) + len(colop)
    if n_bits > budget:
        raise InputError(
            f"{n_bits} admissible operations exceed the oracle budget of {budget}"
        )

    n, m = M.n_rows, M.n_cols
    a = M.mat.to_dense()

    # P @ A for every row transform P = I + chosen deltas: row k of P @ A
    # is row k of A plus the rows l of every chosen pair (l, k)
    pa_variants = []
    for mask in range(1 << len(rowop)):
        pa = [list(r) for r in a]
        for bit, (l, k) in enumerate(rowop):
            if (mask >> bit) & 1:
                pa[k] = list(map(xor, pa[k], a[l]))
        pa_variants.append(pa)

    best_count = -1
    best_partitions: Set[FrozenSet[IndexBlock]] = set()
    seen: Set[Tuple[Tuple[int, ...], ...]] = set()
    for pa in pa_variants:
        pa_cols = [tuple(r[j] for r in pa) for j in range(m)]
        for mask in range(1 << len(colop)):
            # (P @ A) @ Q: column j plus the columns i of every chosen (i, j)
            paq = list(pa_cols)
            for bit, (i, j) in enumerate(colop):
                if (mask >> bit) & 1:
                    paq[j] = tuple(map(xor, paq[j], pa_cols[i]))
            key = tuple(paq)
            if key in seen:
                continue
            seen.add(key)
            cols = [sum(bit << i for i, bit in enumerate(col)) for col in paq]
            blocks = block_partition(F2Matrix(n, cols))
            if len(blocks) > best_count:
                best_count = len(blocks)
                best_partitions = {frozenset(blocks)}
            elif len(blocks) == best_count:
                best_partitions.add(frozenset(blocks))
    # partial diagonalizations may tie each other, but the true maximum
    # must be achieved by a single partition when grades are distinct
    if len(best_partitions) != 1:
        raise InternalCheckError(
            "two maximizers disagree on the finest partition; "
            "tied grades were probably not broken"
        )
    return sorted(best_partitions.pop(), key=_block_key)
