"""Output checker that shares no code with the program under test.

It re-parses the input filtration, computes homology dimensions itself
from boundary ranks (numpy elimination over F2), and compares them with
the dimension functions that the CLI's output presents:

* ``decompose`` JSON: the blocks partition the rows and columns, every
  entry outside a block is zero, every entry is homogeneous (row grade <=
  column grade), and the summands' dimensions, evaluated from the output's
  ``matrix`` and ``blocks`` alone, sum to the homology dimension.  The
  multiset of nonzero summand dimension vectors is returned as a digest for
  comparison with a recorded reference; by Krull-Schmidt it is an invariant
  of the module.
* ``export-pres`` text: the presented module's dimension equals the
  homology dimension.

All functions are evaluated on the grid spanned by the input's distinct
grade coordinates.  Every module here is constant on the cells of that
grid and zero below it, so agreement on the grid is agreement everywhere.
"""
from __future__ import annotations

import hashlib
import json
from typing import List, Optional, Sequence, Tuple

import numpy as np

Grade = Tuple[int, ...]


class CheckError(Exception):
    """An output failed a check."""


class Filt:
    """A parsed mpfilt file: grade, dimension and facet ids per simplex."""

    def __init__(self, text: str):
        self.d = 0
        self.grades: List[Grade] = []
        self.dims: List[int] = []
        self.facets: List[Tuple[int, ...]] = []
        body = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
        body = [t for t in body if t]
        if body[0] != ["mpfilt", "1"] or body[1][0] != "params":
            raise CheckError("input is not an mpfilt file")
        self.d = int(body[1][1])
        for toks in body[2:]:
            sep = toks.index(":")
            self.grades.append(tuple(int(x) for x in toks[1:sep]))
            fac = tuple(int(x) for x in toks[sep + 1 :])
            self.facets.append(fac)
            self.dims.append(self.dims[fac[0]] + 1 if fac else 0)

    def axes(self) -> List[List[int]]:
        return [sorted({g[k] for g in self.grades}) for k in range(self.d)]

    def boundary(self, p: int) -> Tuple[List[Grade], List[int]]:
        """Column grades and row bitmasks of the boundary map C_p -> C_{p-1}."""
        rows = [i for i, dm in enumerate(self.dims) if dm == p - 1]
        pos = {sid: r for r, sid in enumerate(rows)}
        grades, cols = [], []
        for i, dm in enumerate(self.dims):
            if dm == p:
                grades.append(self.grades[i])
                cols.append(sum(1 << pos[f] for f in self.facets[i]))
        return grades, cols


def _pivot_flags(A: np.ndarray) -> np.ndarray:
    """pivot[k] is True when column k of A is independent of columns < k.

    Gauss-Jordan by row operations, which keep every linear relation among
    the columns: after column k is processed it is a unit vector, so a
    later column depends on earlier ones exactly when it is zero outside
    the rows already used as pivots.
    """
    A = A.copy()
    n_rows, n_cols = A.shape
    used = np.zeros(n_rows, dtype=bool)
    pivot = np.zeros(n_cols, dtype=bool)
    for k in range(n_cols):
        col = A[:, k]
        cand = np.flatnonzero(col & ~used)
        if cand.size == 0:
            continue
        r = cand[0]
        pivot[k] = True
        used[r] = True
        hit = col.copy()
        hit[r] = False
        if hit.any():
            A[hit, k:] ^= A[r, k:]
    return pivot


def _dense(n_rows: int, cols: Sequence[int]) -> np.ndarray:
    A = np.zeros((n_rows, len(cols)), dtype=bool)
    for j, c in enumerate(cols):
        while c:
            low = c & -c
            A[low.bit_length() - 1, j] = True
            c ^= low
    return A


def _count_grid(grades: Sequence[Grade], axes: Sequence[Sequence[int]]) -> np.ndarray:
    """Number of grades <= u at every grid point u (2 parameters)."""
    xs, ys = axes
    out = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for g in grades:
        out[np.searchsorted(xs, g[0]) :, np.searchsorted(ys, g[1]) :] += 1
    return out


def rank_grid(
    n_rows: int, grades: Sequence[Grade], cols: Sequence[int], axes: Sequence[Sequence[int]]
) -> np.ndarray:
    """Rank of the columns with grade <= u, at every grid point u.

    One elimination per x-slice where the active set changes: inside the
    slice the columns are taken in y order, so the prefix counts of pivot
    columns give the rank at every y at once.
    """
    xs, ys = axes
    out = np.zeros((len(xs), len(ys)), dtype=np.int64)
    if not cols or n_rows == 0:
        return out
    A_all = _dense(n_rows, cols)
    gx = np.array([g[0] for g in grades])
    gy = np.array([g[1] for g in grades])
    ys_arr = np.asarray(ys)
    prev_active = None
    row = np.zeros(len(ys), dtype=np.int64)
    for xi, x in enumerate(xs):
        active = np.flatnonzero(gx <= x)
        if prev_active is None or active.size != prev_active.size:
            order = active[np.argsort(gy[active], kind="stable")]
            ranks = np.concatenate(([0], np.cumsum(_pivot_flags(A_all[:, order]))))
            n_le = np.searchsorted(gy[order], ys_arr, side="right")
            row = ranks[n_le]
            prev_active = active
        out[xi] = row
    return out


def homology_dims(F: Filt, p: int, axes) -> np.ndarray:
    """dim H_p(u) = dim C_p(u) - rank d_p(u) - rank d_{p+1}(u) on the grid."""
    n_p = sum(1 for dm in F.dims if dm == p)
    n_pm1 = sum(1 for dm in F.dims if dm == p - 1)
    chains = _count_grid([g for g, dm in zip(F.grades, F.dims) if dm == p], axes)
    out = chains.copy()
    if p >= 1:
        g, c = F.boundary(p)
        out -= rank_grid(n_pm1, g, c, axes)
    g, c = F.boundary(p + 1)
    out -= rank_grid(n_p, g, c, axes)
    return out


def presented_dims(
    row_grades: Sequence[Grade], col_grades: Sequence[Grade], cols: Sequence[int], axes
) -> np.ndarray:
    """Dimension of the cokernel of a graded matrix on the grid."""
    return _count_grid(row_grades, axes) - rank_grid(len(row_grades), col_grades, cols, axes)


def _check_homogeneous(row_grades, col_grades, cols) -> None:
    for j, c in enumerate(cols):
        for i in range(len(row_grades)):
            if (c >> i) & 1 and not all(a <= b for a, b in zip(row_grades[i], col_grades[j])):
                raise CheckError(f"entry ({i},{j}) is not homogeneous")


def check_decompose(out: str, axes, expected: Optional[np.ndarray]) -> str:
    """Check a ``decompose`` JSON output; return its summand digest.

    expected is the module's dimension on the grid given by axes; pass None
    (with axes None) for inputs the grid check does not cover, which gets
    the structural checks only.
    """
    try:
        payload = json.loads(out)
        M = payload["matrix"]
        blocks = payload["blocks"]
        n_rows, n_cols = M["n_rows"], M["n_cols"]
        row_grades = [tuple(g) for g in M["row_grades"]]
        col_grades = [tuple(g) for g in M["col_grades"]]
        cols = [sum(1 << i for i in c) for c in M["columns"]]
        parts = [(list(b["rows"]), list(b["cols"])) for b in blocks]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"malformed decompose output: {exc}") from None
    if len(row_grades) != n_rows or len(col_grades) != n_cols or len(cols) != n_cols:
        raise CheckError("matrix shape does not match its grade lists")
    if any(c >> n_rows for c in cols):
        raise CheckError("matrix entry outside its rows")
    if sorted(i for r, _ in parts for i in r) != list(range(n_rows)):
        raise CheckError("blocks do not partition the rows")
    if sorted(j for _, c in parts for j in c) != list(range(n_cols)):
        raise CheckError("blocks do not partition the columns")
    _check_homogeneous(row_grades, col_grades, cols)

    for rows, bcols in parts:
        mask = sum(1 << i for i in rows)
        for j in bcols:
            if cols[j] & ~mask:
                raise CheckError(f"column {j} has an entry outside its block")
    if expected is None:
        return ""

    total = np.zeros(expected.shape, dtype=np.int64)
    vectors = []
    for rows, bcols in parts:
        if not rows:
            continue
        sub = []
        for j in bcols:
            sub.append(sum(1 << k for k, i in enumerate(rows) if (cols[j] >> i) & 1))
        dims = presented_dims(
            [row_grades[i] for i in rows], [col_grades[j] for j in bcols], sub, axes
        )
        if (dims < 0).any():
            raise CheckError("negative summand dimension")
        total += dims
        if dims.any():
            vectors.append(tuple(int(v) for v in dims.reshape(-1)))
    if not np.array_equal(total, expected):
        bad = tuple(np.argwhere(total != expected)[0])
        raise CheckError(
            f"summand dimensions sum to {int(total[bad])} but the module has dimension "
            f"{int(expected[bad])} at grid point {tuple(int(a[k]) for a, k in zip(axes, bad))}"
        )
    return summand_digest(vectors)


def summand_digest(vectors: Sequence[Tuple[int, ...]]) -> str:
    """Order-free digest of the multiset of summand dimension vectors."""
    text = json.dumps(sorted(vectors), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def parse_mppres(text: str):
    body = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    body = [t for t in body if t]
    if body[0] != ["mppres", "1"] or body[1][0] != "params" or body[2][0] != "rows":
        raise CheckError("output is not an mppres file")
    n = int(body[2][1])
    row_grades = [tuple(int(x) for x in t[1:]) for t in body[3 : 3 + n]]
    m = int(body[3 + n][1])
    col_grades, cols = [], []
    for t in body[4 + n : 4 + n + m]:
        sep = t.index(":")
        col_grades.append(tuple(int(x) for x in t[1:sep]))
        cols.append(sum(1 << int(i) for i in t[sep + 1 :]))
    if len(body) != 4 + n + m or len(cols) != m:
        raise CheckError("mppres row or column count does not match its lines")
    return row_grades, col_grades, cols


def check_export(out: str, axes, expected: np.ndarray) -> None:
    """Check an ``export-pres`` output against the module's dimensions."""
    try:
        row_grades, col_grades, cols = parse_mppres(out)
    except (ValueError, IndexError) as exc:
        raise CheckError(f"malformed mppres output: {exc}") from None
    if any(c >> len(row_grades) for c in cols):
        raise CheckError("relation refers to a row that does not exist")
    _check_homogeneous(row_grades, col_grades, cols)
    if not np.array_equal(presented_dims(row_grades, col_grades, cols, axes), expected):
        raise CheckError("exported presentation does not present the module")
