"""Hand-run sweep: what tot_diagonalize returns at size, hashed, and its time.

Run from the repository root::

    PYTHONPATH=src python tests/sweep_diag.py [nv ...]

The inputs are the d = 2 doubling series, for each vertex count (default
160, 320, 640 and 1280) one ``random_filtration`` of ``perfbench/gen.py``
(decompose-h0 family, span 1.5 nv, seed ``scale:{nv}``), and the nv = 1000
inputs of ``tests/sweep_d1.py`` (``sparse_d1_filtration_text``, seed
``d1:1000``, distinct and tied grades), each in degree 0 and 1.  Every
presentation is minimized and sorted, then diagonalized with
``perturb_ties``.  Per input it prints the matrix, a hash of the blocks,
the certificate and the final matrix's columns, and the wall time of
``tot_diagonalize``, the best of ``--repeat`` runs (1 by default).  Equal
hashes from two checkouts show that they diagonalize identically.  The
file is not a test module, so pytest does not collect it.
"""
from __future__ import annotations

import argparse
import hashlib
import random
import sys
import time
from pathlib import Path

from mpdecomp import (
    minimize,
    parse_filtration,
    pres_2param,
    pres_dparam,
    pres_h0,
    sort_by_grade,
    tot_diagonalize,
)
from test_diagonalize import sparse_d1_filtration_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


def inputs(nvs):
    """(name, sorted minimal presentation) for every input of the sweep."""
    for nv in nvs:
        fam = dict(gen.FAMILIES["decompose-h0"], span=3 * nv // 2)
        F = parse_filtration(gen.random_filtration(random.Random(f"scale:{nv}"), nv, fam))
        yield f"d2 nv={nv} H0", sort_by_grade(minimize(pres_h0(F)))
        yield f"d2 nv={nv} H1", sort_by_grade(minimize(pres_2param(F, 1)))
    for ties in (False, True):
        rng = random.Random("d1:1000" + ":tied" * ties)
        F = parse_filtration(sparse_d1_filtration_text(rng, 1000, ties))
        tag = "tied" if ties else "distinct"
        yield f"d1 nv=1000 H0 {tag}", sort_by_grade(minimize(pres_h0(F)))
        yield f"d1 nv=1000 H1 {tag}", sort_by_grade(minimize(pres_dparam(F, 1)))


def digest(diag) -> str:
    """A hash of the blocks, the certificate and the final matrix's columns."""
    blocks = [(b.rows, b.cols) for b in diag.blocks]
    certificate = [(op.kind, op.source, op.target) for op in diag.certificate]
    text = repr((blocks, certificate, diag.matrix.mat.cols))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("nv", nargs="*", type=int, default=[160, 320, 640, 1280])
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()
    print(f"{'input':<22} {'matrix':>10} {'hash':>16} {'tot_diag s':>11}")
    for name, M in inputs(args.nv):
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            diag = tot_diagonalize(M, perturb_ties=True)
            best = min(best, time.perf_counter() - start)
        shape = f"{M.n_rows}x{M.n_cols}"
        print(f"{name:<22} {shape:>10} {digest(diag):>16} {best:>11.4f}", flush=True)


if __name__ == "__main__":
    main()
