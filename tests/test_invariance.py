"""Summand types do not change under a change of basis.

By the Krull-Schmidt theorem the multiset of indecomposable summands of a
module is unique up to isomorphism.  So a minimized, sorted presentation
and the same presentation after random admissible additions must give the
same multiset of summand types (``reference.summand_types``).  The inputs
are seeded d = 2 complexes, H0 and H1 of each:

- with coordinates in [0, 1000) and each simplex a random step above its
  facets' join, the minimized grades are distinct (each case asserts it),
  and the gate must pass;
- ``random_mpfilt`` ties grades on purpose.  There ``--perturb`` orders
  tied rows and columns by index, so the decomposition can depend on the
  basis; the cases listed below change their multiset today.
"""
from __future__ import annotations

import random
from itertools import combinations

import pytest

from mpdecomp import (
    GradedMatrix,
    minimize,
    parse_filtration,
    pres_2param,
    pres_h0,
    sort_by_grade,
    tied_pairs,
)
from reference import random_additions, summand_types
from test_certificate_output_identity import random_mpfilt

TRIALS = 4  # conjugations per input


def random_complex(rng: random.Random, nv: int, span: int) -> str:
    """nv vertices, 2nv edges and up to nv triangles with d = 2.

    Each simplex sits at its facets' join plus a random step in [0, span)
    on each axis.
    """
    grades = []
    lines = ["mpfilt 1", "params 2"]

    def add(g, fs=()):
        grades.append(g)
        lines.append("s " + " ".join(map(str, g)) + " : " + " ".join(map(str, fs)))
        return len(grades) - 1

    def above(*ids):
        return [max(grades[i][k] for i in ids) + rng.randrange(span) for k in range(2)]

    verts = [add([rng.randrange(span), rng.randrange(span)]) for _ in range(nv)]
    edges = {}
    for a, b in rng.sample(list(combinations(verts, 2)), 2 * nv):
        edges[a, b] = add(above(a, b), (a, b))
    tris = [t for t in combinations(verts, 3) if all(p in edges for p in combinations(t, 2))]
    for t in rng.sample(tris, min(len(tris), nv)):
        es = [edges[p] for p in combinations(t, 2)]
        add(above(*es), es)
    return "\n".join(lines) + "\n"


def presentation(text: str, dim: int) -> GradedMatrix:
    filt = parse_filtration(text)
    return sort_by_grade(minimize(pres_h0(filt) if dim == 0 else pres_2param(filt, 1)))


def conjugate(M: GradedMatrix, seed: int, dim: int, trial: int) -> GradedMatrix:
    rng = random.Random(f"{seed}:{dim}:{trial}")
    return random_additions(M, 3 * (M.n_rows + M.n_cols), rng)


@pytest.mark.parametrize("dim", [0, 1])
@pytest.mark.parametrize("seed", range(12))
def test_distinct_grades_keep_their_summand_types(seed, dim):
    M = presentation(random_complex(random.Random(seed), 10, 1000), dim)
    assert not tied_pairs(M.row_grades) and not tied_pairs(M.col_grades)
    want = summand_types(M)
    for trial in range(TRIALS):
        assert summand_types(conjugate(M, seed, dim, trial)) == want, trial


# (seed, dim, trial) of random_mpfilt inputs whose summand types change today
TIED = [(0, 0, 0), (9, 0, 0), (0, 1, 0), (1, 1, 1), (5, 1, 0), (6, 1, 2)]
TIE_BUG = pytest.mark.xfail(strict=True, reason="ROADMAP item 3: --perturb orders ties by index")


def test_tied_inputs_tie():
    for seed, dim, _ in TIED:
        M = presentation(random_mpfilt(random.Random(seed), 2), dim)
        assert tied_pairs(M.row_grades) or tied_pairs(M.col_grades), (seed, dim)


@pytest.mark.parametrize("seed, dim, trial", [pytest.param(*c, marks=TIE_BUG) for c in TIED])
def test_tied_grades_keep_their_summand_types(seed, dim, trial):
    M = presentation(random_mpfilt(random.Random(seed), 2), dim)
    assert summand_types(conjugate(M, seed, dim, trial)) == summand_types(M)
