"""Certificates and minimal presentations stay the same on generated complexes.

40 seeded random filtrations with d = 2 and 3, and 4 more with d = 4, all
with coordinates in a small range, so that grades tie.  Each also carries
a planted chain of vertices and edges at one grade and a triangle at the
grade of its edges: same-grade unit pivots in degrees 0 and 1, which
``minimize`` splits off one after another.  ``decompose --format text --perturb`` spells out the certificate
as the final bases over the input bases, and ``export-pres`` prints the
minimal presentation, each for ``--dim 0`` and ``--dim 1``.
``data/certificate_outputs.json`` holds the SHA-256 of every exit code and
stdout.

To re-record after a deliberate change of the outputs (and only then)::

    PYTHONPATH=src python tests/test_certificate_output_identity.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from itertools import combinations
from pathlib import Path

from mpdecomp.cli import main

DIGESTS = Path(__file__).resolve().parent / "data" / "certificate_outputs.json"
N_CASES = 40  # d = 2 and 3 in turn
N_D4 = 4  # then d = 4, drawn from a generator of their own
COMMANDS = [
    ["decompose", "--format", "text", "--perturb", "--dim", "0"],
    ["decompose", "--format", "text", "--perturb", "--dim", "1"],
    ["export-pres", "--dim", "0"],
    ["export-pres", "--dim", "1"],
]


def random_mpfilt(rng: random.Random, d: int) -> str:
    """A complex with tied grades and same-grade vertex, edge and triangle runs."""
    grades = []  # per simplex, in file order
    facets = []

    def add(g, fs=()):
        grades.append(g)
        facets.append(list(fs))
        return len(grades) - 1

    def lub(*ids):
        return [max(grades[i][k] for i in ids) for k in range(d)]

    def jitter(g):
        return [x + (rng.random() < 0.3) for x in g]

    verts = [add([rng.randrange(8) for _ in range(d)]) for _ in range(rng.randint(8, 14))]
    chain = [verts[0]] + [add(list(grades[verts[0]])) for _ in range(rng.randint(1, 3))]
    verts += chain[1:]
    edges = {}
    for a, b in zip(chain, chain[1:]):  # a path of units at one grade
        edges[a, b] = add(lub(a, b), (a, b))
    pairs = [p for p in combinations(verts, 2) if p not in edges]
    for a, b in rng.sample(pairs, min(len(pairs), 3 * len(verts))):
        edges[a, b] = add(jitter(lub(a, b)), (a, b))
    tris = [t for t in combinations(verts, 3) if all(p in edges for p in combinations(t, 2))]
    for k, t in enumerate(rng.sample(tris, min(len(tris), len(verts)))):
        es = [edges[p] for p in combinations(t, 2)]
        add(lub(*es) if k == 0 else jitter(lub(*es)), es)  # the first at its edges' grade

    lines = ["mpfilt 1", f"params {d}"]
    for g, fs in zip(grades, facets):
        lines.append("s " + " ".join(map(str, g)) + " : " + " ".join(map(str, fs)))
    return "\n".join(lines) + "\n"


def digest(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest()[:16]


def case_digests(directory: Path) -> list:
    """One list per case: a digest per entry of COMMANDS, in that order."""
    rng = random.Random(20261019)
    cases = [(rng, 2 + case % 2) for case in range(N_CASES)]
    cases += [(random.Random(4), 4)] * N_D4
    out = []
    for case, (r, d) in enumerate(cases):
        path = directory / f"case{case}.mpfilt"
        path.write_text(random_mpfilt(r, d))
        out.append([digest([argv[0], str(path)] + argv[1:]) for argv in COMMANDS])
    return out


def test_certificate_outputs_match_recorded_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = case_digests(tmp_path)
    assert len(got) == len(want) == N_CASES + N_D4
    bad = [case for case in range(len(got)) if got[case] != want[case]]
    assert not bad, f"outputs changed for cases {bad[:10]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = case_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
