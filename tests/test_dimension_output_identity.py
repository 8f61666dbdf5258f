"""Dimension-function output stays byte-identical across implementations.

200 seeded random presentations with d = 1, 2 and 3, coordinates drawn
from small ranges so that grades tie, go through ``decompose`` (JSON and
CSV) and ``blockcode`` (JSON and CSV), each on its default box and on a
``--box`` that reaches up to two past the grades on either side.  The
SHA-256 of every exit code and stdout is compared with
``data/dimension_outputs.json``, which holds the digests of the numpy
implementation that the pure-Python ``dimension_function`` replaced.

To re-record after a deliberate output change (and only then)::

    PYTHONPATH=src python tests/test_dimension_output_identity.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from mpdecomp.cli import main

DIGESTS = Path(__file__).resolve().parent / "data" / "dimension_outputs.json"
N_CASES = 200
FORMATS = [
    ("decompose", "json"),
    ("decompose", "csv"),
    ("blockcode", "json"),
    ("blockcode", "csv"),
]


def random_mppres(rng: random.Random, d: int) -> tuple:
    """A homogeneous presentation in mppres form, and a box past its grades."""
    base = rng.randint(-3, 3)
    span = rng.randint(1, 3)

    def coords():
        return [base + rng.randint(0, span) for _ in range(d)]

    rows = [coords() for _ in range(rng.randint(1, 6))]
    cols = [coords() for _ in range(rng.randint(0, 8))]
    lines = ["mppres 1", f"params {d}", f"rows {len(rows)}"]
    lines += ["r " + " ".join(map(str, r)) for r in rows]
    lines.append(f"cols {len(cols)}")
    for c in cols:
        hits = [
            str(i)
            for i, r in enumerate(rows)
            if all(x <= y for x, y in zip(r, c)) and rng.random() < 0.5
        ]
        lines.append("c " + " ".join(map(str, c)) + " : " + " ".join(hits))
    grades = rows + cols
    lo = [min(g[k] for g in grades) - rng.randint(0, 2) for k in range(d)]
    hi = [max(g[k] for g in grades) + rng.randint(0, 2) for k in range(d)]
    box = ",".join(map(str, lo)) + ":" + ",".join(map(str, hi))
    return "\n".join(lines) + "\n", box


def case_digests(directory: Path) -> list:
    """One list of digests per case, one digest per command and box."""
    rng = random.Random(20261018)
    out = []
    for case in range(N_CASES):
        text, box = random_mppres(rng, 1 + case % 3)
        path = directory / f"case{case}.mppres"
        path.write_text(text)
        digests = []
        for command, fmt in FORMATS:
            for extra in ([], [f"--box={box}"]):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main([command, str(path), "--perturb", "--format", fmt] + extra)
                blob = f"{code}\n{buf.getvalue()}".encode()
                digests.append(hashlib.sha256(blob).hexdigest()[:16])
        out.append(digests)
    return out


def test_dimension_outputs_match_recorded_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = case_digests(tmp_path)
    assert len(got) == len(want) == N_CASES
    bad = [case for case in range(N_CASES) if got[case] != want[case]]
    assert not bad, f"outputs changed for cases {bad[:10]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = case_digests(Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
