"""Dimension-function output stays the same function across implementations.

200 seeded random presentations with d = 1, 2 and 3, coordinates drawn
from small ranges so that grades tie, go through ``decompose`` (JSON and
CSV), each on its default grid and on a ``--box`` that reaches up to two
past the grades on either side.  ``data/dimension_outputs.json`` holds the
SHA-256 of every exit code and stdout of the earlier dense form, as the
numpy implementation wrote it: ``decompose`` (JSON and CSV) and the
``blockcode`` command (JSON and CSV), each on the grades' bounding box plus
one and on the ``--box``.

The dense outputs are rebuilt from today's ``decompose`` JSON alone, and
the ``--box`` corners.  Each block carries its own grid; a dense point
takes the value of the point of that grid that has, on each axis, the
largest grid coordinate at or below it, and 0 where some axis has none.
The old default box ran from each axis's smallest coordinate, over all the
presentation's grades, to its largest plus one.  Every rebuilt digest must
match the recorded one, and the CSV that ``decompose`` writes must equal
the CSV of its own JSON.

To re-record after a deliberate change of the function (and only then)::

    PYTHONPATH=src python tests/test_dimension_output_identity.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from bisect import bisect_right
from itertools import product
from pathlib import Path

from mpdecomp.cli import main

DIGESTS = Path(__file__).resolve().parent / "data" / "dimension_outputs.json"
N_CASES = 200
TOP = 2**63 - 1


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


def run(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


def dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def dense_csv(axes: list, codes: list) -> str:
    """The earlier CSV: one row per grade of the axes and block with rows."""
    lines = [",".join(f"x{k + 1}" for k in range(len(axes))) + ",block_id,dim"]
    for pos, u in enumerate(product(*axes)):
        for block_id, values in enumerate(codes):
            lines.append(",".join(map(str, u)) + f",{block_id},{values[pos]}")
    return "\n".join(lines) + "\n"


def csv(d: int, with_rows: list) -> str:
    """The CSV of ``decompose``: each block with rows over its own grid."""
    lines = [",".join(f"x{k + 1}" for k in range(d)) + ",block_id,dim"]
    for block_id, b in enumerate(with_rows):
        for u, v in zip(product(*b["grid"]), b["dim_function"], strict=True):
            lines.append(",".join(map(str, u)) + f",{block_id},{v}")
    return "\n".join(lines) + "\n"


def densified(grid: list, values: list, lo: list, hi: list) -> list:
    """A grid function's values at every integer grade of lo..hi, in C order."""
    strides = [1] * len(grid)
    for k in reversed(range(len(grid) - 1)):
        strides[k] = strides[k + 1] * len(grid[k + 1])
    out = []
    for u in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        idx = [bisect_right(axis, x) - 1 for axis, x in zip(grid, u)]
        out.append(0 if min(idx) < 0 else values[sum(map(int.__mul__, idx, strides))])
    return out


def dense_outputs(code: int, out: str, box) -> list:
    """The earlier ``decompose`` JSON and CSV and ``blockcode`` JSON and CSV.

    box is the ``--box`` flag, or None for the default grid.
    """
    if code != 0:
        return [(code, "")] * 4
    payload = json.loads(out)
    if box is None:  # min to max + 1 of all grades, the margin stopping at the top
        M = payload["matrix"]
        grades = M["row_grades"] + M["col_grades"]
        axes = [sorted(set(axis)) for axis in zip(*grades)] if grades else [[]] * payload["d"]
        lo = [axis[0] if axis else 0 for axis in axes]
        hi = [min(axis[-1] + 1, TOP) if axis else 1 for axis in axes]
    else:
        lo, hi = ([int(x) for x in part.split(",")] for part in box.split(":"))
    for b in payload["blocks"]:
        b["trivial"] = not b["rows"]  # a field the earlier JSON had
    with_rows = [b for b in payload["blocks"] if b["rows"]]
    codes = [densified(b.pop("grid"), b["dim_function"], lo, hi) for b in with_rows]
    box = {"lo": lo, "hi": hi}
    shape = [h - l + 1 for l, h in zip(lo, hi)]
    for b, values in zip(with_rows, codes):
        b["dim_function"] = {"origin": lo, "shape": shape, "values": values}
    payload["box"] = box
    dense = dense_csv([range(l, h + 1) for l, h in zip(lo, hi)], codes)
    blockcode = {
        "box": box,
        "blocks": [
            {"rows": b["rows"], "cols": b["cols"], "origin": lo, "shape": shape, "values": v}
            for b, v in zip(with_rows, codes)
        ],
    }
    return [(0, dump(payload)), (0, dense), (0, dump(blockcode)), (0, dense)]


def case_digests(directory: Path) -> list:
    """One list of digests per case, in the recorded order: decompose JSON,
    decompose CSV, blockcode JSON, blockcode CSV, each on the default box
    and then on the --box."""
    rng = random.Random(20261018)
    out = []
    for case in range(N_CASES):
        text, box = random_mppres(rng, 1 + case % 3)
        path = directory / f"case{case}.mppres"
        path.write_text(text)
        dense = []
        for flag in (None, box):
            extra = [] if flag is None else [f"--box={flag}"]
            code, out_json = run(["decompose", str(path), "--perturb"] + extra)
            csv_code, out_csv = run(["decompose", str(path), "--perturb", "--format", "csv"] + extra)
            assert csv_code == code, case
            if code == 0:
                payload = json.loads(out_json)
                with_rows = [b for b in payload["blocks"] if b["rows"]]
                assert out_csv == csv(payload["d"], with_rows), case
            dense.append(dense_outputs(code, out_json, flag))
        # recorded order: each output form on the default box, then the --box
        out.append([digest(*outputs[i]) for i in range(4) for outputs in dense])
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
